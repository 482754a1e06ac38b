"""Finding records produced by the SPMD protocol linter."""

from __future__ import annotations

from dataclasses import dataclass

__all__ = ["Finding", "RULES", "FLOW_CODES"]

#: Rule code -> one-line description (see ``docs/SPMD_CONTRACT.md`` for
#: the rationale and bad/good examples of each).
RULES: dict[str, str] = {
    "R1": (
        "collective (or ctx.recv) called without 'yield from' — the "
        "generator is created and silently dropped"
    ),
    "R2": (
        "collective invoked under rank-dependent control flow — PEs may "
        "diverge in collective entry order"
    ),
    "R3": (
        "loop over a set/dict whose body sends messages — iteration order "
        "is not a deterministic function of the program"
    ),
    "R4": (
        "SPMD hygiene: ctx.send without an explicit words cost, or "
        "wall-clock / unseeded randomness inside SPMD code"
    ),
    "R5": (
        "direct ctx.send inside a program marked @fault_tolerant — "
        "route it through repro.net.reliable.reliable_send so the "
        "transport can sequence and retransmit it"
    ),
    "R6": (
        "ctx.span misuse — the call must be entered via a "
        "'with' statement and carry a string-literal (rank-invariant) "
        "label, or the observability layer records nothing mergeable"
    ),
    "R7": (
        "per-element post_many inside a Python loop over unpacked "
        "arrays — post the batch's CSR slots with one post_many("
        "dest_ranks, vertices, targets, slots, xadj, adj) call, which "
        "charges identical words without per-element interpreter cost"
    ),
    "R8": (
        "collective sequence can diverge across ranks (static deadlock): "
        "a rank-dependent branch, loop trip count, or early return makes "
        "PEs enter different collectives — proven over the CFG and call "
        "graph, including collectives reached through callees"
    ),
    "R9": (
        "rank-tainted branch guards divergent collectives: the condition "
        "is derived from ctx.rank, received data, or checkpoint replay "
        "through dataflow R2's lexical check cannot see"
    ),
    "R10": (
        "message destinations drawn from unordered iteration (a set/dict "
        "reached through aliases or a callee's return value) — message "
        "order becomes a hash artifact; iterate sorted(...)"
    ),
    "R11": (
        "SPMD function performs NumPy compute but never charges the "
        "alpha-beta cost model (no ctx.charge, no message-bearing "
        "primitive, no charging callee) — the work is invisible to the "
        "simulated timeline"
    ),
    "R12": (
        "checkpoint-domain inconsistency: ctx.checkpoint without its "
        "ctx.restore guard, a non-literal domain name, or checkpointed "
        "state mutated after the snapshot — run_with_recovery would "
        "silently lose the difference on restart"
    ),
    "R13": (
        "SPMD code mutates engine-owned state directly (ctx.metrics.*, "
        "ctx._private, or a time-keyed attribute like clock/send_time/"
        "busy_until) — programs must charge time and send messages "
        "through the PEContext API so the event engine stays the single "
        "writer of simulated time"
    ),
    "R14": (
        "localized-recovery misuse: Machine(recovery='localized') built "
        "with a non-partner-capable CheckpointStore (restore has no "
        "replica to ship), or restored state mutated in a "
        "@fault_tolerant program without a later ctx.checkpoint — after "
        "an in-place respawn the partner replica no longer matches the "
        "state survivors assume"
    ),
    "R0": "file could not be parsed or read",
}

#: Codes produced by the dataflow pass (:mod:`repro.lint.flow`).
#: Suppressing one inline requires a justification:
#: ``# noqa: R8 -- <why this is safe>``.
FLOW_CODES = frozenset({"R8", "R9", "R10", "R11", "R12"})


@dataclass(frozen=True, order=True)
class Finding:
    """One linter diagnostic, formatted ``path:line:col: CODE message``."""

    path: str
    line: int
    col: int
    code: str
    message: str

    def format(self) -> str:
        """Render in the conventional compiler-diagnostic shape."""
        return f"{self.path}:{self.line}:{self.col}: {self.code} {self.message}"
