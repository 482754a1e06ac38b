"""The declarative, seeded fault plan.

A :class:`FaultPlan` describes *what the network and the machines do
wrong* during one simulated run: per-transmission message faults
(drop, duplicate, delay, reorder), scheduled PE crash-stops, and
per-rank straggler slowdowns.

Determinism
-----------
All probabilistic decisions are drawn from one ``numpy`` generator
seeded at construction.  The event engine of :mod:`repro.sim` executes
deterministically and consults the plan in a deterministic event order
(on the alpha-beta network, the order of a strict round-robin polling
schedule — drops, delays, and crash coordinates are pinned by golden
fingerprints in ``tests/test_faults.py``), so a run is a
pure function of ``(program, inputs, spec, FaultPlan seed)`` — the
same guarantee the fault-free machine gives, extended to faulty runs.
Under the contended model, delays defer the message's injection event
and retransmit timeouts fire as engine timer events.
Decision draws only happen for fault classes with a non-zero rate, so
enabling one fault class does not perturb the decision stream of
another run that never used it.

A plan is *stateful*: crash events fire at most once per plan
instance (a crash-stopped PE does not crash again after the
checkpoint/restart driver replaces it), and the RNG stream continues
across restart attempts of :func:`repro.core.checkpoint.run_with_recovery`.
Call :meth:`FaultPlan.reset` (or build a fresh plan from the same
seed) to replay a run bit-identically.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Mapping

import numpy as np

__all__ = ["CrashEvent", "FaultPlan", "TimedCrash"]


@dataclass(frozen=True)
class TimedCrash:
    """Crash-stop of one PE, scheduled by *simulated time*.

    Event-indexed :class:`CrashEvent` schedules land a crash at a
    reproducible point of the protocol, but heartbeat-based failure
    detection (``Machine(recovery="localized")``) reasons in simulated
    seconds — a detection timeout is meaningless against an event
    counter.  A ``TimedCrash`` fires as a timer event of the
    :class:`~repro.sim.engine.SimEngine` at ``at_time`` simulated
    seconds, so it requires the contended network model (the DES
    discipline); the machine rejects timed crashes on instant
    alpha-beta networks, whose engine runs no time loop.

    Like event-indexed crashes, each timed crash fires at most once
    per plan instance and is re-armed by :meth:`FaultPlan.reset`.
    """

    rank: int
    at_time: float

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("crash rank must be non-negative")
        if self.at_time < 0:
            raise ValueError("crash time must be non-negative")


@dataclass(frozen=True)
class CrashEvent:
    """Crash-stop of one PE, scheduled by machine event index.

    The machine maintains a global monotone event counter (every send,
    delivery, and charge increments it); the PE crash-stops the first
    time it is scheduled with the counter at or past ``at_event``.
    Event indices — not simulated times — key the schedule so that a
    crash lands at a reproducible point of the protocol regardless of
    cost-model constants.
    """

    rank: int
    at_event: int

    def __post_init__(self) -> None:
        if self.rank < 0:
            raise ValueError("crash rank must be non-negative")
        if self.at_event < 0:
            raise ValueError("crash event index must be non-negative")


class FaultPlan:
    """Seeded, declarative fault-injection plan for one simulated run.

    Parameters
    ----------
    seed:
        Seed of the decision RNG; identical seeds replay identical
        fault sequences (given the same program and machine spec).
    drop_rate:
        Probability that one wire transmission is lost.  Under
        reliable transport the sender retransmits with exponential
        backoff; under the lossy transport the message just vanishes.
    duplicate_rate:
        Probability that a delivered message arrives twice.  Reliable
        transport discards the copy on receive (``duplicates_discarded``);
        the lossy transport hands both copies to the program.
    delay_rate / delay_alphas:
        Probability that a delivered message is delayed, and the mean
        extra latency in multiples of the machine's ``alpha``.
    reorder_rate:
        (Lossy transport only.)  Probability that a delivered message
        jumps ahead of messages already queued for its tag class.
    crashes:
        :class:`CrashEvent` schedule; each event fires at most once
        per plan instance.
    crash_at_time:
        :class:`TimedCrash` schedule keyed by simulated seconds
        instead of event index; requires the contended network model.
        Each timed crash also fires at most once per plan instance.
    stragglers:
        ``rank -> slowdown`` factors (>= 1): every charged compute and
        message cost of that PE is multiplied by the factor.
    """

    def __init__(
        self,
        seed: int = 0,
        *,
        drop_rate: float = 0.0,
        duplicate_rate: float = 0.0,
        delay_rate: float = 0.0,
        delay_alphas: float = 16.0,
        reorder_rate: float = 0.0,
        crashes: tuple[CrashEvent, ...] = (),
        crash_at_time: tuple[TimedCrash, ...] = (),
        stragglers: Mapping[int, float] | None = None,
    ):
        for name, rate in (
            ("drop_rate", drop_rate),
            ("duplicate_rate", duplicate_rate),
            ("delay_rate", delay_rate),
            ("reorder_rate", reorder_rate),
        ):
            if not (0.0 <= rate < 1.0):
                raise ValueError(f"{name} must be in [0, 1), got {rate}")
        if delay_alphas < 0:
            raise ValueError("delay_alphas must be non-negative")
        stragglers = dict(stragglers or {})
        if any(f < 1.0 for f in stragglers.values()):
            raise ValueError("straggler slowdown factors must be >= 1")
        self.seed = int(seed)
        self.drop_rate = float(drop_rate)
        self.duplicate_rate = float(duplicate_rate)
        self.delay_rate = float(delay_rate)
        self.delay_alphas = float(delay_alphas)
        self.reorder_rate = float(reorder_rate)
        self.crashes = tuple(crashes)
        self.crash_at_time = tuple(crash_at_time)
        self.stragglers = stragglers
        self.reset()

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    def reset(self) -> None:
        """Rewind the decision RNG and re-arm all crash events."""
        self._rng = np.random.default_rng(self.seed)
        self._fired: set[int] = set()
        self._fired_timed: set[int] = set()

    # ------------------------------------------------------------------
    # Introspection
    # ------------------------------------------------------------------
    @property
    def any_crashes(self) -> bool:
        """Whether the plan schedules any crash (event- or time-keyed)."""
        return bool(self.crashes) or bool(self.crash_at_time)

    @property
    def any_message_faults(self) -> bool:
        """Whether any wire-level fault class has a non-zero rate."""
        return (
            self.drop_rate > 0
            or self.duplicate_rate > 0
            or self.delay_rate > 0
            or self.reorder_rate > 0
        )

    def to_dict(self) -> dict[str, Any]:
        """Declarative form (JSON-ready) for CLIs and reports."""
        return {
            "seed": self.seed,
            "drop_rate": self.drop_rate,
            "duplicate_rate": self.duplicate_rate,
            "delay_rate": self.delay_rate,
            "delay_alphas": self.delay_alphas,
            "reorder_rate": self.reorder_rate,
            "crashes": [(c.rank, c.at_event) for c in self.crashes],
            "crash_at_time": [(c.rank, c.at_time) for c in self.crash_at_time],
            "stragglers": dict(self.stragglers),
        }

    @classmethod
    def from_dict(cls, spec: Mapping[str, Any]) -> "FaultPlan":
        """Inverse of :meth:`to_dict`."""
        spec = dict(spec)
        crashes = tuple(
            CrashEvent(rank=int(r), at_event=int(e))
            for r, e in spec.pop("crashes", ())
        )
        timed = tuple(
            TimedCrash(rank=int(r), at_time=float(t))
            for r, t in spec.pop("crash_at_time", ())
        )
        seed = int(spec.pop("seed", 0))
        return cls(seed, crashes=crashes, crash_at_time=timed, **spec)

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"FaultPlan(seed={self.seed}, drop={self.drop_rate}, "
            f"dup={self.duplicate_rate}, delay={self.delay_rate}, "
            f"reorder={self.reorder_rate}, crashes={len(self.crashes)}, "
            f"timed_crashes={len(self.crash_at_time)}, "
            f"stragglers={len(self.stragglers)})"
        )

    # ------------------------------------------------------------------
    # Decisions (consumed by the machine in deterministic event order)
    # ------------------------------------------------------------------
    def should_drop(self) -> bool:
        """Decide whether the next wire transmission is lost."""
        return self.drop_rate > 0 and self._rng.random() < self.drop_rate

    def should_duplicate(self) -> bool:
        """Decide whether the next delivery arrives twice."""
        return self.duplicate_rate > 0 and self._rng.random() < self.duplicate_rate

    def should_reorder(self) -> bool:
        """Decide whether the next delivery jumps its tag queue."""
        return self.reorder_rate > 0 and self._rng.random() < self.reorder_rate

    def delay_seconds(self, alpha: float) -> float:
        """Extra wire latency for the next delivery (0.0 if undelayed)."""
        if self.delay_rate <= 0 or self._rng.random() >= self.delay_rate:
            return 0.0
        # Mean ``delay_alphas * alpha``, spread uniformly over [0.5x, 1.5x].
        return self.delay_alphas * alpha * (0.5 + self._rng.random())

    def slowdown(self, rank: int) -> float:
        """Straggler factor of ``rank`` (1.0 for healthy PEs)."""
        return self.stragglers.get(rank, 1.0)

    def crash_due(self, rank: int, event_index: int) -> bool:
        """Fire (at most once) any crash scheduled for ``rank`` by now."""
        for i, crash in enumerate(self.crashes):
            if i in self._fired or crash.rank != rank:
                continue
            if event_index >= crash.at_event:
                self._fired.add(i)
                return True
        return False

    def claim_timed(self, index: int) -> bool:
        """Fire (at most once) the timed crash at ``index``.

        The engine schedules one timer event per entry of
        ``crash_at_time``; the first claim wins and later claims (from
        restart attempts that re-register timers) are rejected, so a
        crash-stopped PE does not crash again after recovery.
        """
        if index in self._fired_timed:
            return False
        self._fired_timed.add(index)
        return True
