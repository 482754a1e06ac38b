"""Static SPMD protocol linter for programs on the simulated machine.

The machine's programming contract — collectives driven with ``yield
from``, identical collective order on every PE, deterministic message
order, explicit message costs, vectorized message hot paths — is
unchecked by Python itself; this package enforces it with AST analysis:
the per-module lexical rules R1–R7, R13 and R14 plus the
whole-program dataflow rules R8–R12 (static deadlock, rank taint,
charge coverage, checkpoint consistency — see
``docs/STATIC_ANALYSIS.md``).  All rules are
catalogued in :data:`~repro.lint.findings.RULES` and documented with
examples in ``docs/SPMD_CONTRACT.md``.

Run it as ``python -m repro.lint src`` or ``repro-tc lint``; its runtime
sibling is ``Machine(..., protocol_check=True)``.
"""

from .findings import FLOW_CODES, Finding, RULES
from .runner import lint_file, lint_paths, lint_source

__all__ = ["Finding", "FLOW_CODES", "RULES", "lint_file", "lint_paths", "lint_source"]
