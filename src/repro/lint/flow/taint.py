"""Rank-taint inference and the unordered-destination rule (R10).

A value is *rank-tainted* when it can differ across PEs running the
same program: anything derived from ``ctx.rank``, from received
messages (``recv`` / ``try_recv`` / ``recv_many`` / ``drain`` / a
queue ``finalize``), from checkpoint replay (``ctx.restore`` — present
on the recovering PE, ``None`` elsewhere mid-crash), or transitively
from those through arithmetic, indexing, calls, and loop targets.

Two deliberate *sanitizers* keep the analysis useful on real programs:

* the results of ``allreduce(...)`` and ``bcast(...)`` are clean —
  they are rank-invariant by construction (every PE gets the same
  value), which is exactly how convergence loops (k-core, connected
  components) legitimately branch on data;
* function parameters are clean — SPMD programs receive the same
  configuration on every PE.  A parameter that genuinely varies by
  rank (the partition view) re-taints as soon as it is combined with
  ``ctx.rank``, which is how such views are obtained.

``ctx.num_pes`` is clean (same on every PE); ``ctx.rank`` is the root
source.
"""

from __future__ import annotations

import ast

from ..findings import Finding
from ..rules import (
    _container_kind_of_value,
    _FunctionInfo,
    _walk_no_nested_functions,
)
from .callgraph import CallGraph, _callee_name

__all__ = [
    "function_taint",
    "expr_tainted",
    "mentions_rank",
    "check_unordered_destinations",
]

#: Method calls whose result is received data (rank-local by nature).
_SOURCE_ATTRS = frozenset({"recv", "try_recv", "recv_many", "restore", "pending", "finalize"})
#: Free functions whose result is received data.
_SOURCE_NAMES = frozenset({"drain"})
#: Collectives whose *result* is rank-invariant (same value on all PEs).
_SANITIZER_NAMES = frozenset({"allreduce", "bcast"})
#: ``ctx`` attributes that are identical on every PE.
_CLEAN_CTX_ATTRS = frozenset({"num_pes"})


def expr_tainted(expr: ast.AST, tainted: set[str]) -> bool:
    """Whether ``expr`` can evaluate to a rank-dependent value."""
    if isinstance(expr, ast.Name):
        return expr.id in tainted
    if isinstance(expr, ast.Attribute):
        if expr.attr == "rank":
            return True
        if expr.attr in _CLEAN_CTX_ATTRS:
            return False
        return expr_tainted(expr.value, tainted)
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name):
            if func.id in _SANITIZER_NAMES:
                return False
            if func.id in _SOURCE_NAMES:
                return True
        if isinstance(func, ast.Attribute):
            if func.attr in _SANITIZER_NAMES:
                return False
            if func.attr in _SOURCE_ATTRS:
                return True
            if expr_tainted(func.value, tainted):
                return True
        return any(
            expr_tainted(a, tainted) for a in expr.args
        ) or any(expr_tainted(kw.value, tainted) for kw in expr.keywords)
    if isinstance(expr, (ast.Constant, ast.Lambda)):
        return False
    return any(expr_tainted(child, tainted) for child in ast.iter_child_nodes(expr))


def _target_names(target: ast.AST) -> list[str]:
    names: list[str] = []
    for n in ast.walk(target):
        if isinstance(n, ast.Name):
            names.append(n.id)
    return names


def function_taint(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> set[str]:
    """Fixpoint set of local names holding rank-dependent values."""
    tainted: set[str] = set()
    body = fn.body
    for _ in range(10):  # assignments form chains, not deep recursions
        before = len(tainted)
        for n in _walk_no_nested_functions(body):
            if isinstance(n, ast.Assign):
                if expr_tainted(n.value, tainted):
                    for t in n.targets:
                        tainted.update(_target_names(t))
            elif isinstance(n, (ast.AugAssign, ast.AnnAssign)):
                if n.value is not None and expr_tainted(n.value, tainted):
                    tainted.update(_target_names(n.target))
            elif isinstance(n, ast.NamedExpr):
                if expr_tainted(n.value, tainted):
                    tainted.add(n.target.id)
            elif isinstance(n, ast.For):
                if expr_tainted(n.iter, tainted):
                    tainted.update(_target_names(n.target))
            elif isinstance(n, (ast.With, ast.AsyncWith)):
                for item in n.items:
                    if item.optional_vars is not None and expr_tainted(
                        item.context_expr, tainted
                    ):
                        tainted.update(_target_names(item.optional_vars))
        if len(tainted) == before:
            break
    return tainted


def mentions_rank(expr: ast.AST, rank_aliases: set[str]) -> bool:
    """Lexically rank-dependent (what rule R2 already sees)."""
    for n in ast.walk(expr):
        if isinstance(n, ast.Attribute) and n.attr == "rank":
            return True
        if isinstance(n, ast.Name) and n.id in rank_aliases:
            return True
    return False


# -- R10: unordered iteration feeding message destinations -------------

_SEND_ATTRS = frozenset({"send", "send_many", "post_many"})


def _body_sends(body: list[ast.stmt]) -> bool:
    for n in _walk_no_nested_functions(body):
        if (
            isinstance(n, ast.Call)
            and isinstance(n.func, ast.Attribute)
            and n.func.attr in _SEND_ATTRS
        ):
            return True
    return False


def _lexically_unordered(expr: ast.AST, info: _FunctionInfo) -> bool:
    """The shapes rule R3 already flags — R10 defers to it."""
    if _container_kind_of_value(expr) is not None:
        return True
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("list", "tuple", "reversed", "enumerate"):
            return bool(expr.args) and _lexically_unordered(expr.args[0], info)
        if isinstance(func, ast.Attribute) and func.attr in ("keys", "values", "items"):
            return True
    if isinstance(expr, ast.Name):
        return info.container_kinds.get(expr.id) is not None
    return False


def _resolved_unordered(
    expr: ast.AST,
    env: dict[str, ast.AST],
    cg: CallGraph,
    depth: int = 0,
    seen: frozenset[str] = frozenset(),
) -> str | None:
    """Trace ``expr`` through aliases/callees to a set/dict, if it leads
    there; returns a human-readable description of the chain's end."""
    if depth > 6:
        return None
    kind = _container_kind_of_value(expr)
    if kind is not None:
        return kind
    if isinstance(expr, ast.Name):
        if expr.id in seen or expr.id not in env:
            return None
        inner = _resolved_unordered(
            env[expr.id], env, cg, depth + 1, seen | {expr.id}
        )
        return inner
    if isinstance(expr, ast.Call):
        func = expr.func
        if isinstance(func, ast.Name) and func.id in ("sorted",):
            return None  # explicitly ordered
        callee = _callee_name(expr)
        if callee is not None and cg.returns_unordered(callee):
            return f"set/dict returned by '{callee}()'"
    return None


def check_unordered_destinations(
    fn: ast.FunctionDef | ast.AsyncFunctionDef,
    info: _FunctionInfo,
    cg: CallGraph,
    path: str,
) -> list[Finding]:
    """R10: send/post destinations drawn from unordered iteration that
    R3's single-hop lexical tracking cannot see."""
    findings: list[Finding] = []
    env: dict[str, ast.AST] = {}
    for n in _walk_no_nested_functions(fn.body):
        if isinstance(n, ast.Assign) and len(n.targets) == 1:
            t = n.targets[0]
            if isinstance(t, ast.Name):
                env[t.id] = n.value
    for n in _walk_no_nested_functions(fn.body):
        if not isinstance(n, ast.For) or not _body_sends(n.body):
            continue
        if _lexically_unordered(n.iter, info):
            continue  # R3 reports this one
        what = _resolved_unordered(n.iter, env, cg)
        if what is not None:
            findings.append(
                Finding(
                    path=path,
                    line=n.lineno,
                    col=n.col_offset + 1,
                    code="R10",
                    message=(
                        f"message destinations iterate a {what} — iteration "
                        f"order is a hash artifact, so message order differs "
                        f"across runs; iterate sorted(...) instead"
                    ),
                )
            )
    return findings
