"""Whole-program function collection and interprocedural summaries.

SPMD programs on the simulated machine are plain Python, so the call
graph is resolved *by simple name*: a call ``f(...)`` or ``obj.f(...)``
reaches every analyzed function named ``f``.  Where several functions
share a name their summaries are merged conservatively (any-of), which
over-approximates reachability — the safe direction for the deadlock
and charge-coverage rules.

Three summaries are computed to a fixpoint over the call graph:

``has_collective``
    the function (transitively) enters a collective from
    :mod:`repro.net.comm` or a queue/router ``finalize``;
``charges``
    the function (transitively) feeds the alpha-beta cost model —
    ``ctx.charge`` / ``charge_time``, a message-bearing primitive
    (``send`` / ``post*`` / ``flush`` / ``reliable_send``), or a
    collective (which sends internally);
``returns_unordered``
    the function returns a ``set``/``dict`` (its iteration order is a
    hash artifact — rule R10 material when it feeds send destinations).
"""

from __future__ import annotations

import ast
from typing import Iterable

from ..rules import (
    COLLECTIVE_FUNCTIONS,
    _collective_name,
    _container_kind_of_value,
    _FunctionInfo,
    _walk_no_nested_functions,
)

__all__ = ["FunctionDecl", "CallGraph"]

#: Attribute calls that feed costs into the model (directly or by
#: sending): the queues' ``post_many``/``flush`` charge wire words when
#: they flush, and every ``ctx.send``/``send_many`` is charged by the
#: machine itself.
_CHARGE_ATTRS = frozenset({"charge", "charge_time", "send", "send_many", "post_many", "flush"})
_CHARGE_NAMES = frozenset({"reliable_send"})


def _callee_name(call: ast.Call) -> str | None:
    """The simple name a call resolves through, if any."""
    func = call.func
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


class FunctionDecl:
    """One analyzed function plus its local (non-transitive) facts."""

    __slots__ = (
        "path",
        "qualname",
        "name",
        "node",
        "info",
        "calls",
        "direct_collective",
        "direct_charge",
        "direct_unordered_return",
        "return_call_names",
    )

    def __init__(self, path: str, qualname: str, node: ast.FunctionDef | ast.AsyncFunctionDef):
        self.path = path
        self.qualname = qualname
        self.name = node.name
        self.node = node
        self.info = _FunctionInfo(node)
        self.calls: set[str] = set()
        self.direct_collective = False
        self.direct_charge = False
        self.return_call_names: set[str] = set()
        for n in _walk_no_nested_functions(node.body):
            if isinstance(n, ast.Call):
                callee = _callee_name(n)
                if callee is not None:
                    self.calls.add(callee)
                if _collective_name(n) is not None:
                    self.direct_collective = True
                    self.direct_charge = True
                func = n.func
                if isinstance(func, ast.Attribute) and func.attr in _CHARGE_ATTRS:
                    self.direct_charge = True
                if isinstance(func, ast.Name) and func.id in _CHARGE_NAMES:
                    self.direct_charge = True
        self.direct_unordered_return = False
        for n in _walk_no_nested_functions(node.body):
            if isinstance(n, ast.Return) and n.value is not None:
                value = n.value
                if _container_kind_of_value(value) is not None:
                    self.direct_unordered_return = True
                elif (
                    isinstance(value, ast.Name)
                    and self.info.container_kinds.get(value.id) is not None
                ):
                    self.direct_unordered_return = True
                elif isinstance(value, ast.Call):
                    callee = _callee_name(value)
                    if callee is not None:
                        self.return_call_names.add(callee)


def _collect(path: str, tree: ast.Module) -> list[FunctionDecl]:
    decls: list[FunctionDecl] = []

    def walk(node: ast.AST, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                qualname = f"{prefix}{child.name}" if prefix else child.name
                decls.append(FunctionDecl(path, qualname, child))
                walk(child, qualname + ".")
            elif isinstance(child, ast.ClassDef):
                walk(child, (prefix + child.name if prefix else child.name) + ".")
            else:
                walk(child, prefix)

    walk(tree, "")
    return decls


class CallGraph:
    """All functions of the analyzed module set, with fixpoint summaries."""

    def __init__(self, modules: Iterable[tuple[str, ast.Module]]):
        self.decls: list[FunctionDecl] = []
        for path, tree in modules:
            self.decls.extend(_collect(path, tree))
        self.by_name: dict[str, list[FunctionDecl]] = {}
        for decl in self.decls:
            self.by_name.setdefault(decl.name, []).append(decl)
        self._has_collective = self._fixpoint(
            seed=lambda d: d.direct_collective, via=lambda d: d.calls
        )
        # The comm-module collectives count even when their definitions
        # are outside the analyzed set (e.g. a lone snippet).
        for name in COLLECTIVE_FUNCTIONS:
            self._has_collective[name] = True
        self._has_collective["finalize"] = True
        self._charges = self._fixpoint(
            seed=lambda d: d.direct_charge, via=lambda d: d.calls
        )
        self._returns_unordered = self._fixpoint(
            seed=lambda d: d.direct_unordered_return, via=lambda d: d.return_call_names
        )

    def _fixpoint(self, *, seed, via) -> dict[str, bool]:
        flags = {name: any(seed(d) for d in decls) for name, decls in self.by_name.items()}
        changed = True
        while changed:
            changed = False
            for name, decls in self.by_name.items():
                if flags[name]:
                    continue
                if any(flags.get(c, False) for d in decls for c in via(d)):
                    flags[name] = True
                    changed = True
        return flags

    # -- summary queries (by simple callee name) -----------------------
    def has_collective(self, name: str) -> bool:
        """Calling ``name`` can enter a collective (transitively)."""
        return self._has_collective.get(name, False)

    def charges(self, name: str) -> bool:
        """Calling ``name`` feeds the cost model (transitively)."""
        return self._charges.get(name, False)

    def returns_unordered(self, name: str) -> bool:
        """Calling ``name`` returns a set/dict (transitively)."""
        return self._returns_unordered.get(name, False)
