"""AST rules enforcing the SPMD protocol contract (R1–R7, R13, R14).

The machine in :mod:`repro.net.machine` runs SPMD programs written as
generators; its correctness contract (``docs/SPMD_CONTRACT.md``) cannot
be expressed in the type system, so these rules check it syntactically:

R1
    A collective from :mod:`repro.net.comm` (or ``ctx.recv``, or a
    queue/router ``finalize``) is a *generator function*: calling it
    builds a generator, and only ``yield from`` drives it.  A call whose
    value is not consumed by ``yield from`` does nothing — no messages,
    no barrier, no error — which is the nastiest bug this architecture
    admits.
R2
    All PEs must enter the same collectives in the same order.  A
    collective lexically inside an ``if``/``while`` whose condition
    depends on the PE rank (or a ``for`` whose iterable does) is the
    canonical way to break that.
R3
    The machine guarantees deterministic runs.  Iterating a ``set`` (or
    a dict in hash-keyed idioms ported from C++) while sending messages
    makes the message order an artifact of hashing; iterate
    ``sorted(...)`` instead.
R4
    Cost-model and determinism hygiene inside SPMD code: every
    ``ctx.send`` must carry an explicit ``words`` cost, and SPMD code
    must not consult wall clocks or unseeded random generators.
R5
    A program decorated ``@fault_tolerant`` promises to survive the
    :mod:`repro.faults` fault model, which requires every hand-written
    point-to-point send to go through
    :func:`repro.net.reliable.reliable_send` (the aggregation queues
    and collectives already ride the machine's transport).  A direct
    ``ctx.send`` in such a program bypasses the runtime guard.
R6
    ``ctx.span(...)`` opens a timed region that the observability
    layer (:mod:`repro.obs`) attributes and merges across PEs.  Two
    things go wrong syntactically: calling it outside a
    ``with`` statement builds the context manager and never enters it
    (no span is recorded), and computing the label from rank-dependent
    state gives every PE a different span name, which breaks cross-PE
    merging and the phase profiler's buckets.  R6 therefore requires
    the call to be the context expression of a ``with`` item and its
    label to be a string literal.
R13
    Simulated time and engine state are owned by the machine: SPMD
    program code must go through the :class:`~repro.net.machine.PEContext`
    API (``ctx.charge`` / ``ctx.charge_time`` / ``ctx.send`` / spans)
    and never mutate time-keyed engine state directly.  Flagged are
    assignments (plain or augmented) in SPMD scope whose target is (a)
    a ``ctx`` internal — anything reached through ``ctx.metrics`` or a
    ``ctx._private`` attribute, e.g. ``ctx.metrics.clock += 5`` or
    ``ctx._inbox[tag] = ...`` — or (b) a time-keyed scheduler
    attribute (``clock``, ``send_time``, ``busy_until``) of any object,
    e.g. ``msg.send_time = 0.0``.  Such writes desynchronize the event
    engine's heap ordering from the per-PE clocks (a PE's pending
    resume event was scheduled at the *old* clock), so the run stops
    being a pure function of its inputs.
R14
    Localized recovery (``Machine(recovery="localized")``) restores a
    crashed rank from its *partner's* checkpoint replica, so it only
    works with a partner-replication-capable store and with restored
    state that still matches what the survivors replayed against.  Two
    shapes break this: (a) constructing
    ``Machine(..., recovery="localized",
    checkpoint_store=CheckpointStore(...))`` — a plain store has no
    replica to ship (the machine also rejects it at runtime; the rule
    catches it before any run); (b) inside a ``@fault_tolerant``
    program, mutating a name bound from ``ctx.restore(...)`` (an
    ``.append``/``.update``/item write) with no ``ctx.checkpoint``
    afterwards — after an in-place respawn the partner replica would
    resurrect the *pre-mutation* state while survivors replay messages
    computed from the mutated one.
R7
    The message hot path must stay vectorized: unpacking numpy arrays
    element-wise (``.tolist()``, ``zip(a.tolist(), ...)``,
    ``range(len(a))``, ``range(a.size)``) just to call ``post_many``
    once per element rebuilds in Python what one ``post_many`` call of
    the whole batch's CSR slot references does with packed
    :class:`~repro.net.frames.RecordFrame` arrays — same contents, same
    words charge, a fraction of the interpreter overhead.  A
    ``.post_many`` call inside such a loop is flagged.

The rules are heuristic by design (no type inference); suppress a
deliberate violation with ``# noqa: R<n>`` on the offending line.
"""

from __future__ import annotations

import ast

from .findings import Finding

__all__ = ["check_module"]

#: Generator-function collectives of :mod:`repro.net.comm`.
COLLECTIVE_FUNCTIONS = frozenset(
    {
        "barrier",
        "reduce_to_root",
        "bcast",
        "allreduce",
        "alltoallv_dense",
        "sparse_alltoall",
    }
)

#: Generator methods that are collective: ``BufferedMessageQueue.finalize``
#: and ``GridRouter.finalize`` (both must be entered by every PE).
COLLECTIVE_METHODS = frozenset({"finalize"})

#: ``time`` / ``datetime`` attributes that read the wall clock.
WALL_CLOCK = {
    "time": {"time", "perf_counter", "perf_counter_ns", "monotonic", "process_time"},
    "datetime": {"now", "utcnow", "today"},
}

#: ``random`` module functions drawing from the (unseeded) global state.
UNSEEDED_RANDOM = frozenset(
    {
        "random",
        "randint",
        "randrange",
        "choice",
        "choices",
        "shuffle",
        "sample",
        "uniform",
        "gauss",
        "betavariate",
        "expovariate",
    }
)

#: ``np.random`` legacy functions using the global ``RandomState``.
NP_GLOBAL_RANDOM = frozenset(
    {
        "rand",
        "randn",
        "randint",
        "random",
        "random_sample",
        "choice",
        "shuffle",
        "permutation",
        "uniform",
        "normal",
        "seed",
    }
)


#: Attributes that key the event engine's time ordering (R13): writing
#: them from program code desynchronizes the scheduler's heap from the
#: simulated clocks.
TIME_KEYED_ATTRS = frozenset({"clock", "send_time", "busy_until"})

#: Container methods that mutate their receiver in place (R14b).
MUTATING_METHODS = frozenset(
    {
        "append",
        "extend",
        "insert",
        "add",
        "update",
        "remove",
        "discard",
        "pop",
        "popitem",
        "clear",
        "setdefault",
        "sort",
        "reverse",
    }
)


def _is_ctx_expr(node: ast.AST) -> bool:
    """``ctx`` or ``<anything>.ctx`` — the conventional PEContext handle."""
    if isinstance(node, ast.Name):
        return node.id == "ctx"
    return isinstance(node, ast.Attribute) and node.attr == "ctx"


def _collective_name(call: ast.Call) -> str | None:
    """The collective's name if ``call`` invokes one, else ``None``."""
    func = call.func
    if isinstance(func, ast.Name) and func.id in COLLECTIVE_FUNCTIONS:
        return func.id
    if isinstance(func, ast.Attribute):
        if func.attr in COLLECTIVE_FUNCTIONS:
            return func.attr
        if func.attr in COLLECTIVE_METHODS:
            return func.attr
    return None


def _is_ctx_recv(call: ast.Call) -> bool:
    func = call.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == "recv"
        and _is_ctx_expr(func.value)
    )


def _is_send_call(call: ast.Call) -> bool:
    return isinstance(call.func, ast.Attribute) and call.func.attr in ("send", "send_many")


def _array_derived_iter(expr: ast.AST) -> bool:
    """True for iterables that unpack numpy arrays element by element.

    Recognized shapes (R7): ``x.tolist()``, ``range(len(x))`` /
    ``range(x.size)`` / ``range(x.shape[0])``, and ``zip`` /
    ``enumerate`` / ``list`` / ``tuple`` / ``reversed`` wrapping any of
    those.
    """
    if not isinstance(expr, ast.Call):
        return False
    func = expr.func
    if isinstance(func, ast.Attribute) and func.attr == "tolist":
        return True
    if isinstance(func, ast.Name):
        if func.id == "range" and expr.args:
            bound = expr.args[-1] if len(expr.args) == 1 else expr.args[1]
            if (
                isinstance(bound, ast.Call)
                and isinstance(bound.func, ast.Name)
                and bound.func.id == "len"
            ):
                return True
            for n in ast.walk(bound):
                if isinstance(n, ast.Attribute) and n.attr in ("size", "shape"):
                    return True
        if func.id in ("zip", "enumerate", "list", "tuple", "reversed"):
            return any(_array_derived_iter(a) for a in expr.args)
    return False


def _walk_no_nested_functions(nodes):
    """Yield nodes of the given statements without entering nested defs."""
    stack = list(nodes)
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            continue
        stack.extend(ast.iter_child_nodes(node))


class _FunctionInfo:
    """Per-function facts the rules share."""

    def __init__(self, fn: ast.FunctionDef | ast.AsyncFunctionDef):
        self.node = fn
        args = fn.args
        all_args = [*args.posonlyargs, *args.args, *args.kwonlyargs]
        has_ctx_param = any(
            a.arg == "ctx"
            or (
                a.annotation is not None
                and "PEContext" in ast.dump(a.annotation)
            )
            for a in all_args
        )
        body_nodes = list(_walk_no_nested_functions(fn.body))
        touches_ctx = any(
            (isinstance(n, ast.Attribute) and _is_ctx_expr(n.value))
            or (isinstance(n, ast.Name) and n.id == "ctx")
            for n in body_nodes
        )
        #: SPMD scope: the function handles a PEContext (R4 applies).
        self.is_spmd = has_ctx_param or touches_ctx
        #: Marked ``@fault_tolerant`` (R5 applies to its direct sends).
        self.is_fault_tolerant = any(
            (isinstance(d, ast.Name) and d.id == "fault_tolerant")
            or (isinstance(d, ast.Attribute) and d.attr == "fault_tolerant")
            for d in fn.decorator_list
        )
        #: Local names aliasing ``ctx.rank`` (``rank = ctx.rank``).
        self.rank_aliases: set[str] = {"rank"}
        for n in body_nodes:
            if isinstance(n, ast.Assign) and isinstance(n.value, ast.Attribute):
                if n.value.attr == "rank":
                    for t in n.targets:
                        if isinstance(t, ast.Name):
                            self.rank_aliases.add(t.id)
        #: Local names bound to set/dict constructors (R3 inference).
        self.container_kinds: dict[str, str] = {}
        for n in body_nodes:
            if isinstance(n, ast.Assign) and len(n.targets) == 1:
                t = n.targets[0]
                if isinstance(t, ast.Name):
                    kind = _container_kind_of_value(n.value)
                    if kind is not None:
                        self.container_kinds[t.id] = kind
                    else:
                        self.container_kinds.pop(t.id, None)


def _container_kind_of_value(node: ast.AST) -> str | None:
    """Classify an expression as building a ``set``/``dict``, if obvious."""
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "set"
    if isinstance(node, (ast.Dict, ast.DictComp)):
        return "dict"
    if isinstance(node, ast.Call) and isinstance(node.func, ast.Name):
        if node.func.id in ("set", "frozenset"):
            return "set"
        if node.func.id == "dict":
            return "dict"
    return None


class _Checker(ast.NodeVisitor):
    def __init__(self, path: str):
        self.path = path
        self.findings: list[Finding] = []
        self._fn_stack: list[_FunctionInfo] = []
        #: Lines of ``test`` expressions of enclosing rank-dependent regions.
        self._rank_regions: list[int] = []

    # -- plumbing ------------------------------------------------------
    def _emit(self, node: ast.AST, code: str, message: str) -> None:
        self.findings.append(
            Finding(
                path=self.path,
                line=getattr(node, "lineno", 1),
                col=getattr(node, "col_offset", 0) + 1,
                code=code,
                message=message,
            )
        )

    @property
    def _fn(self) -> _FunctionInfo | None:
        return self._fn_stack[-1] if self._fn_stack else None

    def _mentions_rank(self, expr: ast.AST) -> bool:
        aliases = self._fn.rank_aliases if self._fn else {"rank"}
        for n in ast.walk(expr):
            if isinstance(n, ast.Attribute) and n.attr == "rank":
                return True
            if isinstance(n, ast.Name) and n.id in aliases:
                return True
        return False

    # -- scopes --------------------------------------------------------
    def visit_FunctionDef(self, node: ast.FunctionDef) -> None:
        self._visit_function(node)

    def visit_AsyncFunctionDef(self, node: ast.AsyncFunctionDef) -> None:
        self._visit_function(node)

    def _visit_function(self, node) -> None:
        self._fn_stack.append(_FunctionInfo(node))
        saved_regions = self._rank_regions
        self._rank_regions = []
        self._check_r14_restored_mutations(self._fn_stack[-1])
        self.generic_visit(node)
        self._rank_regions = saved_regions
        self._fn_stack.pop()

    # -- R2 regions ----------------------------------------------------
    def visit_If(self, node: ast.If) -> None:
        self._visit_rank_region(node, node.test)

    def visit_While(self, node: ast.While) -> None:
        self._visit_rank_region(node, node.test)

    def _visit_rank_region(self, node, test: ast.AST) -> None:
        self.visit(test)
        dependent = self._mentions_rank(test)
        if dependent:
            self._rank_regions.append(test.lineno)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        if dependent:
            self._rank_regions.pop()

    # -- R3 + rank-dependent for loops ---------------------------------
    def visit_For(self, node: ast.For) -> None:
        kind = self._unordered_iter_kind(node.iter)
        if kind is not None and self._loop_body_sends(node.body):
            self._emit(
                node,
                "R3",
                f"loop over a {kind} sends messages — message order follows "
                f"{kind} iteration order, not the program; iterate "
                f"sorted(...) instead",
            )
        if (
            self._fn is not None
            and self._fn.is_spmd
            and _array_derived_iter(node.iter)
        ):
            self._check_r7(node)
        self.visit(node.iter)
        self.visit(node.target)
        dependent = self._mentions_rank(node.iter)
        if dependent:
            self._rank_regions.append(node.iter.lineno)
        for stmt in node.body:
            self.visit(stmt)
        for stmt in node.orelse:
            self.visit(stmt)
        if dependent:
            self._rank_regions.pop()

    def _unordered_iter_kind(self, expr: ast.AST) -> str | None:
        kind = _container_kind_of_value(expr)
        if kind is not None:
            return kind
        if isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Name):
                if func.id == "sorted":
                    return None  # explicitly ordered
                if func.id in ("list", "tuple", "reversed", "enumerate") and expr.args:
                    return self._unordered_iter_kind(expr.args[0])
            if isinstance(func, ast.Attribute) and func.attr in (
                "keys",
                "values",
                "items",
            ):
                return "dict"
        if isinstance(expr, ast.Name) and self._fn is not None:
            return self._fn.container_kinds.get(expr.id)
        return None

    def _loop_body_sends(self, body) -> bool:
        for n in _walk_no_nested_functions(body):
            if isinstance(n, ast.Call) and _is_send_call(n):
                return True
        return False

    # -- R7: per-element posting over unpacked arrays --------------------
    def _check_r7(self, loop: ast.For) -> None:
        for n in _walk_no_nested_functions(loop.body):
            if not (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "post_many"
            ):
                continue
            if getattr(n, "_repro_r7", False):
                continue  # already reported under an enclosing loop
            n._repro_r7 = True  # type: ignore[attr-defined]
            self._emit(
                n,
                "R7",
                "'.post_many(...)' in a Python loop over unpacked arrays — "
                "post the whole batch's CSR slots with one "
                "'post_many(dest_ranks, vertices, targets, slots, xadj, "
                "adj)' call instead (identical contents and words charge)",
            )

    # -- R13: direct mutation of engine state from SPMD code -------------
    def visit_Assign(self, node: ast.Assign) -> None:
        for target in node.targets:
            self._check_r13(target)
        self.generic_visit(node)

    def visit_AugAssign(self, node: ast.AugAssign) -> None:
        self._check_r13(node.target)
        self.generic_visit(node)

    @staticmethod
    def _attr_chain(target: ast.AST) -> tuple[str, list[str]] | None:
        """``(root, attrs)`` of a dotted/subscripted assignment target."""
        attrs: list[str] = []
        node = target
        while True:
            if isinstance(node, ast.Subscript):
                node = node.value
            elif isinstance(node, ast.Attribute):
                attrs.append(node.attr)
                node = node.value
            elif isinstance(node, ast.Name):
                attrs.reverse()
                return node.id, attrs
            else:
                return None

    def _check_r13(self, target: ast.AST) -> None:
        if self._fn is None or not self._fn.is_spmd:
            return
        chain = self._attr_chain(target)
        if chain is None or not chain[1]:
            return
        root, attrs = chain
        # (a) ctx internals: anything assigned through ctx.metrics or a
        # ctx._private attribute (also via a stored handle like self.ctx).
        through_ctx = attrs if root == "ctx" else (
            attrs[attrs.index("ctx") + 1 :] if "ctx" in attrs else None
        )
        if through_ctx and any(a == "metrics" or a.startswith("_") for a in through_ctx):
            self._emit(
                target,
                "R13",
                f"direct mutation of engine state "
                f"'{root}.{'.'.join(attrs)}' in SPMD code — program code "
                f"must account time and state through the PEContext API "
                f"(ctx.charge / ctx.charge_time / ctx.send), never by "
                f"writing machine internals",
            )
            return
        # (b) time-keyed scheduler attributes on any object.  ``self``
        # is exempt: a class mutating its own ``clock`` field is
        # modelling its own state, not the machine's.
        if root != "self" and attrs[-1] in TIME_KEYED_ATTRS:
            self._emit(
                target,
                "R13",
                f"assignment to time-keyed attribute "
                f"'{root}.{'.'.join(attrs)}' in SPMD code — simulated "
                f"time is owned by the event engine; advancing or "
                f"rewinding it directly desynchronizes the scheduler "
                f"(use ctx.charge_time for modelled delays)",
            )

    # -- R14: localized recovery misuse ----------------------------------
    @staticmethod
    def _callee_name(call: ast.Call) -> str | None:
        func = call.func
        if isinstance(func, ast.Name):
            return func.id
        if isinstance(func, ast.Attribute):
            return func.attr
        return None

    def _check_r14_machine(self, node: ast.Call) -> None:
        """R14a: ``Machine(recovery='localized')`` with a plain store."""
        if self._callee_name(node) != "Machine":
            return
        kwargs = {kw.arg: kw.value for kw in node.keywords if kw.arg}
        mode = kwargs.get("recovery")
        if not (isinstance(mode, ast.Constant) and mode.value == "localized"):
            return
        store = kwargs.get("checkpoint_store")
        if (
            isinstance(store, ast.Call)
            and self._callee_name(store) == "CheckpointStore"
        ):
            self._emit(
                node,
                "R14",
                "Machine(recovery='localized') built with a plain "
                "CheckpointStore — localized recovery restores a crashed "
                "rank from its partner's replica, which a stable-storage "
                "store never ships; use BuddyCheckpointStore (or omit "
                "checkpoint_store to get one)",
            )

    def _check_r14_restored_mutations(self, info: _FunctionInfo) -> None:
        """R14b: restored state mutated with no later re-checkpoint.

        Only ``@fault_tolerant`` programs are policed: they are the ones
        localized recovery respawns from partner replicas, where a
        mutation the replica never saw resurrects pre-mutation state
        while survivors replay messages computed from the mutated one.
        """
        if not info.is_fault_tolerant:
            return
        body_nodes = list(_walk_no_nested_functions(info.node.body))
        restored: dict[str, int] = {}
        for n in body_nodes:
            if (
                isinstance(n, ast.Assign)
                and isinstance(n.value, ast.Call)
                and isinstance(n.value.func, ast.Attribute)
                and n.value.func.attr == "restore"
                and _is_ctx_expr(n.value.func.value)
            ):
                for t in n.targets:
                    if isinstance(t, ast.Name):
                        restored[t.id] = n.lineno
        if not restored:
            return
        last_checkpoint = max(
            (
                n.lineno
                for n in body_nodes
                if isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr == "checkpoint"
                and _is_ctx_expr(n.func.value)
            ),
            default=-1,
        )

        def flag(name: str, node: ast.AST, how: str) -> None:
            if node.lineno <= restored[name]:
                return
            if node.lineno < last_checkpoint:
                return  # a later ctx.checkpoint refreshes the replica
            self._emit(
                node,
                "R14",
                f"{how} mutates '{name}' (bound from ctx.restore) with no "
                f"ctx.checkpoint afterwards — after an in-place respawn "
                f"the partner replica restores the pre-mutation state "
                f"while survivors replay against the mutated one; "
                f"re-checkpoint after the mutation",
            )

        for n in body_nodes:
            if (
                isinstance(n, ast.Call)
                and isinstance(n.func, ast.Attribute)
                and n.func.attr in MUTATING_METHODS
                and isinstance(n.func.value, ast.Name)
                and n.func.value.id in restored
            ):
                flag(n.func.value.id, n, f"'.{n.func.attr}(...)'")
            elif isinstance(n, (ast.Assign, ast.AugAssign)):
                targets = n.targets if isinstance(n, ast.Assign) else [n.target]
                for t in targets:
                    chain = self._attr_chain(t)
                    if chain is None or chain[0] not in restored:
                        continue
                    # A bare-name Assign rebinds; everything else —
                    # item/attribute writes, augmented assignment —
                    # mutates the restored object in place.
                    if isinstance(n, ast.Assign) and isinstance(t, ast.Name):
                        continue
                    flag(chain[0], t, "item/attribute write")

    # -- R1 / R2 / R4 at call sites ------------------------------------
    def visit_Call(self, node: ast.Call) -> None:
        name = _collective_name(node)
        is_recv = _is_ctx_recv(node)
        if (name is not None or is_recv) and not isinstance(
            getattr(node, "_repro_parent", None), ast.YieldFrom
        ):
            what = name if name is not None else "ctx.recv"
            self._emit(
                node,
                "R1",
                f"'{what}(...)' is a generator: without 'yield from' it is "
                f"created and dropped and the operation never runs",
            )
        if name is not None and self._rank_regions:
            self._emit(
                node,
                "R2",
                f"collective '{name}' inside rank-dependent control flow "
                f"(condition at line {self._rank_regions[-1]}) — PEs may "
                f"enter collectives in diverging order",
            )
        if self._fn is not None and self._fn.is_spmd:
            self._check_r4(node)
        self._check_r6(node)
        self._check_r14_machine(node)
        if (
            self._fn is not None
            and self._fn.is_fault_tolerant
            and _is_send_call(node)
            and _is_ctx_expr(node.func.value)
        ):
            self._emit(
                node,
                "R5",
                "direct ctx.send(...) inside a @fault_tolerant program — "
                "use reliable_send(ctx, ...) so the reliable transport can "
                "sequence and retransmit the message",
            )
        self.generic_visit(node)

    def _check_r6(self, node: ast.Call) -> None:
        func = node.func
        if not (
            isinstance(func, ast.Attribute)
            and func.attr == "span"
            and _is_ctx_expr(func.value)
        ):
            return
        what = "ctx.span"
        parent = getattr(node, "_repro_parent", None)
        entered = isinstance(parent, ast.withitem) and parent.context_expr is node
        if not entered:
            self._emit(
                node,
                "R6",
                f"'{what}(...)' outside a 'with' statement — the span context "
                f"manager is built but never entered, so no time is recorded; "
                f"write 'with {what}(...):'",
            )
        label: ast.AST | None = node.args[0] if node.args else None
        if label is None:
            for kw in node.keywords:
                if kw.arg == "name":
                    label = kw.value
        if label is not None and not (
            isinstance(label, ast.Constant) and isinstance(label.value, str)
        ):
            self._emit(
                node,
                "R6",
                f"'{what}(...)' label must be a string literal — computed or "
                f"rank-dependent labels give PEs diverging span names, which "
                f"breaks cross-PE merging and phase-profile buckets",
            )

    def _check_r4(self, node: ast.Call) -> None:
        func = node.func
        if (
            _is_send_call(node)
            and _is_ctx_expr(func.value)
            and not any(isinstance(a, ast.Starred) for a in node.args)
        ):
            has_words = len(node.args) >= 4 or any(
                kw.arg == "words" for kw in node.keywords
            )
            if not has_words:
                self._emit(
                    node,
                    "R4",
                    "ctx.send(...) without an explicit 'words' cost argument "
                    "— every message must be charged to the alpha-beta model",
                )
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            mod, attr = func.value.id, func.attr
            if attr in WALL_CLOCK.get(mod, ()):
                self._emit(
                    node,
                    "R4",
                    f"wall-clock call '{mod}.{attr}()' in SPMD code — "
                    f"simulated time must come from the machine's cost model",
                )
            if mod == "random" and attr in UNSEEDED_RANDOM:
                self._emit(
                    node,
                    "R4",
                    f"unseeded 'random.{attr}()' in SPMD code breaks run "
                    f"determinism; use numpy.random.default_rng(seed)",
                )
        if (
            isinstance(func, ast.Attribute)
            and isinstance(func.value, ast.Attribute)
            and func.value.attr == "random"
            and isinstance(func.value.value, ast.Name)
            and func.value.value.id in ("np", "numpy")
            and func.attr in NP_GLOBAL_RANDOM
        ):
            self._emit(
                node,
                "R4",
                f"global-state 'np.random.{func.attr}(...)' in SPMD code "
                f"breaks run determinism; use numpy.random.default_rng(seed)",
            )


def check_module(tree: ast.Module, path: str) -> list[Finding]:
    """Run every rule over a parsed module; returns unsuppressed findings."""
    for parent in ast.walk(tree):
        for child in ast.iter_child_nodes(parent):
            child._repro_parent = parent  # type: ignore[attr-defined]
    checker = _Checker(path)
    checker.visit(tree)
    return sorted(checker.findings)
