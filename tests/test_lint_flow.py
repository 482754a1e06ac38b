"""The whole-program dataflow rules R8–R12: corpus, internals, plumbing.

Mirrors ``test_lint.py``'s discipline for the interprocedural layer:
every known-bad snippet must trigger *exactly* its rule, every good
twin must be completely clean, and the machinery underneath — CFG
construction, taint inference, suppression-with-justification,
baselines, emitters — gets direct unit coverage.  A subprocess test
pins byte-identical output across hash seeds, which is what lets CI
diff the SARIF document.
"""

import ast
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from repro.lint import lint_paths, lint_source
from repro.lint.baseline import (
    apply_baseline,
    fingerprint,
    load_baseline,
    write_baseline,
)
from repro.lint.cli import main as lint_main
from repro.lint.emit import to_json, to_sarif
from repro.lint.flow.cfg import OVERFLOW, build_cfg, sequences
from repro.lint.flow.taint import expr_tainted, function_taint

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"


def codes_of(source: str) -> set[str]:
    return {f.code for f in lint_source(source)}


# --------------------------------------------------------------------
# Rule corpus: >= 2 positive and >= 2 negative snippets per rule.
# Each positive must fire exactly its own rule — a snippet that also
# trips a lexical rule would be testing the wrong layer.
# --------------------------------------------------------------------

BAD_FLOW = {
    "R8": [
        # Divergence through a callee: R2 cannot see that helper()
        # enters a collective, the call graph can.
        """
def helper(ctx):
    yield from allreduce(ctx, 1)

def prog(ctx):
    if ctx.rank == 0:
        yield from helper(ctx)
    yield from barrier(ctx)
""",
        # Rank-tainted loop condition around a collective body: trip
        # counts differ across PEs, so collective counts do too.
        """
def prog(ctx):
    go = yield from ctx.recv("probe")
    while go:
        yield from barrier(ctx)
        go = yield from ctx.recv("probe")
""",
    ],
    "R9": [
        # Guard never mentions rank lexically, but the condition is
        # received data and the arms enter different collectives.
        """
def prog(ctx):
    data = yield from ctx.recv("t")
    if data is None:
        yield from barrier(ctx)
    else:
        yield from bcast(ctx, 0)
""",
        # Taint through arithmetic: parity is derived from ctx.rank
        # but the guard itself is rank-free text.
        """
def prog(ctx):
    parity = ctx.rank % 2
    if parity == 0:
        yield from barrier(ctx)
    yield
""",
    ],
    "R10": [
        # Destinations iterate a set returned by a callee — R3's
        # single-hop lexical tracking cannot resolve the call.
        """
def targets(ctx):
    return {1, 2, 3}

def prog(ctx):
    for dest in targets(ctx):
        ctx.send(dest, "t", None, 1)
    yield
""",
        # Same, one assignment hop in between.
        """
def pick(ctx):
    return {0: "a", 1: "b"}

def prog(ctx):
    dests = pick(ctx)
    for dest in dests:
        ctx.send(dest, "t", None, 1)
    yield
""",
        # A queue post is a send too: its flushes follow the set order.
        """
def targets(ctx):
    return {1, 2, 3}

def prog(ctx, q, vertices, slots, xadj, adj):
    for dest in targets(ctx):
        q.post_many(np.full(slots.size, dest), vertices, vertices, slots, xadj, adj)
    yield
""",
    ],
    "R11": [
        # Vectorized compute with no route to the cost model.
        """
def prog(ctx, xs):
    acc = np.cumsum(xs)
    yield
    return acc
""",
        # Compute inside a loop, still never charged.
        """
def prog(ctx, chunks):
    out = []
    for c in chunks:
        out.append(np.unique(c))
    yield
    return out
""",
    ],
    "R12": [
        # Checkpoint without the restore-else-recompute guard.
        """
def prog(ctx, state):
    ctx.checkpoint("phase", state)
    yield
""",
        # Captured state mutated after the snapshot is taken.
        """
def prog(ctx, items):
    snap = ctx.restore("work")
    if snap is not None:
        items = snap
    ctx.checkpoint("work", items)
    items.append(1)
    yield
""",
        # Computed domain names defeat global-stability pruning.
        """
def prog(ctx, state, phase):
    ctx.checkpoint("ph" + phase, state)
    yield
""",
    ],
}

GOOD_FLOW = {
    "R8": [
        # Balanced diamond: the early-returning arm enters the same
        # collective sequence as the fall-through — no divergence.
        """
def prog(ctx):
    data = yield from ctx.recv("t")
    if data is None:
        r = yield from bcast(ctx, 0)
        return r
    r = yield from bcast(ctx, data)
    return r
""",
        # A raising arm aborts loudly; it cannot silently skip
        # collectives, so there is nothing to deadlock.
        """
def prog(ctx):
    data = yield from ctx.recv("t")
    if data is None:
        raise RuntimeError("no data")
    yield from barrier(ctx)
""",
    ],
    "R9": [
        # Parameters are rank-invariant configuration.
        """
def prog(ctx, threshold):
    if threshold > 0:
        yield from barrier(ctx)
    yield
""",
        # allreduce results are the same on every PE — the k-core /
        # connected-components convergence idiom must stay legal.
        """
def prog(ctx):
    total = yield from allreduce(ctx, 1)
    if total > 0:
        yield from bcast(ctx, total)
    yield
""",
    ],
    "R10": [
        # sorted(...) re-establishes a deterministic order.
        """
def targets(ctx):
    return {1, 2, 3}

def prog(ctx):
    for dest in sorted(targets(ctx)):
        ctx.send(dest, "t", None, 1)
    yield
""",
        # A list-returning callee is already ordered.
        """
def ordered(ctx):
    return [2, 1]

def prog(ctx):
    for dest in ordered(ctx):
        ctx.send(dest, "t", None, 1)
    yield
""",
    ],
    "R11": [
        # Direct charge next to the compute.
        """
def prog(ctx, xs):
    acc = np.cumsum(xs)
    ctx.charge(int(xs.size))
    yield
    return acc
""",
        # The charge lives in a callee; the call graph finds it.
        """
def kernel(ctx, n):
    ctx.charge(n)

def prog(ctx, xs):
    ys = np.sort(xs)
    kernel(ctx, int(ys.size))
    yield
    return ys
""",
        # Cheap constructors are allowlisted.
        """
def prog(ctx):
    buf = np.empty(4, dtype=np.int64)
    yield
    return buf
""",
    ],
    "R12": [
        # The canonical restore-else-recompute idiom.
        """
def prog(ctx, state):
    snap = ctx.restore("phase")
    if snap is not None:
        state = snap
    ctx.checkpoint("phase", state)
    yield
    return state
""",
        # Deriving a *new* value from captured state is fine; only
        # mutating the captured names is a loss on restart.
        """
def prog(ctx, state):
    snap = ctx.restore("p")
    ctx.checkpoint("p", state)
    out = list(state)
    yield
    return out
""",
    ],
}


@pytest.mark.parametrize(
    "code,idx,src",
    [(c, i, s) for c, snips in BAD_FLOW.items() for i, s in enumerate(snips)],
    ids=lambda v: v if isinstance(v, str) and v.startswith("R") else None,
)
def test_bad_snippet_triggers_exactly_its_rule(code, idx, src):
    assert codes_of(src) == {code}, f"{code} positive #{idx}"


@pytest.mark.parametrize(
    "code,idx,src",
    [(c, i, s) for c, snips in GOOD_FLOW.items() for i, s in enumerate(snips)],
    ids=lambda v: v if isinstance(v, str) and v.startswith("R") else None,
)
def test_good_snippet_is_clean(code, idx, src):
    assert codes_of(src) == set(), f"{code} negative #{idx}"


def test_no_flow_flag_disables_r8_to_r12():
    src = BAD_FLOW["R9"][0]
    assert lint_source(src, flow=False) == []


# --------------------------------------------------------------------
# CFG internals.
# --------------------------------------------------------------------


def _calls_in(stmt):
    return tuple(
        n.func.id
        for n in ast.walk(stmt)
        if isinstance(n, ast.Call) and isinstance(n.func, ast.Name)
    )


def _fn(src):
    return ast.parse(src).body[0]


def test_cfg_branch_targets_cover_both_arms():
    fn = _fn(
        """
def f(x):
    if x:
        a()
    else:
        b()
    c()
"""
    )
    cfg = build_cfg(fn.body)
    branch = cfg.branches[fn.body[0]]
    then_seqs = sequences(cfg, _calls_in, start=branch[0])
    else_seqs = sequences(cfg, _calls_in, start=branch[1])
    assert then_seqs == {("a", "c")}
    assert else_seqs == {("b", "c")}


def test_cfg_balanced_early_return_has_equal_suffixes():
    fn = _fn(
        """
def f(x):
    if x:
        a()
        return 1
    a()
    return 2
"""
    )
    cfg = build_cfg(fn.body)
    then_b, else_b = cfg.branches[fn.body[0]]
    assert sequences(cfg, _calls_in, start=then_b) == sequences(
        cfg, _calls_in, start=else_b
    )


def test_cfg_raise_paths_are_dropped():
    fn = _fn(
        """
def f(x):
    if x:
        raise ValueError(x)
    a()
"""
    )
    cfg = build_cfg(fn.body)
    then_b, else_b = cfg.branches[fn.body[0]]
    assert sequences(cfg, _calls_in, start=then_b) == set()
    assert sequences(cfg, _calls_in, start=else_b) == {("a",)}


def test_cfg_overflow_sentinel_on_path_explosion():
    guards = "\n".join(f"    if x{i}:\n        a()" for i in range(12))
    fn = _fn(f"def f({', '.join(f'x{i}' for i in range(12))}):\n{guards}\n    b()")
    seqs = sequences(build_cfg(fn.body), _calls_in, max_paths=8)
    assert OVERFLOW in seqs


# --------------------------------------------------------------------
# Taint internals.
# --------------------------------------------------------------------


def _expr(src):
    return ast.parse(src, mode="eval").body


def test_expr_taint_basics():
    assert expr_tainted(_expr("ctx.rank"), set())
    assert expr_tainted(_expr("ctx.rank + 1"), set())
    assert expr_tainted(_expr("q.recv('t')"), set())
    assert not expr_tainted(_expr("ctx.num_pes"), set())
    assert not expr_tainted(_expr("allreduce(ctx, x)"), {"x"})
    assert expr_tainted(_expr("f(x)"), {"x"})
    assert not expr_tainted(_expr("f(y)"), {"x"})


def test_function_taint_propagates_through_assignment_chains():
    fn = _fn(
        """
def f(ctx):
    a = ctx.rank
    b = a * 2
    c = sorted(range(b))
    clean = ctx.num_pes
    washed = allreduce(ctx, b)
"""
    )
    tainted = function_taint(fn)
    assert {"a", "b", "c"} <= tainted
    assert "clean" not in tainted
    assert "washed" not in tainted  # sanitized by allreduce


# --------------------------------------------------------------------
# Suppression: flow rules demand a justification.
# --------------------------------------------------------------------

_R9_GUARDED = """
def prog(ctx):
    data = yield from ctx.recv("t")
    if data is None:{noqa}
        yield from barrier(ctx)
    else:
        yield from bcast(ctx, 0)
"""


def test_bare_noqa_does_not_silence_flow_rules():
    assert codes_of(_R9_GUARDED.format(noqa="  # noqa")) == {"R9"}


def test_coded_noqa_without_justification_does_not_silence():
    assert codes_of(_R9_GUARDED.format(noqa="  # noqa: R9")) == {"R9"}


def test_coded_noqa_with_justification_silences():
    noqa = "  # noqa: R9 -- replay guard is globally consistent"
    assert codes_of(_R9_GUARDED.format(noqa=noqa)) == set()


def test_justified_noqa_still_scopes_to_its_code():
    noqa = "  # noqa: R8 -- wrong code, must not silence R9"
    assert codes_of(_R9_GUARDED.format(noqa=noqa)) == {"R9"}


# --------------------------------------------------------------------
# Runner robustness: unreadable input is a finding, not a crash.
# --------------------------------------------------------------------


def test_syntax_error_is_an_r0_finding(tmp_path):
    bad = tmp_path / "broken.py"
    bad.write_text("def f(:\n", encoding="utf-8")
    ok = tmp_path / "fine.py"
    ok.write_text(BAD_FLOW["R11"][0], encoding="utf-8")
    findings = lint_paths([tmp_path])
    by_code = {f.code for f in findings}
    # The broken file reports R0 and the healthy sibling still gets
    # its dataflow analysis.
    assert by_code == {"R0", "R11"}


def test_duplicate_findings_are_deduplicated(tmp_path):
    # Two SPMD callers of the same divergent helper must not multiply
    # the helper's finding; identical (path, line, code) collapse.
    f = tmp_path / "m.py"
    f.write_text(BAD_FLOW["R9"][0], encoding="utf-8")
    findings = lint_paths([f, f])
    assert len(findings) == len(set(findings))


# --------------------------------------------------------------------
# Baselines.
# --------------------------------------------------------------------


def test_baseline_roundtrip_and_stale_detection(tmp_path):
    findings = lint_source(BAD_FLOW["R9"][0], path="m.py")
    assert findings
    bl_path = tmp_path / "baseline.json"
    write_baseline(bl_path, findings)
    baseline = load_baseline(bl_path)
    assert set(baseline) == {fingerprint(f) for f in findings}

    new, stale = apply_baseline(findings, baseline)
    assert new == [] and stale == []

    new, stale = apply_baseline([], baseline)
    assert new == [] and len(stale) == len(baseline)


def test_fingerprint_ignores_line_numbers():
    a, = lint_source(BAD_FLOW["R11"][0], path="m.py")
    b, = lint_source("# moved down a line\n" + BAD_FLOW["R11"][0], path="m.py")
    assert a.line != b.line
    assert fingerprint(a) == fingerprint(b)


def test_cli_strict_fails_on_stale_baseline(tmp_path, capsys):
    target = tmp_path / "m.py"
    target.write_text(BAD_FLOW["R11"][0], encoding="utf-8")
    bl = tmp_path / "baseline.json"
    assert lint_main([str(target), "--update-baseline", str(bl)]) == 0
    # Baselined: clean in both modes.
    assert lint_main([str(target), "--baseline", str(bl)]) == 0
    assert lint_main([str(target), "--baseline", str(bl), "--strict"]) == 0
    # Fix the finding; the baseline entry goes stale.
    target.write_text("def prog(ctx):\n    yield\n", encoding="utf-8")
    assert lint_main([str(target), "--baseline", str(bl)]) == 0
    assert lint_main([str(target), "--baseline", str(bl), "--strict"]) == 1
    assert "stale baseline entry" in capsys.readouterr().err


# --------------------------------------------------------------------
# Emitters and determinism.
# --------------------------------------------------------------------


def test_json_and_sarif_documents_are_well_formed():
    findings = lint_source(BAD_FLOW["R9"][0], path="m.py")
    doc = json.loads(to_json(findings))
    assert doc["count"] == len(findings) == len(doc["findings"])
    sarif = json.loads(to_sarif(findings))
    assert sarif["version"] == "2.1.0"
    run = sarif["runs"][0]
    assert run["tool"]["driver"]["name"] == "repro.lint"
    assert {r["ruleId"] for r in run["results"]} == {"R9"}
    rule_ids = {r["id"] for r in run["tool"]["driver"]["rules"]}
    assert {"R8", "R9", "R10", "R11", "R12"} <= rule_ids


def test_output_is_byte_identical_across_hash_seeds(tmp_path):
    # Hash randomization is the classic source of run-to-run output
    # jitter in set-heavy analyzers; the emitted documents must not
    # depend on it.
    for i, src in enumerate(BAD_FLOW["R9"] + BAD_FLOW["R10"] + BAD_FLOW["R12"]):
        (tmp_path / f"m{i}.py").write_text(src, encoding="utf-8")

    def run(seed):
        env = dict(os.environ, PYTHONHASHSEED=seed)
        env["PYTHONPATH"] = str(SRC_ROOT)
        proc = subprocess.run(
            [sys.executable, "-m", "repro.lint", "--format", "json", str(tmp_path)],
            capture_output=True,
            text=True,
            env=env,
        )
        assert proc.returncode == 1
        return proc.stdout

    assert run("0") == run("12345")


def test_repo_src_tree_lints_clean_with_flow_rules():
    assert lint_paths([SRC_ROOT]) == []
