"""The SPMD protocol linter: rule corpus, suppression, CLI, self-check.

Each known-bad snippet must trigger *exactly* its rule (no more, no
less), each good twin must be clean, and the repo's own ``src`` tree
must lint clean — the linter guards the codebase it lives in.
"""

from pathlib import Path

import pytest

from repro.lint import RULES, lint_paths, lint_source
from repro.lint.cli import build_parser, main as lint_main

SRC_ROOT = Path(__file__).resolve().parent.parent / "src"

# One known-bad snippet per rule; the test asserts the exact code set.
BAD = {
    "R1": """
def prog(ctx):
    barrier(ctx)
    yield
""",
    "R2": """
def prog(ctx):
    if ctx.rank == 0:
        yield from barrier(ctx)
""",
    "R3": """
def prog(ctx):
    partners = {3, 1, 2}
    for dest in partners:
        ctx.send(dest, "t", None, 1)
    yield
""",
    "R4": """
def prog(ctx):
    ctx.send(1, "t", None)
    yield
""",
    "R5": """
@fault_tolerant
def prog(ctx):
    ctx.send(1, "t", None, 4)
    yield
""",
    "R6": """
def prog(ctx):
    ctx.span("local")
    yield
""",
    "R7": """
def prog(ctx):
    for v, s in zip(vertices.tolist(), slots):
        router.post_many([1], [v], [-1], [s], xadj, adj)
        ctx.charge(1)
    yield
""",
    "R13": """
def prog(ctx):
    ctx.metrics.clock += 5.0
    yield
""",
    "R14": """
def launch(machine_args):
    return Machine(4, recovery="localized", checkpoint_store=CheckpointStore(4))
""",
}

GOOD = {
    "R1": """
def prog(ctx):
    yield from barrier(ctx)
""",
    "R2": """
def prog(ctx):
    yield from barrier(ctx)
    if ctx.rank == 0:
        ctx.charge(10)
""",
    "R3": """
def prog(ctx):
    partners = {3, 1, 2}
    for dest in sorted(partners):
        ctx.send(dest, "t", None, 1)
    yield
""",
    "R4": """
def prog(ctx):
    ctx.send(1, "t", None, 7)
    yield
""",
    "R5": """
@fault_tolerant
def prog(ctx):
    reliable_send(ctx, 1, "t", None, 4)
    yield
""",
    "R6": """
def prog(ctx):
    with ctx.span("local"):
        yield
""",
    "R7": """
def prog(ctx):
    router.post_many(dst_ranks, vertices, targets, slots, xadj, adj)
    ctx.charge(1)
    yield
""",
    "R13": """
def prog(ctx):
    ctx.charge_time(5.0)
    clock = 5.0
    yield
""",
    "R14": """
def launch(machine_args):
    return Machine(4, recovery="localized", checkpoint_store=BuddyCheckpointStore(4))
""",
}


@pytest.mark.parametrize("code", sorted(BAD))
def test_bad_snippet_triggers_exactly_its_rule(code):
    findings = lint_source(BAD[code], f"bad_{code}.py")
    assert [f.code for f in findings] == [code]


@pytest.mark.parametrize("code", sorted(GOOD))
def test_good_twin_is_clean(code):
    assert lint_source(GOOD[code], f"good_{code}.py") == []


def test_r1_catches_dropped_ctx_recv_and_finalize():
    src = """
def prog(ctx):
    msg = ctx.recv("tag")
    records = queue.finalize()
    yield
"""
    findings = lint_source(src)
    assert [f.code for f in findings] == ["R1", "R1"]
    assert "ctx.recv" in findings[0].message


def test_r2_sees_through_rank_aliases_and_loops():
    src = """
def prog(ctx):
    me = ctx.rank
    while me > 0:
        yield from barrier(ctx)
"""
    assert [f.code for f in lint_source(src)] == ["R2"]
    src_for = """
def prog(ctx):
    for _ in range(ctx.rank):
        yield from barrier(ctx)
"""
    assert [f.code for f in lint_source(src_for)] == ["R2"]


def test_r3_flags_dict_iteration_with_sends():
    src = """
class Q:
    def flush(self):
        for dest, recs in self._buffers.items():
            self.ctx.send(dest, self.tag, recs, 4)
"""
    findings = lint_source(src)
    assert [f.code for f in findings] == ["R3"]
    assert "sorted" in findings[0].message


def test_r4_flags_wall_clock_and_unseeded_rng():
    src = """
import time, random
import numpy as np

def prog(ctx):
    t0 = time.time()
    x = random.random()
    y = np.random.randint(0, 4)
    yield
"""
    assert [f.code for f in lint_source(src)] == ["R4", "R4", "R4"]


def test_r4_only_applies_inside_spmd_code():
    src = """
import time

def wall_clock_harness():
    return time.perf_counter()
"""
    assert lint_source(src) == []


def test_noqa_suppresses_by_code():
    src = """
def prog(ctx):
    if ctx.rank == 0:
        yield from barrier(ctx)  # noqa: R2
"""
    assert lint_source(src) == []
    # A noqa for a different rule does not suppress.
    wrong = src.replace("noqa: R2", "noqa: R1")
    assert [f.code for f in lint_source(wrong)] == ["R2"]
    # Bare noqa silences everything on the line.
    bare = src.replace("noqa: R2", "noqa")
    assert lint_source(bare) == []


def test_syntax_error_reported_as_r0():
    findings = lint_source("def broken(:\n")
    assert [f.code for f in findings] == ["R0"]


def test_finding_format_is_compiler_style():
    (finding,) = lint_source(BAD["R1"], "x.py")
    text = finding.format()
    assert text.startswith("x.py:3:")
    assert " R1 " in text


def test_cli_description_names_every_rule_range():
    description = build_parser().description
    assert "R13" in description and "R14" in description


def test_rule_catalogue_is_complete():
    assert set(RULES) == {f"R{i}" for i in range(15)}


def test_r5_only_applies_to_marked_programs():
    # The same direct send is legal in an unmarked program.
    src = """
def prog(ctx):
    ctx.send(1, "t", None, 4)
    yield
"""
    assert lint_source(src) == []
    # The marker is recognized as a dotted attribute too.
    dotted = """
@reliable.fault_tolerant
def prog(ctx):
    ctx.send(1, "t", None, 4)
    yield
"""
    assert [f.code for f in lint_source(dotted)] == ["R5"]
    # A batch send bypasses the reliable transport the same way.
    batch = dotted.replace('ctx.send(1, "t", None, 4)', 'ctx.send_many([1], "t", [None], [4])')
    assert [f.code for f in lint_source(batch)] == ["R5"]


def test_r4_flags_send_many_without_words():
    src = """
def prog(ctx):
    ctx.send_many([1], "t", [None])
    yield
"""
    assert [f.code for f in lint_source(src)] == ["R4"]


def test_r5_noqa_escape():
    src = """
@fault_tolerant
def prog(ctx):
    ctx.send(1, "t", None, 4)  # noqa: R5
    yield
"""
    assert lint_source(src) == []


def test_r6_flags_span_assigned_instead_of_entered():
    src = """
def prog(ctx):
    s = ctx.span("local")
    yield
"""
    findings = lint_source(src)
    assert [f.code for f in findings] == ["R6"]
    assert "with" in findings[0].message


def test_r6_flags_computed_and_rank_dependent_labels():
    fstring = """
def prog(ctx):
    with ctx.span(f"local-{ctx.rank}"):
        yield
"""
    assert [f.code for f in lint_source(fstring)] == ["R6"]
    variable = """
def prog(ctx, label):
    with ctx.span(label):
        yield
"""
    assert [f.code for f in lint_source(variable)] == ["R6"]
    keyword = """
def prog(ctx):
    with ctx.span(name="global" + "x"):
        yield
"""
    assert [f.code for f in lint_source(keyword)] == ["R6"]


def test_r6_does_not_flag_non_ctx_receivers():
    # The tracer's phase() *event recorder* is not a span context
    # manager; only the PEContext handle is policed.
    src = """
def record(tracer, rank, t):
    tracer.phase(rank, "local", t, t + 1.0)
"""
    assert lint_source(src) == []


def test_r6_accepts_with_as_binding():
    src = """
def prog(ctx):
    with ctx.span("contraction") as s:
        yield
"""
    assert lint_source(src) == []


def test_r7_flags_all_array_unpacking_idioms():
    # Arrays sliced to one element per call are still per-element posts.
    ranged = """
def prog(ctx):
    for i in range(len(vertices)):
        queue.post_many(dst[i : i + 1], vertices[i : i + 1], targets[i : i + 1],
                        slots[i : i + 1], xadj, adj)
        ctx.charge(1)
    yield
"""
    assert [f.code for f in lint_source(ranged)] == ["R7"]
    sized = """
def prog(ctx):
    for i in range(dst.size):
        net.queue.post_many([int(dst[i])], [int(v[i])], [-1], [i], xadj, adj)
        ctx.charge(1)
    yield
"""
    assert [f.code for f in lint_source(sized)] == ["R7"]
    enumerated = """
def prog(ctx):
    for i, v in enumerate(vs.tolist()):
        queue.post_many([1], [v], [-1], [i], xadj, adj)
        ctx.charge(1)
    yield
"""
    assert [f.code for f in lint_source(enumerated)] == ["R7"]


def test_r7_exempts_opaque_payloads_and_non_spmd_helpers():
    # R7 patrols the queue's post_many only; a loop handing opaque
    # payloads to some other object's post is not flagged.
    opaque = """
def prog(ctx):
    for start, end in zip(run_starts.tolist(), run_ends.tolist()):
        mailbox.post(1, Summary(vertex=1, targets=c_dst[start:end]))
        ctx.charge(1)
    yield
"""
    assert lint_source(opaque) == []
    # A fan-out helper that never touches ctx is outside SPMD scope
    # and R7 does not apply.
    helper = """
def post_all(self, dest_ranks, slots, xadj, adj):
    for dest, slot in zip(dest_ranks.tolist(), slots):
        self.post_many([dest], [slot], [-1], [slot], xadj, adj)
"""
    assert lint_source(helper) == []
    # Loops over plain Python iterables are fine even with per-element
    # post_many calls.
    plain = """
def prog(ctx):
    for dest, v, slot in pending:
        queue.post_many([dest], [v], [-1], [slot], xadj, adj)
        ctx.charge(1)
    yield
"""
    assert lint_source(plain) == []


def test_r7_noqa_escape():
    src = """
def prog(ctx):
    for v in vs.tolist():
        queue.post_many([1], [v], [-1], [0], xadj, adj)  # noqa: R7
        ctx.charge(1)
    yield
"""
    assert lint_source(src) == []


def test_r13_flags_time_keyed_and_private_engine_state():
    # Rewinding a message's send_time forges the network's time ordering.
    send_time = """
def prog(ctx):
    msg = yield from ctx.recv("t")
    msg.send_time = 0.0
    yield
"""
    assert [f.code for f in lint_source(send_time)] == ["R13"]
    # Reaching into the context's private mailbox bypasses delivery
    # accounting (and the engine's wake hooks).
    inbox = """
def prog(ctx):
    ctx._inbox["t"] = []
    yield
"""
    assert [f.code for f in lint_source(inbox)] == ["R13"]
    # Aliased contexts are still engine state when reached through ctx.
    nested = """
def prog(ctx):
    ctx.machine.network.links[0].busy_until = 99.0
    yield
"""
    assert [f.code for f in lint_source(nested)] == ["R13"]


def test_r13_only_polices_spmd_writes():
    # The engine itself (self-rooted writes, no ctx) owns these fields.
    engine = """
class SimEngine:
    def advance(self, t):
        self.clock = t
"""
    assert lint_source(engine) == []
    # Reads of engine state are fine; only writes are policed.
    reads = """
def prog(ctx):
    elapsed = ctx.metrics.clock
    ctx.charge(1)
    yield
"""
    assert lint_source(reads) == []
    # Plain locals that happen to be named like time fields are fine.
    local = """
def prog(ctx):
    clock = 0.0
    clock += 1.0
    ctx.charge(1)
    yield
"""
    assert lint_source(local) == []


def test_r13_noqa_escape():
    src = """
def prog(ctx):
    ctx.metrics.clock += 5.0  # noqa: R13 -- test fixture resets the clock
    yield
"""
    assert lint_source(src) == []


def test_r14_flags_restored_state_mutated_without_recheckpoint():
    append = """
@fault_tolerant
def prog(ctx):
    state = ctx.restore("local")
    state.append(1)
    yield
"""
    assert [f.code for f in lint_source(append)] == ["R14"]
    item_write = """
@fault_tolerant
def prog(ctx):
    state = ctx.restore("local")
    state["count"] = 7
    yield
"""
    assert [f.code for f in lint_source(item_write)] == ["R14"]


def test_r14_accepts_recheckpoint_and_canonical_restore():
    recheckpointed = """
@fault_tolerant
def prog(ctx):
    state = ctx.restore("global")
    if state is None:
        state = fresh_state()
    state.append(1)
    ctx.checkpoint("global", state)
    yield
"""
    assert lint_source(recheckpointed) == []
    canonical = """
@fault_tolerant
def prog(ctx):
    state = ctx.restore("local")
    if state is None:
        state = fresh_state()
        ctx.checkpoint("local", state)
    yield
"""
    assert lint_source(canonical) == []


def test_r14_only_polices_fault_tolerant_programs():
    unmarked = """
def prog(ctx):
    state = ctx.restore("local")
    state.append(1)
    yield
"""
    assert lint_source(unmarked) == []


def test_r14_machine_shape_needs_all_three_ingredients():
    # localized + auto-attached buddy store: fine.
    implicit = """
def launch():
    return Machine(4, recovery="localized")
"""
    assert lint_source(implicit) == []
    # plain store under global restart: fine.
    global_store = """
def launch():
    return Machine(4, checkpoint_store=CheckpointStore(4))
"""
    assert lint_source(global_store) == []
    # a store the rule cannot classify (a variable): not flagged.
    opaque = """
def launch(store):
    return Machine(4, recovery="localized", checkpoint_store=store)
"""
    assert lint_source(opaque) == []


def test_r14_noqa_escape():
    src = """
def launch():
    return Machine(4, recovery="localized", checkpoint_store=CheckpointStore(4))  # noqa: R14 -- exercising the runtime rejection
"""
    assert lint_source(src) == []


def test_repo_src_tree_lints_clean():
    findings = lint_paths([SRC_ROOT])
    assert findings == [], "\n".join(f.format() for f in findings)


def test_cli_exit_status_and_output(tmp_path, capsys):
    bad = tmp_path / "bad.py"
    bad.write_text(BAD["R1"])
    good = tmp_path / "good.py"
    good.write_text(GOOD["R1"])

    assert lint_main([str(good)]) == 0
    assert lint_main([str(bad)]) == 1
    out = capsys.readouterr().out
    assert "R1" in out and "bad.py:3" in out

    assert lint_main(["--list-rules"]) == 0
    out = capsys.readouterr().out
    for code in ("R1", "R2", "R3", "R4"):
        assert code in out


def test_cli_unreadable_path_is_an_r0_finding(tmp_path, capsys):
    # An unreadable file is reported as a finding, not raised — one
    # broken path must not abort a whole-tree lint.
    missing = tmp_path / "no_such_file.py"
    assert lint_main([str(missing)]) == 1
    out = capsys.readouterr().out
    assert "R0" in out and "no_such_file.py" in out and "cannot read" in out


def test_cli_lints_directories_recursively(tmp_path):
    pkg = tmp_path / "pkg"
    pkg.mkdir()
    (pkg / "mod.py").write_text(BAD["R2"])
    cache = pkg / "__pycache__"
    cache.mkdir()
    (cache / "junk.py").write_text(BAD["R1"])  # must be skipped
    findings = lint_paths([tmp_path])
    assert [f.code for f in findings] == ["R2"]


def test_repro_cli_lint_subcommand(tmp_path, capsys):
    from repro.cli import main as repro_main

    bad = tmp_path / "bad.py"
    bad.write_text(BAD["R3"])
    assert repro_main(["lint", str(bad)]) == 1
    assert "R3" in capsys.readouterr().out
    assert repro_main(["lint", str(SRC_ROOT / "repro" / "net")]) == 0
