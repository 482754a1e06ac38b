"""Release hygiene: exports, version, documentation deliverables."""

from pathlib import Path

import pytest

import repro

ROOT = Path(__file__).parent.parent


def test_version_consistent():
    import repro.version

    assert repro.__version__ == repro.version.__version__
    text = (ROOT / "pyproject.toml").read_text()
    assert f'version = "{repro.__version__}"' in text


def test_top_level_exports():
    assert callable(repro.count_triangles)
    assert callable(repro.local_clustering_coefficients)
    assert hasattr(repro, "graphs")
    assert hasattr(repro, "generators")


def test_subpackage_all_exports_resolve():
    import repro.amq
    import repro.analysis
    import repro.baselines
    import repro.core
    import repro.graphs
    import repro.net

    for module in (
        repro.amq,
        repro.analysis,
        repro.baselines,
        repro.core,
        repro.graphs,
        repro.net,
    ):
        for name in module.__all__:
            assert getattr(module, name) is not None, f"{module.__name__}.{name}"


def test_documentation_deliverables_exist():
    for name in ("README.md", "DESIGN.md", "EXPERIMENTS.md", "LICENSE", "CHANGELOG.md"):
        path = ROOT / name
        assert path.exists(), name
        assert path.stat().st_size > 200, name
    assert (ROOT / "docs" / "TUTORIAL.md").exists()


def test_design_md_has_required_sections():
    text = (ROOT / "DESIGN.md").read_text()
    assert "Substitutions" in text
    assert "Per-experiment index" in text
    assert "Table I" in text and "Fig. 8" in text


def test_experiments_md_covers_every_artifact():
    text = (ROOT / "EXPERIMENTS.md").read_text()
    for artifact in ("Table I", "Fig. 2", "Fig. 5", "Fig. 6", "Fig. 7", "Fig. 8"):
        assert artifact in text, artifact


def test_every_benchmark_has_a_results_reference():
    readme = (ROOT / "benchmarks" / "README.md").read_text()
    for bench in sorted((ROOT / "benchmarks").glob("bench_*.py")):
        assert bench.name in readme, bench.name


def test_examples_directory_contract():
    examples = sorted((ROOT / "examples").glob("*.py"))
    assert len(examples) >= 3
    readme = (ROOT / "README.md").read_text()
    for ex in examples:
        assert ex.name in readme, f"{ex.name} missing from README"


def test_no_build_metadata_is_tracked():
    """``*.egg-info`` is build output; a tracked copy goes stale."""
    import shutil
    import subprocess

    if shutil.which("git") is None or not (ROOT / ".git").exists():
        pytest.skip("not a git checkout")
    listed = subprocess.run(
        ["git", "ls-files"], cwd=ROOT, capture_output=True, text=True, check=True
    ).stdout.splitlines()
    assert [p for p in listed if ".egg-info" in p] == []
