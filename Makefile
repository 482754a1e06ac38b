# Convenience targets for the reproduction.

PYTHON ?= python

.PHONY: install test lint lint-flow bench bench-smoke bench-e2e-test chaos chaos-localized examples report clean

install:
	$(PYTHON) setup.py develop

test:
	$(PYTHON) -m pytest tests/

# Short fixed-seed fault-injection campaign (see docs/FAULTS.md):
# drops + one scheduled PE crash must not change any triangle count.
chaos:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seeds 3 --drop-rates 0,0.05 \
		--algorithms ditric,cetric

# Same campaign under online localized recovery: one timed PE crash
# per case is heartbeat-detected, partner-restored, and log-replayed
# inside a single run — counts stay exact and survivors never
# re-execute a phase (docs/FAULTS.md).
chaos-localized:
	PYTHONPATH=src $(PYTHON) -m repro chaos --seeds 5 --drop-rates 0,0.02 \
		--algorithms ditric,cetric --recovery localized

# ruff (style) + repro.lint (SPMD protocol rules R1-R14, see
# docs/SPMD_CONTRACT.md).  ruff is optional locally; CI installs it.
lint:
	@if $(PYTHON) -c "import ruff" 2>/dev/null; then \
		$(PYTHON) -m ruff check src tests benchmarks examples; \
	else \
		echo "ruff not installed; skipping style checks"; \
	fi
	PYTHONPATH=src $(PYTHON) -m repro.lint src

# The whole-program dataflow rules (R8-R12) in strict mode against the
# committed baseline: fails on new findings AND on stale baseline
# entries (docs/STATIC_ANALYSIS.md).
lint-flow:
	PYTHONPATH=src $(PYTHON) -m repro.lint --strict --baseline lint-baseline.json src

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

# Deterministic smoke suite -> BENCH_<date>.json, diffed against the
# committed baseline; fails on a >15% simulated-cost regression
# (docs/BENCHMARKS.md).  Regenerate the baseline after an intentional
# cost change with:
#   PYTHONPATH=src REPRO_BENCH_DATE=baseline $(PYTHON) -m repro bench \
#       --suite smoke --out benchmarks/baseline
bench-smoke:
	PYTHONPATH=src $(PYTHON) -m repro bench --suite smoke --out . \
		--baseline benchmarks/baseline/BENCH_baseline.json

# Self-test of the end-to-end benchmark (benchmarks/e2e, see its
# README): toy workloads through the runner, the tracer and the gate.
bench-e2e-test:
	PYTHONPATH=src $(PYTHON) -m pytest benchmarks/e2e

examples:
	@for ex in examples/*.py; do \
		echo "=== $$ex ==="; \
		PYTHONPATH=src $(PYTHON) $$ex || exit 1; \
	done

report:
	$(PYTHON) -m repro report -o evaluation_report.md

clean:
	rm -rf build dist *.egg-info src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
