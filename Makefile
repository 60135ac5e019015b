# Convenience targets for the TROPIC reproduction.

PYTHONPATH_PREFIX := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-unit test-integration bench bench-micro bench-selfcheck chaos docs-check \
	analyze analyze-baseline lint

## Tier-1 verification: the full test suite.
test:
	$(PYTHONPATH_PREFIX) python -m pytest -x -q

test-unit:
	$(PYTHONPATH_PREFIX) python -m pytest tests/unit -q

test-integration:
	$(PYTHONPATH_PREFIX) python -m pytest tests/integration tests/property -q

## Full benchmark suite; writes BENCH_pr10.json (incl. the pipeline-depth
## sweep, 2/4-shard runs, the cross-shard 2PC mix and the read-path
## section: replica staleness, fleet views, O(1) snapshot scaling,
## subscribe latency, fenced views).
bench:
	bash scripts/run_benchmarks.sh

## Write-path micro-benchmark guards only.
bench-micro:
	$(PYTHONPATH_PREFIX) python -m pytest benchmarks/bench_writepath.py -q

## The benchmark instrument's selfcheck (~11 s): every bench/run.py
## workload traced at 1/20 size, per-txn counts must repeat exactly.
bench-selfcheck:
	python3 bench/run.py --selfcheck

## Seeded chaos soak: crash points + ensemble faults + leader kills over
## a concurrent tokened workload; asserts zero acked loss, zero
## duplicate application and recovered-model equality per scenario.
chaos:
	$(PYTHONPATH_PREFIX) python scripts/run_chaos.py --seeds 0-23

## Documentation health: intra-repo links + module docstring coverage.
docs-check:
	python scripts/check_docs.py

## Concurrency & protocol invariant analyzer (docs/development.md):
## lock-order graph, blocking-under-lock, CoW/KV write funnels, txn-state
## machine, retry taxonomy. Fails on any drift from analysis/baseline.json.
analyze:
	$(PYTHONPATH_PREFIX) python -m repro.analysis

## Regenerate the baseline after triaging findings (justify every entry).
analyze-baseline:
	$(PYTHONPATH_PREFIX) python -m repro.analysis --write-baseline

## Ruff (configured in pyproject.toml). The dev container does not ship
## ruff, so this skips with a notice when it is absent; CI enforces it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks scripts; \
	else \
		echo "lint: ruff not installed; skipping (CI enforces it)"; \
	fi
