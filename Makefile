# Convenience targets for the TROPIC reproduction.

PYTHONPATH_PREFIX := PYTHONPATH=src$(if $(PYTHONPATH),:$(PYTHONPATH))

.PHONY: test test-unit test-integration bench bench-micro bench-selfcheck paper chaos docs-check \
	analyze lint

## Tier-1 verification: the full test suite.
test:
	$(PYTHONPATH_PREFIX) python -m pytest -x -q

test-unit:
	$(PYTHONPATH_PREFIX) python -m pytest tests/unit -q

test-integration:
	$(PYTHONPATH_PREFIX) python -m pytest tests/integration tests/property -q

## The benchmark instrument: five seeded workloads, six end-to-end
## metrics each (contract in BENCHMARK.json, method in bench/README.md).
bench:
	python3 bench/run.py

## Write-path micro-benchmark guards only.
bench-micro:
	$(PYTHONPATH_PREFIX) python -m pytest benchmarks/bench_writepath.py -q

## The benchmark instrument's selfcheck (~11 s): every bench/run.py
## workload traced at 1/20 size, per-txn counts must repeat exactly.
bench-selfcheck:
	python3 bench/run.py --selfcheck

## The paper's figure/table shape tests (benchmarks/bench_*.py, ~2 min).
paper:
	$(PYTHONPATH_PREFIX) python -m pytest benchmarks -o python_files='bench_*.py' -q

## Seeded chaos soak: crash points + ensemble faults + leader kills over
## a concurrent tokened workload; asserts zero acked loss, zero
## duplicate application and recovered-model equality per scenario.
chaos:
	$(PYTHONPATH_PREFIX) python scripts/run_chaos.py --seeds 0-23

## Documentation health: intra-repo links, module docstrings, config table.
docs-check:
	python scripts/check_docs.py

## Concurrency & protocol invariant analyzer (docs/development.md):
## lock-order graph, blocking-under-lock, CoW/KV write funnels, txn-state
## machine, retry taxonomy. Fails on any finding not waived inline.
analyze:
	$(PYTHONPATH_PREFIX) python -m repro.analysis

## Ruff (configured in pyproject.toml). The dev container does not ship
## ruff, so this skips with a notice when it is absent; CI enforces it.
lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks scripts; \
	else \
		echo "lint: ruff not installed; skipping (CI enforces it)"; \
	fi
