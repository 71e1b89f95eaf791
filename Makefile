# One-word entry points for the tier-1 verify, the benchmarks and the
# docs checks. Everything runs from the repo root with src/ on the path;
# no installation required. See README.md "Make targets".

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-baseline bench bench-table bench-smoke bench-paper gates docs quickstart serve-demo

## tier-1 verify: the full unit/property/integration suite
test:
	$(PYTHON) -m pytest -x -q

## project linter (docs/static_analysis.md): planted-violation
## self-check, then the tree against tools/lint_baseline.json
lint:
	$(PYTHON) tools/lint_smoke.py

## regenerate the lint baseline deterministically (stable sort,
## repo-relative paths); review the diff before committing it
lint-baseline:
	$(PYTHON) -m repro.analysis --write-baseline

## the repository benchmark (BENCHMARK.json): every perfbench workload
## at its 20 s run length, one JSON line each; compare two commits with
## tools/ab.py (docs/performance.md)
bench:
	for w in train serve sweep; do \
		$(PYTHON) perfbench/run.py --workload $$w --seed 1 --seconds 20 || exit 1; \
	done

## serving/chaos/fleet SLO grid -> run_table.csv
bench-table:
	$(PYTHON) -m repro.experiments harness full --table run_table.csv

## seconds-scale scenario grid -> run_table.csv
bench-smoke:
	$(PYTHON) -m repro.experiments harness smoke --table run_table.csv

## regenerate every paper table/figure (REPRO_PROFILE=full for paper scale)
bench-paper:
	$(PYTHON) -m pytest benchmarks -q

## every smoke gate in one run (the CI gates job): telemetry, chaos,
## worker-pool healing and fleet -> run_table_*.csv + traces/
gates:
	$(PYTHON) tools/gates.py

## verify the documentation: README/docs exist and their local links resolve
docs:
	$(PYTHON) tools/check_docs.py

## end-to-end smoke: train the temporal-order quickstart task
quickstart:
	$(PYTHON) examples/quickstart.py

## boot the model server from a registry checkpoint, stream one SHD sample
serve-demo:
	$(PYTHON) examples/serve_demo.py
