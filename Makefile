# One-word entry points for the tier-1 verify, the benchmarks and the
# docs checks. Everything runs from the repo root with src/ on the path;
# no installation required. See README.md "Make targets".

PYTHON ?= python
export PYTHONPATH := src

.PHONY: test lint lint-baseline bench bench-json bench-serving bench-aware bench-table bench-smoke bench-paper chaos-smoke obs-smoke fleet-smoke docs quickstart serve-demo

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

## core-kernel throughput microbenchmarks (fused vs reference engines)
bench:
	$(PYTHON) -m pytest benchmarks/bench_throughput.py -q --benchmark-only \
		--benchmark-min-rounds=15 --benchmark-warmup=on

## machine-readable throughput numbers (serial vs parallel runtime)
bench-json:
	$(PYTHON) tools/bench_to_json.py --out BENCH_throughput.json

## open-loop serving benchmark (throughput_rps, p50/p95/p99 latency)
bench-serving:
	$(PYTHON) tools/bench_to_json.py --serving --out BENCH_serving.json

## hardware-aware train-step cost (ideal vs quantize vs quantize+noise)
bench-aware:
	$(PYTHON) tools/bench_to_json.py --aware --out BENCH_aware.json

## full scenario grid -> run_table.csv + every BENCH_*.json view of it
bench-table:
	$(PYTHON) -m repro.experiments harness full --table run_table.csv --bench-json

## seconds-scale scenario grid (the CI harness-smoke job)
bench-smoke:
	$(PYTHON) -m repro.experiments harness smoke --table run_table.csv

## regenerate every paper table/figure (REPRO_PROFILE=full for paper scale)
bench-paper:
	$(PYTHON) -m pytest benchmarks -q

## fault-injection gates: pool bitwise self-healing + chaos availability
chaos-smoke:
	$(PYTHON) tools/chaos_smoke.py --table run_table.csv

## telemetry gates: trace schema, exporter parsing, overhead <= 5%
obs-smoke:
	$(PYTHON) tools/obs_smoke.py --trace-dir traces

## fleet gates: tenant isolation, canary rollout, per-tenant table rows
fleet-smoke:
	$(PYTHON) tools/fleet_smoke.py --table run_table.csv --trace-dir traces/fleet

## verify the documentation: README/docs exist and their local links resolve
docs:
	$(PYTHON) tools/check_docs.py

## end-to-end smoke: train the temporal-order quickstart task
quickstart:
	$(PYTHON) examples/quickstart.py

## boot the model server from a registry checkpoint, stream one SHD sample
serve-demo:
	$(PYTHON) examples/serve_demo.py
