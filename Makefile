# Convenience targets for the power-er reproduction.
#
#   make check        - the default gate: tests + smokes + verify + lint
#   make test         - tier-1 test suite
#   make engine-smoke - <60s deterministic fault-injection run asserting
#                       crash-resume converges to the straight-through run
#   make verify       - repro.verify battery: differential oracles, structural
#                       invariants, metamorphic laws, mutation self-test
#   make lint         - ruff over src/tests/benchmarks (skipped with a
#                       notice when ruff is not installed; config lives in
#                       pyproject.toml so editors pick it up regardless)
#   make coverage     - tier-1 suite under pytest-cov; enforces the line
#                       floor and refreshes benchmarks/results/COVERAGE.json
#                       (skipped with a notice when pytest-cov is missing)
#   make bench        - the five gated benches of repro.experiments.bench
#                       (pipeline, selection, obs, stream, serve) at full
#                       size: each times its sides (one untimed run, then
#                       interleaved repeats), checks equivalence while it
#                       measures, gates the ratios of its medians, and
#                       refreshes benchmarks/results/BENCH_<name>.json;
#                       every bench runs even when an earlier one fails
#   make bench-smoke  - the same benches at smoke size (POWER_BENCH_FAST=1:
#                       smaller workloads, relaxed ratio bars, the same
#                       checks), each report to /tmp/BENCH_<name>_smoke.json;
#                       BENCHES=... picks a subset for either target
#   make stream-smoke - <10s streaming CLI smoke: ingest the restaurant
#                       dataset in checkpointed batches, resume the same
#                       snapshot directory and finish the stream, then
#                       stream it again uninterrupted; the two final
#                       checkpoint digests must match
#   make serve-smoke  - <60s serving CLI smoke: spawn a private server,
#                       ingest the restaurant dataset through the client,
#                       then respawn on the same checkpoint root and query
#                       clusters from the restored session
#   make bench-e2e-smoke - the end-to-end benchmark's own tests, then a
#                       smoke run of the two join-heavy workloads
#                       (resolve-acmpub, and shard-acmpub: the same serial
#                       resolve under the kept ShardedResolver name); fails
#                       when a result digest or the pinned candidate-join
#                       output drifts

PYTHON ?= python
export PYTHONPATH := src

# Minimum acceptable line coverage (percent) for `make coverage`.
COVERAGE_FLOOR ?= 85

.PHONY: check test engine-smoke stream-smoke serve-smoke verify lint coverage bench bench-smoke bench-e2e-smoke

check: test engine-smoke stream-smoke serve-smoke bench-smoke bench-e2e-smoke verify coverage lint

test:
	$(PYTHON) -m pytest -q

engine-smoke:
	POWER_BENCH_FAST=1 $(PYTHON) benchmarks/engine_smoke.py

verify:
	$(PYTHON) -m repro verify --dataset restaurant --scale 0.05 --quiet

lint:
	@if command -v ruff >/dev/null 2>&1; then \
		ruff check src tests benchmarks; \
	else \
		echo "ruff not installed; skipping lint (config: pyproject.toml [tool.ruff])"; \
	fi

coverage:
	@if $(PYTHON) -c "import pytest_cov" >/dev/null 2>&1; then \
		$(PYTHON) -m pytest -q -m "not slow" \
			--cov=src/repro --cov-report=term --cov-report=json:coverage.json \
			--cov-fail-under=$(COVERAGE_FLOOR) && \
		$(PYTHON) benchmarks/coverage_summary.py coverage.json \
			benchmarks/results/COVERAGE.json; \
	else \
		echo "pytest-cov not installed; skipping coverage" \
		     "(floor: $(COVERAGE_FLOOR)%, summary: benchmarks/results/COVERAGE.json)"; \
	fi

# The gated benches, by name (python -m repro bench NAME).
BENCHES ?= pipeline selection obs stream serve

bench:
	@status=0; for name in $(BENCHES); do \
		$(PYTHON) -m repro bench $$name --check \
			--out benchmarks/results/BENCH_$$name.json || status=1; \
	done; exit $$status

# Smoke reports go to /tmp: fast-mode timings must not clobber the
# committed full-run reports.
bench-smoke:
	@status=0; for name in $(BENCHES); do \
		POWER_BENCH_FAST=1 $(PYTHON) -m repro bench $$name --check \
			--out /tmp/BENCH_$${name}_smoke.json || status=1; \
	done; exit $$status

# Scratch directory for the streaming CLI smoke (wiped before and after).
STREAM_SMOKE_DIR ?= .stream-smoke

stream-smoke:
	@rm -rf $(STREAM_SMOKE_DIR) && mkdir -p $(STREAM_SMOKE_DIR)
	$(PYTHON) -m repro generate restaurant $(STREAM_SMOKE_DIR)/records.csv
	$(PYTHON) -m repro stream $(STREAM_SMOKE_DIR)/records.csv --batch-size 200 \
		--checkpoint-dir $(STREAM_SMOKE_DIR)/ck --max-batches 2
	$(PYTHON) -m repro stream $(STREAM_SMOKE_DIR)/records.csv --batch-size 200 \
		--checkpoint-dir $(STREAM_SMOKE_DIR)/ck --resume > $(STREAM_SMOKE_DIR)/resumed.log
	$(PYTHON) -m repro stream $(STREAM_SMOKE_DIR)/records.csv --batch-size 200 \
		--checkpoint-dir $(STREAM_SMOKE_DIR)/straight > $(STREAM_SMOKE_DIR)/straight.log
	@cat $(STREAM_SMOKE_DIR)/resumed.log
	@resumed=$$(grep -o 'checkpoint [0-9a-f]*' $(STREAM_SMOKE_DIR)/resumed.log | tail -n 1); \
	straight=$$(grep -o 'checkpoint [0-9a-f]*' $(STREAM_SMOKE_DIR)/straight.log | tail -n 1); \
	echo "final $$resumed after resume, $$straight uninterrupted"; \
	test -n "$$resumed" && test "$$resumed" = "$$straight"
	@rm -rf $(STREAM_SMOKE_DIR)

# Scratch directory for the serving CLI smoke (wiped before and after).
SERVE_SMOKE_DIR ?= .serve-smoke

serve-smoke:
	@rm -rf $(SERVE_SMOKE_DIR) && mkdir -p $(SERVE_SMOKE_DIR)
	$(PYTHON) -m repro generate restaurant $(SERVE_SMOKE_DIR)/records.csv
	$(PYTHON) -m repro client ingest-csv --spawn $(SERVE_SMOKE_DIR)/root \
		--session smoke --input $(SERVE_SMOKE_DIR)/records.csv \
		--batch-size 200
	$(PYTHON) -m repro client clusters --spawn $(SERVE_SMOKE_DIR)/root \
		--session smoke
	@rm -rf $(SERVE_SMOKE_DIR)

bench-e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e -q
	$(PYTHON) benchmarks/e2e/harness.py run --smoke --workload resolve-acmpub \
		--workload shard-acmpub --repeats 1
