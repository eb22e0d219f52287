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
#   make bench-smoke  - <60s perf smoke: fast paths must beat the scalar
#                       references, and the prune stage's sparse join must
#                       equal the prefix-join oracle (POWER_BENCH_FAST=1
#                       shrinks the workload)
#   make bench-perf   - full pipeline benchmark; enforces the 5x vectorize /
#                       3x construct speedup floors and refreshes
#                       benchmarks/results/BENCH_pipeline.json
#   make shard-smoke  - 2-worker sharded resolution (exact mode) asserting
#                       byte-equivalence with the serial resolver
#   make bench-shard  - shard-scaling benchmark: speedup curve + measured
#                       Amdahl fraction; enforces the 2.5x @ 4 workers floor
#                       and refreshes benchmarks/results/BENCH_shard.json
#   make bench-selection - selection-loop benchmark: incremental path-cover
#                       engine vs per-round scratch (byte-identical
#                       transcripts); enforces the 3x floor and refreshes
#                       benchmarks/results/BENCH_selection.json
#   make bench-selection-smoke - <60s smoke of the same; the gate only
#                       requires the incremental engine to win (>= 1.0x)
#   make bench-obs    - observability overhead benchmark: full resolution in
#                       three modes (obs off / metrics / tracing+metrics);
#                       enforces <1% metrics and <5% tracing overhead plus
#                       deterministic 4-worker span merge, and refreshes
#                       benchmarks/results/BENCH_obs.json
#   make bench-obs-smoke - <60s smoke of the same with relaxed percentage
#                       bars (tiny workloads make relative overhead noise)
#   make stream-smoke - <5s streaming CLI smoke: ingest the restaurant
#                       dataset in checkpointed batches, then resume the
#                       same snapshot directory and finish the stream
#   make bench-stream - streaming-ingest benchmark: incremental resolution
#                       vs re-resolve-per-batch and index extend vs rebuild
#                       (bit-equivalence asserted while timing); enforces
#                       the 3x floors and refreshes
#                       benchmarks/results/BENCH_stream.json
#   make bench-stream-smoke - <60s smoke of the same; the gates only
#                       require the incremental paths not to lose
#   make serve-smoke  - <60s serving CLI smoke: spawn a private server,
#                       ingest the restaurant dataset through the client,
#                       then respawn on the same checkpoint root and query
#                       clusters from the restored session
#   make bench-serve  - serve-throughput benchmark: 1/8/32 concurrent
#                       tenants over real sockets (state_sha bit-equivalence
#                       asserted while timing) plus a priced load-shedding
#                       burst; enforces the 3x aggregate-throughput floor
#                       and refreshes benchmarks/results/BENCH_serve.json
#   make bench-serve-smoke - <60s smoke of the same with a smaller fan-out
#                       and a relaxed scaling bar (shedding and equivalence
#                       gates are never relaxed)
#   make bench-e2e-smoke - the end-to-end benchmark's own tests, then a
#                       smoke run of the two join-heavy workloads (serial
#                       and sharded ACMPub); fails when a result digest or
#                       the pinned candidate-join output drifts

PYTHON ?= python
export PYTHONPATH := src

# Minimum acceptable line coverage (percent) for `make coverage`.
COVERAGE_FLOOR ?= 85

.PHONY: check test engine-smoke shard-smoke stream-smoke serve-smoke verify lint coverage bench-smoke bench-perf bench-shard bench-selection bench-selection-smoke bench-obs bench-obs-smoke bench-stream bench-stream-smoke bench-serve bench-serve-smoke bench-e2e-smoke

check: test engine-smoke shard-smoke stream-smoke serve-smoke bench-smoke bench-selection-smoke bench-obs-smoke bench-stream-smoke bench-serve-smoke bench-e2e-smoke verify coverage lint

test:
	$(PYTHON) -m pytest -q

engine-smoke:
	POWER_BENCH_FAST=1 $(PYTHON) benchmarks/engine_smoke.py

shard-smoke:
	$(PYTHON) -m repro shard --dataset restaurant --scale 0.05 --workers 2 \
		--check-equivalence

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

# Like every smoke: fast-mode timings must not clobber the committed
# full-run BENCH_pipeline.json.
PIPELINE_SMOKE_OUT ?= /tmp/BENCH_pipeline_smoke.json

bench-smoke:
	POWER_BENCH_FAST=1 $(PYTHON) benchmarks/bench_perf_pipeline.py --check \
		--out $(PIPELINE_SMOKE_OUT)
	POWER_BENCH_FAST=1 $(PYTHON) -m pytest -q tests/test_perf_smoke.py

bench-perf:
	$(PYTHON) benchmarks/bench_perf_pipeline.py --check

bench-shard:
	$(PYTHON) benchmarks/bench_shard_scaling.py --check

bench-selection:
	$(PYTHON) benchmarks/bench_selection_loop.py --check

# Like every smoke: fast-mode timings must not clobber the committed
# full-run BENCH_selection.json / BENCH_obs.json.
SELECTION_SMOKE_OUT ?= /tmp/BENCH_selection_smoke.json
OBS_SMOKE_OUT ?= /tmp/BENCH_obs_smoke.json

bench-selection-smoke:
	POWER_BENCH_FAST=1 $(PYTHON) benchmarks/bench_selection_loop.py --check \
		--out $(SELECTION_SMOKE_OUT)

bench-obs:
	$(PYTHON) benchmarks/bench_obs_overhead.py --check

bench-obs-smoke:
	POWER_BENCH_FAST=1 $(PYTHON) benchmarks/bench_obs_overhead.py --check \
		--out $(OBS_SMOKE_OUT)

# Scratch directory for the streaming CLI smoke (wiped before and after).
STREAM_SMOKE_DIR ?= .stream-smoke

stream-smoke:
	@rm -rf $(STREAM_SMOKE_DIR) && mkdir -p $(STREAM_SMOKE_DIR)
	$(PYTHON) -m repro generate restaurant $(STREAM_SMOKE_DIR)/records.csv
	$(PYTHON) -m repro stream $(STREAM_SMOKE_DIR)/records.csv --batch-size 200 \
		--checkpoint-dir $(STREAM_SMOKE_DIR)/ck --max-batches 2
	$(PYTHON) -m repro stream $(STREAM_SMOKE_DIR)/records.csv --batch-size 200 \
		--checkpoint-dir $(STREAM_SMOKE_DIR)/ck --resume
	@rm -rf $(STREAM_SMOKE_DIR)

bench-stream:
	$(PYTHON) benchmarks/bench_stream_ingest.py --check

# The smoke writes outside benchmarks/results/ on purpose: the committed
# BENCH_stream.json holds full-run numbers and fast-mode timings must not
# clobber it.
STREAM_SMOKE_OUT ?= /tmp/BENCH_stream_smoke.json

bench-stream-smoke:
	POWER_BENCH_FAST=1 $(PYTHON) benchmarks/bench_stream_ingest.py --check \
		--out $(STREAM_SMOKE_OUT)

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

bench-serve:
	$(PYTHON) benchmarks/bench_serve_throughput.py --check

# Like the stream smoke: fast-mode timings must not clobber the committed
# full-run BENCH_serve.json.
SERVE_SMOKE_OUT ?= /tmp/BENCH_serve_smoke.json

bench-serve-smoke:
	POWER_BENCH_FAST=1 $(PYTHON) benchmarks/bench_serve_throughput.py --check \
		--out $(SERVE_SMOKE_OUT)

bench-e2e-smoke:
	$(PYTHON) -m pytest benchmarks/e2e -q
	$(PYTHON) benchmarks/e2e/harness.py run --smoke --workload resolve-acmpub \
		--workload shard-acmpub --repeats 1
