"""One end-to-end benchmark for the Power/Power+ resolver and its server.

Four workloads measure the two paths a user runs: ``PowerResolver.resolve``
with its default configuration, and ingest requests to a ``repro serve``
server.  ``README.md`` next to this file says why each workload exists.

One run, one workload (the benchmark contract; prints one JSON line last)::

    python3 benchmarks/e2e/harness.py once --workload resolve-cora \\
        --seed 0 --seconds 20 --trace 0

Interleaved repeats of every workload in fresh processes, a traced run
each, digest agreement across all of them, and a summary table::

    python3 benchmarks/e2e/harness.py run [--workload W] [--repeats 3] \\
        [--seed 0] [--smoke]

``--seed`` picks the record order of every input (a seeded permutation
of fixed generated tables), so different seeds are different inputs of
the same shape.  ``--smoke`` shrinks every input for a quick check.
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import itertools
import json
import os
import resource
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent.parent
SRC = ROOT / "src"
RESULTS = HERE / "results"
BASELINE = HERE / "baseline.json"
BENCHMARK = ROOT / "BENCHMARK.json"

WORKLOADS = ("resolve-acmpub", "resolve-cora", "shard-acmpub", "serve-churn")

#: End-to-end metrics (from untraced runs) and their units.
E2E_UNITS = {
    "setup_s": "s",
    "latency_p50_s": "s",
    "latency_p90_s": "s",
    "throughput_per_s": "1/s",
    "questions": "count",
    "crowd_rounds": "count",
    "cost_cents": "cents",
    "f_measure": "fraction",
    "peak_rss_mb": "MiB",
}

#: Per-layer metrics (from the traced run) and their units.
LAYER_UNITS = {
    "similarity.join_s": "s",
    "similarity.candidate_pairs": "count",
    "similarity.vectorize_s": "s",
    "graph.construct_s": "s",
    "graph.vertices": "count",
    "selection.select_s": "s",
    "selection.rounds": "count",
    "selection.inferred_per_question": "ratio",
    "core.cluster_s": "s",
    "shard.join_s": "s",
    "shard.vectors_s": "s",
    "shard.adjacency_s": "s",
    "shard.votes_s": "s",
    "shard.coordinator_s": "s",
    "shard.tasks": "count",
    "shard.retries": "count",
    "shard.fallbacks": "count",
    "stream.ingest_s": "s",
    "stream.batches": "count",
    "stream.checkpoint_s": "s",
    "stream.checkpoints": "count",
    "stream.restore_s": "s",
    "stream.restores": "count",
    "serve.wait_s": "s",
    "serve.evictions": "count",
    "serve.shed": "count",
    "bench.stage_coverage": "ratio",
    "bench.trace_overhead_frac": "ratio",
}

#: Set-up is timed this many times per run; ``setup_s`` reports the median.
SETUP_TRIALS = 3

#: Nominal seconds of one :func:`reference_kernel` call: about its median
#: on a quiet 2-vCPU Intel Xeon VM (Python 3.11, NumPy 2.4).  Every timing
#: is reported scaled by ``REFERENCE_SECONDS / measured kernel seconds``.
REFERENCE_SECONDS = 0.04

#: Serve load: closed-loop client connections, each owning an equal share
#: of the tenants and sending round-robin across them.
CONNECTIONS = 2
SERVE_ATTRIBUTES = ("name", "city", "cuisine")


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``SMOKE`` shrinks every one of them."""

    acmpub_scale: float
    cora_records: int | None  # None: the whole generated table
    inputs: int  # distinct record orders each resolve run cycles through
    tenants: int
    batches: int
    batch_rows: int
    max_sessions: int


FULL = Sizes(0.05, None, 4, 8, 8, 40, 4)
SMOKE = Sizes(0.01, 300, 2, 4, 3, 20, 2)


@dataclass
class Unit:
    """One unit of measured work: a resolve, or one serve load round."""

    key: int  # which distinct input it ran on
    digest: str
    samples: list[float]  # one latency per operation
    busy: float  # seconds from the first operation's start to the last's end
    questions: int
    rounds: int
    cost_cents: int
    true_positives: int
    false_positives: int
    false_negatives: int
    failed: int = 0  # operations refused or answered with an error
    pace: float = REFERENCE_SECONDS  # reference kernel seconds around this unit

    @property
    def f_measure(self) -> float:
        tp, fp, fn = self.true_positives, self.false_positives, self.false_negatives
        precision = tp / (tp + fp) if tp + fp else 1.0
        recall = tp / (tp + fn) if tp + fn else 1.0
        return 2 * precision * recall / (precision + recall) if precision + recall else 0.0


def sha256(payload) -> str:
    return hashlib.sha256(json.dumps(payload, sort_keys=True).encode()).hexdigest()


def permuted(table, seed: int, key: int):
    """``(table in a seeded record order, new id -> original id)``."""
    import numpy as np
    from repro.data import Table

    order = [int(i) for i in np.random.default_rng([seed, key]).permutation(len(table))]
    rows = [table[i].values for i in order]
    entities = [table[i].entity_id for i in order]
    return Table.from_rows(table.name, table.attributes, rows, entities), order


# --------------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------------- #


class ResolveWorkload:
    """resolve-acmpub, resolve-cora and shard-acmpub: one resolve per unit.

    Each run cycles through ``sizes.inputs`` record orders of one table, so
    its crowd numbers average over that many simulated crowds.
    """

    def __init__(self, name: str, sizes: Sizes, seed: int) -> None:
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.dataset = name.split("-")[1]
        self.min_units = sizes.inputs
        self.pairs_digests: dict[int, str] = {}
        suffix = "@smoke" if sizes is SMOKE else ""
        # baseline.json keys: the seed-0 result digest, the join digest
        self.pin_keys = (name + suffix, self.dataset + suffix)

    def setup(self) -> None:
        from repro import PowerConfig, PowerResolver
        from repro.data import Table, acmpub, cora
        from repro.shard import ShardedResolver

        if self.dataset == "acmpub":
            base = acmpub(scale=self.sizes.acmpub_scale, seed=13)
            # The paper's ACMPub pruning threshold; cora keeps the default.
            self.config = PowerConfig(seed=0, pruning_threshold=0.3)
        else:
            base = cora(seed=11)
            if self.sizes.cora_records is not None:
                kept = base.records[: self.sizes.cora_records]
                base = Table.from_rows(
                    base.name,
                    base.attributes,
                    [r.values for r in kept],
                    [r.entity_id for r in kept],
                )
            self.config = PowerConfig(seed=0)
        self.inputs = [permuted(base, self.seed, key) for key in range(self.sizes.inputs)]
        if self.name.startswith("shard"):
            self.resolver = ShardedResolver(self.config, workers=2)
        else:
            self.resolver = PowerResolver(self.config)

    def teardown(self) -> None:
        pass

    def close(self) -> None:
        pass

    def pace(self, tracer) -> float:
        return host_pace(tracer)

    def unit(self, index: int, tracer) -> Unit:
        key = index % len(self.inputs)
        table, order = self.inputs[key]
        started = time.perf_counter()
        if tracer is None:
            result = self.resolver.resolve(table)
        else:
            result = tracer.call(
                "bench.unit", self.resolver.resolve, (table,), attrs=unit_attrs
            )
        elapsed = time.perf_counter() - started
        if key not in self.pairs_digests:
            self.pairs_digests[key] = sha256(
                sorted(sorted((order[a], order[b])) for a, b in result.candidate_pairs)
            )
        quality = result.quality
        return Unit(
            key=key,
            digest=resolution_digest(result),
            samples=[elapsed],
            busy=elapsed,
            questions=result.questions,
            rounds=result.iterations,
            cost_cents=result.cost_cents,
            true_positives=quality.true_positives,
            false_positives=quality.false_positives,
            false_negatives=quality.false_negatives,
        )

    def verify(self, units: list[Unit], pins: dict) -> list[str]:
        problems = []
        expected = pins.get("pairs", {}).get(self.pin_keys[1])
        for key, digest in sorted(self.pairs_digests.items()):
            if expected is not None and digest != expected:
                problems.append(
                    f"input {key}: candidate pairs, mapped back to the unpermuted "
                    "table, differ from the pinned join result"
                )
        if self.name.startswith("shard"):
            from repro import PowerResolver

            serial = resolution_digest(PowerResolver(self.config).resolve(self.inputs[0][0]))
            if serial != units[0].digest:
                problems.append("the sharded resolve differs from the serial one on input 0")
        return problems


def resolution_digest(result) -> str:
    return sha256(
        [sorted(result.matches), result.questions, result.iterations, result.cost_cents]
    )


def unit_attrs(result) -> dict:
    """Counts recorded on a resolve's ``bench.unit`` span."""
    state = result.selection.state
    attrs = {
        "questions": result.questions,
        "rounds": result.iterations,
        "decided": len(state.graph) - len(state.uncolored()),
    }
    executor = result.selection.extras.get("shard", {}).get("executor", {})
    for name in ("tasks", "retries", "fallbacks"):
        attrs[name] = executor.get(name, 0)
    return attrs


def _restaurant_entity(rng):
    from repro.data.vocab import CITIES, CUISINES, RESTAURANT_NAME_HEADS

    return (
        f"{RESTAURANT_NAME_HEADS[int(rng.integers(len(RESTAURANT_NAME_HEADS)))]} house",
        CITIES[int(rng.integers(len(CITIES)))],
        CUISINES[int(rng.integers(len(CUISINES)))],
    )


@dataclass
class Tenant:
    name: str
    batches: list[tuple[list[list[str]], list[int]]]  # (rows, entity ids)
    gold: set  # true match pairs, by record id in arrival order


class ServeWorkload:
    """serve-churn: a ``repro serve`` child process under tenant churn.

    A unit is one load round: every tenant streams all its batches, then
    is queried, closed and deleted, so each round starts from nothing and
    must end in the same state.  The server keeps fewer sessions resident
    than there are tenants, so ingests keep evicting and restoring them.
    """

    def __init__(self, name: str, sizes: Sizes, seed: int, trace_to) -> None:
        self.name = name
        self.sizes = sizes
        self.seed = seed
        self.trace_to = trace_to  # (trace file, run id) for the server, or None
        self.min_units = 1
        self.pin_keys = (name + ("@smoke" if sizes is SMOKE else ""), None)
        self.root = RESULTS / f"serve-{os.getpid()}"
        self.server: subprocess.Popen | None = None
        self.t0_state = None

    def setup(self) -> None:
        from repro.data import synthesize, true_match_pairs
        from repro.data.perturb import LIGHT_PERTURBATIONS

        records = self.sizes.batches * self.sizes.batch_rows
        self.tenants = []
        for index in range(self.sizes.tenants):
            base = synthesize(
                name=f"t{index}",
                attributes=SERVE_ATTRIBUTES,
                entity_factory=_restaurant_entity,
                num_entities=int(records * 0.6),
                num_records=records,
                seed=99 + index,
                intensity=0.4,
                pool=LIGHT_PERTURBATIONS,
            )
            table, _ = permuted(base, self.seed, index)
            rows = [list(record.values) for record in table]
            ids = [record.entity_id for record in table]
            step = self.sizes.batch_rows
            self.tenants.append(
                Tenant(
                    name=f"t{index}",
                    batches=[
                        (rows[lo : lo + step], ids[lo : lo + step])
                        for lo in range(0, records, step)
                    ],
                    gold=true_match_pairs(table),
                )
            )
        shutil.rmtree(self.root, ignore_errors=True)
        self.server, self.port = spawn_server(
            self.root / "server", self.sizes.max_sessions, self.trace_to
        )

    def teardown(self) -> None:
        if self.server is not None:
            stop_server(self.server)
            self.server = None

    def close(self) -> None:
        self.teardown()
        shutil.rmtree(self.root, ignore_errors=True)

    def pace(self, tracer) -> float:
        """The reference pace on both CPUs at once: server and client.

        The server and this client both work during a round, usually on
        different CPUs, so one process's pace alone does not track it.
        """
        started = time.perf_counter()
        self.server.send_signal(signal.SIGUSR1)
        client = reference_pace()
        pace = (float(read_line(self.server, "PACE ").split()[1]) + client) / 2
        if tracer is not None:
            tracer.record("bench.pace", started, time.perf_counter(), {"kernel_s": pace})
        return pace

    def unit(self, index: int, tracer) -> Unit:
        if tracer is None:
            return asyncio.run(self._round(None))
        return tracer.call(
            "bench.unit",
            lambda: asyncio.run(self._round(tracer)),
            attrs=lambda unit: {"rounds": unit.rounds},
        )

    async def _round(self, tracer) -> Unit:
        from repro.core.metrics import pairwise_quality
        from repro.serve import AsyncServeClient

        samples: list[float] = []
        counts = {"failed": 0, "rounds": 0}
        share = len(self.tenants) // CONNECTIONS
        groups = [self.tenants[c * share : (c + 1) * share] for c in range(CONNECTIONS)]

        async def drive(client, tenants) -> None:
            for batch in range(self.sizes.batches):
                for tenant in tenants:
                    rows, ids = tenant.batches[batch]
                    started = time.perf_counter()
                    response = await client.request(
                        "ingest", session=tenant.name, rows=rows, entity_ids=ids
                    )
                    ended = time.perf_counter()
                    samples.append(ended - started)
                    if tracer is not None:
                        tracer.record("serve.ingest", started, ended)
                    if response.get("ok"):
                        counts["rounds"] += response["iterations"]
                    else:
                        counts["failed"] += 1

        clients = [AsyncServeClient(port=self.port) for _ in range(CONNECTIONS)]
        for client in clients:
            await client.connect()
        try:
            for client, tenants in zip(clients, groups):
                for tenant in tenants:
                    await client.call(
                        "create_session", session=tenant.name, attributes=list(SERVE_ATTRIBUTES)
                    )
            before = server_counters(await clients[0].call("metrics"))
            started = time.perf_counter()
            await asyncio.gather(*(drive(c, t) for c, t in zip(clients, groups)))
            busy = time.perf_counter() - started
            after = server_counters(await clients[0].call("metrics"))
            states, questions, cost, tp, fp, fn = [], 0, 0, 0, 0, 0
            for client, tenants in zip(clients, groups):
                for tenant in tenants:
                    final = await client.call("query_clusters", session=tenant.name)
                    closed = await client.call("close", session=tenant.name)
                    predicted = {
                        pair
                        for cluster in final["clusters"]
                        for pair in itertools.combinations(sorted(cluster), 2)
                    }
                    quality = pairwise_quality(predicted, tenant.gold)
                    tp += quality.true_positives
                    fp += quality.false_positives
                    fn += quality.false_negatives
                    questions += final["questions"]
                    cost += final["cost_cents"]
                    states.append((tenant.name, closed["state_sha"]))
                    shutil.rmtree(self.root / "server" / tenant.name)
        finally:
            for client in clients:
                await client.close()
        if tracer is not None:
            tracer.record(
                "serve.counters",
                started,
                started,
                {name: after[name] - before[name] for name in after},
            )
        if self.t0_state is None:
            self.t0_state = dict(states)["t0"]
        return Unit(
            key=0,
            digest=sha256([sorted(states), questions, counts["rounds"], cost]),
            samples=samples,
            busy=busy,
            questions=questions,
            rounds=counts["rounds"],
            cost_cents=cost,
            true_positives=tp,
            false_positives=fp,
            false_negatives=fn,
            failed=counts["failed"],
        )

    def verify(self, units: list[Unit], pins: dict) -> list[str]:
        """Tenant t0's state must equal a direct, untimed streaming run."""
        from repro import PowerConfig
        from repro.stream import StreamingResolver

        tenant = self.tenants[0]
        direct = StreamingResolver(
            SERVE_ATTRIBUTES,
            config=PowerConfig(),
            name=tenant.name,
            checkpoint_dir=self.root / "direct" / tenant.name,
        )
        for rows, ids in tenant.batches:
            direct.add_batch(rows, entity_ids=ids)
        if direct.checkpoint()["state_sha"] != self.t0_state:
            return ["tenant t0's served state differs from a direct StreamingResolver run"]
        return []


def server_counters(response: dict) -> dict[str, float]:
    """Eviction and shed totals from the server's Prometheus text."""
    totals = {"evictions": 0.0, "shed": 0.0}
    for line in response["metrics"].splitlines():
        for name in totals:
            if line.startswith(f"repro_serve_{name}_total"):
                totals[name] += float(line.rsplit(" ", 1)[1])
    return totals


def spawn_server(root: Path, max_sessions: int, trace_to):
    """Start the launcher child and wait until it listens; ``(proc, port)``."""
    command = [
        sys.executable,
        str(HERE / "serve_launcher.py"),
        "--root",
        str(root),
        "--max-sessions",
        str(max_sessions),
    ]
    if trace_to is not None:
        command += ["--trace-out", str(trace_to[0]), "--run-id", trace_to[1]]
    proc = subprocess.Popen(command, stdout=subprocess.PIPE)
    try:
        return proc, int(read_line(proc, "READY ").split()[1])
    except RuntimeError:
        stop_server(proc)
        raise


def read_line(proc: subprocess.Popen, prefix: str, timeout: float = 120) -> str:
    """The launcher's next stdout line, which must start with *prefix*."""
    with selectors.DefaultSelector() as selector:
        selector.register(proc.stdout, selectors.EVENT_READ)
        line = proc.stdout.readline().decode() if selector.select(timeout) else ""
    if not line.startswith(prefix):
        raise RuntimeError(f"the serve launcher did not answer {prefix.strip()}")
    return line


def stop_server(proc: subprocess.Popen) -> None:
    """SIGTERM (the server drains), then wait; kill if it will not end."""
    if proc.poll() is None:
        proc.send_signal(signal.SIGTERM)
    try:
        proc.wait(timeout=60)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
    proc.stdout.close()


def make_workload(name: str, sizes: Sizes, seed: int, trace_to=None):
    if name == "serve-churn":
        return ServeWorkload(name, sizes, seed, trace_to)
    return ResolveWorkload(name, sizes, seed)


# --------------------------------------------------------------------------- #
# One run
# --------------------------------------------------------------------------- #


def reference_kernel() -> float:
    """Seconds a fixed interpreter + NumPy kernel takes right now.

    The host's CPUs are shared, and its speed drifts by 15% or more over a
    minute, for the program and this kernel alike.  The kernel shares no
    code with the program, so a change to the program cannot move it; the
    ratio of the two keeps the program's cost and drops the drift.
    """
    import numpy as np

    started = time.perf_counter()
    total = 0
    for value in range(300_000):
        total += value * value
    # Small arrays: the kernel must not raise the run's peak RSS.
    values = np.arange(100_000, dtype=np.float64)
    for _ in range(16):
        np.sort((values * 1.5)[::-1])
    return time.perf_counter() - started


def reference_pace() -> float:
    """Median of three :func:`reference_kernel` runs."""
    return statistics.median(reference_kernel() for _ in range(3))


def host_pace(tracer=None) -> float:
    """:func:`reference_pace` in this process; a span when tracing."""
    started = time.perf_counter()
    pace = reference_pace()
    if tracer is not None:
        tracer.record("bench.pace", started, time.perf_counter(), {"kernel_s": pace})
    return pace


def quantile(values: list[float], share: float) -> float:
    if len(values) == 1:
        return values[0]
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[round(share * 100) - 1]


def end_to_end_metrics(units: list[Unit], setup_s: float) -> dict[str, float]:
    """The end-to-end metrics, timings in host-normalised seconds."""
    samples = [
        sample * REFERENCE_SECONDS / unit.pace for unit in units for sample in unit.samples
    ]
    busy = sum(unit.busy * REFERENCE_SECONDS / unit.pace for unit in units)
    firsts = list({unit.key: unit for unit in reversed(units)}.values())
    usage = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    usage += resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return {
        "setup_s": setup_s,
        "latency_p50_s": statistics.median(samples),
        "latency_p90_s": quantile(samples, 0.9),
        "throughput_per_s": len(samples) / busy,
        "questions": statistics.fmean(unit.questions for unit in firsts),
        "crowd_rounds": statistics.fmean(unit.rounds for unit in firsts),
        "cost_cents": statistics.fmean(unit.cost_cents for unit in firsts),
        "f_measure": statistics.fmean(unit.f_measure for unit in firsts),
        "peak_rss_mb": usage / 1024,
    }


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer metrics, per unit of work, from the trace file's spans.

    Times are host-normalised like the end-to-end ones, by the median of
    the run's ``bench.pace`` spans.
    """
    from tracing import layer_totals

    seconds, counts = layer_totals(spans)
    unit_ids = {span["id"] for span in spans if span["name"] == "bench.unit"}
    covered = sum(span["end"] - span["start"] for span in spans if span["parent"] in unit_ids)
    coverage = covered / seconds["bench.unit"]
    overhead = sum(span["overhead"] for span in spans) / seconds["bench.unit"]
    paces = [span["attrs"]["kernel_s"] for span in spans if span["name"] == "bench.pace"]
    scale = REFERENCE_SECONDS / statistics.median(paces)
    seconds = {name: value * scale for name, value in seconds.items()}
    units = counts["bench.unit"]["spans"]
    unit_counts = counts["bench.unit"]

    def per_unit(name: str) -> float:
        return seconds.get(name, 0.0) / units

    def count(name: str, attribute: str = "spans") -> float:
        return counts.get(name, {}).get(attribute, 0.0) / units

    shard_names = ("shard.join", "shard.vectors", "shard.adjacency", "shard.votes")
    shard_seconds = sum(seconds.get(name, 0.0) for name in shard_names)
    decided = unit_counts.get("decided", 0.0)
    asked = unit_counts.get("questions", 0.0)
    metrics = {
        "similarity.join_s": per_unit("similarity.join"),
        "similarity.candidate_pairs": count("similarity.join", "pairs")
        + count("shard.join", "pairs"),
        "similarity.vectorize_s": per_unit("similarity.vectorize"),
        "graph.construct_s": per_unit("graph.construct"),
        "graph.vertices": count("graph.construct", "vertices"),
        "selection.select_s": per_unit("selection.select"),
        "selection.rounds": count("bench.unit", "rounds"),
        "selection.inferred_per_question": decided / asked if asked else 0.0,
        "core.cluster_s": per_unit("core.cluster"),
        "shard.coordinator_s": per_unit("bench.unit") - shard_seconds / units
        if shard_seconds
        else 0.0,
        "stream.ingest_s": per_unit("stream.ingest"),
        "stream.batches": count("stream.ingest"),
        "stream.checkpoint_s": per_unit("stream.checkpoint"),
        "stream.checkpoints": count("stream.checkpoint"),
        "stream.restore_s": per_unit("stream.restore"),
        "stream.restores": count("stream.restore"),
        "serve.wait_s": per_unit("serve.ingest") - per_unit("stream.ingest")
        if "serve.ingest" in seconds
        else 0.0,
        "serve.evictions": count("serve.counters", "evictions"),
        "serve.shed": count("serve.counters", "shed"),
        "bench.stage_coverage": coverage,
        "bench.trace_overhead_frac": overhead,
    }
    for name in shard_names:
        metrics[name + "_s"] = per_unit(name)
    for name in ("tasks", "retries", "fallbacks"):
        metrics["shard." + name] = count("bench.unit", name)
    return {name: metrics[name] for name in LAYER_UNITS}


def load_pins() -> dict:
    if not BASELINE.exists():
        return {}
    return json.loads(BASELINE.read_text())["pinned"]


def run_once(name: str, seed: int, seconds: float, trace: bool, sizes: Sizes, import_s: float):
    """Measure one workload; returns ``(result line dict, digest, problems)``."""
    from tracing import Tracer, install_layer_spans, read_trace

    tracer = trace_to = None
    if trace:
        trace_path = RESULTS / f"trace-{name}.jsonl"
        RESULTS.mkdir(parents=True, exist_ok=True)
        trace_path.unlink(missing_ok=True)
        tracer = Tracer(f"{name}-seed{seed}-{os.getpid()}")
        trace_to = (trace_path, tracer.run_id)
    workload = make_workload(name, sizes, seed, trace_to)
    setup_s = import_s * REFERENCE_SECONDS / host_pace(tracer)
    try:
        setups = []
        for trial in range(SETUP_TRIALS):
            if trial:
                workload.teardown()
            started = time.perf_counter()
            workload.setup()
            elapsed = time.perf_counter() - started
            setups.append(elapsed * REFERENCE_SECONDS / host_pace(tracer))
        setup_s += statistics.median(setups)
        uninstall = install_layer_spans(tracer) if tracer is not None else None
        units: list[Unit] = []
        pace = workload.pace(tracer)
        started = time.perf_counter()
        try:
            while len(units) < workload.min_units or time.perf_counter() - started < seconds:
                unit = workload.unit(len(units), tracer)
                after = workload.pace(tracer)
                unit.pace = (pace + after) / 2
                pace = after
                units.append(unit)
        finally:
            if uninstall is not None:
                uninstall()
        pins = load_pins()
        problems = workload.verify(units, pins)
    finally:
        workload.close()

    attempted = sum(len(unit.samples) for unit in units)
    failed = sum(unit.failed for unit in units)
    first: dict[int, str] = {}
    for unit in units:
        if first.setdefault(unit.key, unit.digest) != unit.digest:
            problems.append(f"input {unit.key}: a repeat gave a different result")
    digest = sha256([first[key] for key in sorted(first)])
    pinned = pins.get("digests", {}).get(workload.pin_keys[0])
    if seed == 0 and pinned is not None and pinned != digest:
        problems.append(f"digest {digest[:12]} differs from the pinned {pinned[:12]}")
    if problems:  # a wrong result makes every operation of the run suspect
        failed = attempted
    raw = statistics.median(sample for unit in units for sample in unit.samples)
    print(
        f"{name}: {attempted} operations in {len(units)} units; raw median "
        f"{raw:.4f} s; reference kernel {statistics.median(u.pace for u in units):.4f} s "
        f"(nominal {REFERENCE_SECONDS} s)",
        file=sys.stderr,
    )

    if tracer is not None:
        tracer.write(trace_path)
        metrics = layer_metrics(read_trace(trace_path))
        units_of = LAYER_UNITS
    else:
        metrics = end_to_end_metrics(units, setup_s)
        units_of = E2E_UNITS
    line = {
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            metric: {"value": value, "unit": units_of[metric]}
            for metric, value in metrics.items()
        },
    }
    return line, digest, problems


# --------------------------------------------------------------------------- #
# Interleaved repeats
# --------------------------------------------------------------------------- #


def iqr(values: list[float]) -> float:
    if len(values) < 2:
        return 0.0
    low, _, high = statistics.quantiles(values, n=4)
    return high - low


def orchestrate(names, repeats: int, seed: int, seconds: float, smoke: bool) -> int:
    """Round-robin untraced repeats, then one traced run per workload."""
    from tracing import read_trace, self_times

    schedule = [(name, 0) for _ in range(repeats) for name in names]
    schedule += [(name, 1) for name in names]
    runs: dict[str, list[tuple[int, dict, str]]] = defaultdict(list)
    failures = []
    for name, trace in schedule:
        command = [
            sys.executable,
            str(Path(__file__).resolve()),
            "once",
            "--workload",
            name,
            "--seed",
            str(seed),
            "--seconds",
            str(seconds),
            "--trace",
            str(trace),
        ] + (["--smoke"] if smoke else [])
        started = time.perf_counter()
        proc = subprocess.run(command, capture_output=True, text=True, timeout=900)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            failures.append(f"{name} trace={trace}: exit {proc.returncode}\n{proc.stderr}")
        if not lines:
            continue
        line = json.loads(lines[-1])
        digest = next(
            (text.split()[1] for text in lines if text.startswith("digest: ")), ""
        )
        runs[name].append((trace, line, digest))
        print(
            f"{name:15s} trace={trace} {time.perf_counter() - started:6.1f}s "
            f"correct={line['correct']} digest={digest[:12]}",
            file=sys.stderr,
        )
    summary = {}
    for name in names:
        entries = runs[name]
        if len({digest for _, _, digest in entries}) > 1:
            failures.append(f"{name}: runs disagree on the result digest")
        if not all(line["correct"] for _, line, _ in entries):
            failures.append(f"{name}: a run was not correct")
        untraced = [line for trace, line, _ in entries if not trace]
        traced = [line for trace, line, _ in entries if trace]
        table = {}
        for metric, unit in E2E_UNITS.items():
            values = [line["metrics"][metric]["value"] for line in untraced]
            if values:
                table[metric] = {
                    "median": statistics.median(values),
                    "iqr": iqr(values),
                    "n": len(values),
                    "unit": unit,
                }
        summary[name] = {"end_to_end": table}
        if traced:
            summary[name]["per_layer"] = {
                metric: value["value"] for metric, value in traced[0]["metrics"].items()
            }
            trace_file = RESULTS / f"trace-{name}.jsonl"
            if trace_file.exists():
                summary[name]["self_seconds"] = self_times(read_trace(trace_file))
    RESULTS.mkdir(parents=True, exist_ok=True)
    (RESULTS / "summary.json").write_text(json.dumps(summary, indent=2, sort_keys=True) + "\n")
    for name, entry in summary.items():
        print(f"\n{name}")
        for metric, stats in entry["end_to_end"].items():
            spread = stats["iqr"] / stats["median"] if stats["median"] else 0.0
            print(
                f"  {metric:18s} {stats['median']:14.6g} {stats['unit']:9s} "
                f"IQR/median {spread:6.1%}  n={stats['n']}"
            )
        for metric, value in entry.get("per_layer", {}).items():
            print(f"  {metric:32s} {value:14.6g} {LAYER_UNITS[metric]}")
    for failure in failures:
        print(f"FAIL: {failure}", file=sys.stderr)
    return 1 if failures else 0


# --------------------------------------------------------------------------- #
# Command line
# --------------------------------------------------------------------------- #


def import_program() -> float:
    """Import every layer the workloads use; returns the seconds it took."""
    if not (SRC / "repro").is_dir():
        raise SystemExit(f"the repro package is missing under {SRC}")
    sys.path.insert(0, str(SRC))
    # Hermetic planner: point its profile lookup at a file that never
    # exists, so no calibration on this host changes a run's choices.
    os.environ["REPRO_PLAN_PROFILE"] = str(RESULTS / "no-plan-profile.json")
    started = time.perf_counter()
    import repro  # noqa: F401
    import repro.serve  # noqa: F401
    import repro.shard  # noqa: F401
    import repro.stream  # noqa: F401

    return time.perf_counter() - started


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    commands = parser.add_subparsers(dest="command", required=True)
    once = commands.add_parser("once", help="measure one workload in this process")
    once.add_argument("--workload", choices=WORKLOADS, required=True)
    once.add_argument("--seed", type=int, default=0)
    once.add_argument("--seconds", type=float, default=20.0)
    once.add_argument("--trace", type=int, choices=(0, 1), default=0)
    once.add_argument("--smoke", action="store_true")
    run = commands.add_parser("run", help="interleaved repeats of every workload")
    run.add_argument("--workload", choices=WORKLOADS, action="append")
    run.add_argument("--repeats", type=int, default=3)
    run.add_argument("--seed", type=int, default=0)
    run.add_argument("--smoke", action="store_true")
    args = parser.parse_args(argv)
    sys.path.insert(0, str(HERE))

    if args.command == "run":
        seconds = 1.0 if args.smoke else json.loads(BENCHMARK.read_text())["run_seconds"]
        names = args.workload or list(WORKLOADS)
        return orchestrate(names, args.repeats, args.seed, seconds, args.smoke)

    import_s = import_program()
    sizes = SMOKE if args.smoke else FULL
    line, digest, problems = run_once(
        args.workload, args.seed, args.seconds, bool(args.trace), sizes, import_s
    )
    for problem in problems:
        print(f"FAIL: {problem}", file=sys.stderr)
    print(f"digest: {digest}")
    print(json.dumps(line, sort_keys=True))
    return 0 if line["correct"] else 1


if __name__ == "__main__":
    # A terminated run still stops its server and worker processes.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    sys.exit(main())
