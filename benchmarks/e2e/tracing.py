"""Span recording for the end-to-end benchmark, from outside the program.

The traced run wraps the public entry points of each layer (the pruning
join, vectors, graph construction, selection, clustering, the shard
executor, the streaming resolver) with :class:`Tracer` spans.  Nothing in
``src/`` changes: the wrappers are installed by :func:`install_layer_spans`
and removed again by the function it returns.

Spans stay in memory and are written once, as JSON lines, when the run
ends.  Each line holds ``run``, ``id``, ``parent``, ``name``, ``start``,
``end`` and ``attrs``, plus ``overhead``: the seconds the tracer itself
spent opening and closing that span.  Times come from
``time.perf_counter`` (CLOCK_MONOTONIC on Linux), which every process on
the host shares, so the server child's spans merge with the client's.
The per-layer metrics are derived from the written file alone
(:func:`read_trace`, :func:`layer_totals`), never from a second clock.
"""

from __future__ import annotations

import functools
import json
import os
import threading
import time
from collections import defaultdict
from pathlib import Path

#: Shard task function → span name of the executor call that runs it.
SHARD_TASK_SPANS = {
    "compute_join_pairs": "shard.join",
    "compute_vectors": "shard.vectors",
    "compute_adjacency": "shard.adjacency",
    "compute_vote_deltas": "shard.votes",
}


class Tracer:
    """In-memory span recorder; one per process."""

    def __init__(self, run_id: str) -> None:
        self.run_id = run_id
        self.spans: list[dict] = []
        self._local = threading.local()
        self._lock = threading.Lock()
        self._next = 0
        self._tag = os.getpid()

    def _stack(self) -> list[str]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _new_id(self) -> str:
        with self._lock:
            self._next += 1
            return f"{self._tag}:{self._next}"

    def _open(self) -> tuple[str, str | None]:
        span_id = self._new_id()
        stack = self._stack()
        parent = stack[-1] if stack else None
        stack.append(span_id)
        return span_id, parent

    def call(self, name: str, fn, args=(), kwargs=None, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span named *name*.

        *attrs* maps the call's result to span attributes (counts recorded
        at the same boundary as the time).
        """
        entered = time.perf_counter()
        span_id, parent = self._open()
        start = time.perf_counter()
        try:
            result = fn(*args, **(kwargs or {}))
        finally:
            end = time.perf_counter()
            self._stack().pop()
        record = {
            "run": self.run_id,
            "id": span_id,
            "parent": parent,
            "name": name,
            "start": start,
            "end": end,
            "attrs": attrs(result) if attrs else {},
        }
        record["overhead"] = (start - entered) + (time.perf_counter() - end)
        self.spans.append(record)
        return result

    def record(self, name: str, start: float, end: float, attrs=None) -> None:
        """Add an already-timed span under the current one.

        For work that interleaves on one thread (asyncio requests), where
        a per-thread stack of open spans cannot tell the requests apart.
        """
        entered = time.perf_counter()
        stack = self._stack()
        self.spans.append(
            {
                "run": self.run_id,
                "id": self._new_id(),
                "parent": stack[-1] if stack else None,
                "name": name,
                "start": start,
                "end": end,
                "attrs": attrs or {},
                "overhead": time.perf_counter() - entered,
            }
        )

    def wrap(self, name: str, fn, attrs=None):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, args, kwargs, attrs)

        return traced

    def write(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "a", encoding="utf-8") as handle:
            for span in self.spans:
                handle.write(json.dumps(span, sort_keys=True) + "\n")


def install_layer_spans(tracer: Tracer):
    """Wrap every layer entry point the benchmark reports on.

    Returns a function that restores the originals.
    """
    from repro.core import metrics as core_metrics
    from repro.core import resolver as core_resolver
    from repro.shard import resolver as shard_resolver
    from repro.shard.executor import ShardExecutor
    from repro.stream.service import StreamingResolver

    resolver_class = core_resolver.PowerResolver
    saved: list[tuple[object, str, object]] = []

    def patch(owner, attribute, replacement):
        saved.append((owner, attribute, owner.__dict__[attribute]))
        setattr(owner, attribute, replacement)

    def method(owner, attribute, name, attrs=None):
        patch(owner, attribute, tracer.wrap(name, owner.__dict__[attribute], attrs))

    method(resolver_class, "candidate_pairs", "similarity.join", lambda r: {"pairs": len(r)})
    method(resolver_class, "similarity_vectors", "similarity.vectorize")
    method(resolver_class, "build_graph", "graph.construct", lambda g: {"vertices": len(g)})
    method(core_resolver, "clusters_from_matches", "core.cluster")
    method(core_resolver, "pairwise_quality", "core.cluster")
    method(shard_resolver, "clusters_from_matches", "core.cluster")
    # The sharded resolver imports pairwise_quality at call time.
    method(core_metrics, "pairwise_quality", "core.cluster")

    make_selector = resolver_class.__dict__["make_selector"]

    def traced_make_selector(self):
        selector = make_selector(self)
        selector.run = tracer.wrap("selection.select", selector.run)
        return selector

    patch(resolver_class, "make_selector", traced_make_selector)

    run = ShardExecutor.__dict__["run"]

    def joined_pairs(chunks):
        return {"pairs": sum(len(chunk) for chunk in chunks)}

    def traced_run(self, fn, tasks, weights=None):
        name = SHARD_TASK_SPANS.get(getattr(fn, "__name__", ""), "shard.other")
        attrs = joined_pairs if name == "shard.join" else None
        return tracer.call(name, run, (self, fn, tasks, weights), attrs=attrs)

    patch(ShardExecutor, "run", traced_run)

    method(StreamingResolver, "add_batch", "stream.ingest")
    method(StreamingResolver, "checkpoint", "stream.checkpoint")
    restore = StreamingResolver.__dict__["restore"].__func__
    patch(
        StreamingResolver,
        "restore",
        classmethod(tracer.wrap("stream.restore", restore)),
    )

    def uninstall() -> None:
        for owner, attribute, original in reversed(saved):
            setattr(owner, attribute, original)

    return uninstall


def read_trace(path: Path) -> list[dict]:
    with open(path, encoding="utf-8") as handle:
        return [json.loads(line) for line in handle if line.strip()]


def self_times(spans: list[dict]) -> dict[str, float]:
    """Seconds per span name, minus the part its child spans cover.

    Children can overlap (concurrent requests under one round), so the
    covered part is the union of their intervals.
    """
    children: dict[str, list[tuple[float, float]]] = defaultdict(list)
    for span in spans:
        if span["parent"] is not None:
            children[span["parent"]].append((span["start"], span["end"]))
    totals: dict[str, float] = defaultdict(float)
    for span in spans:
        covered, reach = 0.0, float("-inf")
        for start, end in sorted(children[span["id"]]):
            covered += max(0.0, end - max(start, reach))
            reach = max(reach, end)
        totals[span["name"]] += span["end"] - span["start"] - covered
    return dict(totals)


def layer_totals(spans: list[dict]) -> tuple[dict, dict]:
    """``(seconds, attribute sums)`` per span name, inclusive of children."""
    seconds: dict[str, float] = defaultdict(float)
    counts: dict[str, dict[str, float]] = defaultdict(lambda: defaultdict(float))
    for span in spans:
        seconds[span["name"]] += span["end"] - span["start"]
        counts[span["name"]]["spans"] += 1
        for key, value in span["attrs"].items():
            counts[span["name"]][key] += value
    return dict(seconds), {name: dict(values) for name, values in counts.items()}
