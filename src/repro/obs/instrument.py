"""The process-wide observability handle and the pipeline's hook points.

:class:`Observability` bundles one tracer and one metrics registry;
:func:`current` returns the installed handle (a permanently-disabled
singleton by default) and :func:`activated` swaps a live one in for a
``with`` block.  Pipeline code *always* calls the
hooks — they cost an attribute check when observability is off — so
turning tracing on is a pure runtime decision (a CLI flag, a test
fixture), never a code path change.

Hook inventory (each documents the metric names it owns):

* :func:`observe_round` — per-round selection accounting; **returns the
  vertex batch it was shown, unchanged**.  The returned list is what the
  selector actually asks, which makes this the exact seam the
  ``obs-perturbs-selection`` mutant attacks and the
  ``check_observability_transparent`` battery step certifies.
* :func:`record_selection_metrics` — the canonical mapping from the
  run's ``SelectionResult.extras["selection"]`` counts onto registry
  metrics.
* :class:`timed` — the one timed region: a span, a seconds histogram and
  the caller's own ``seconds`` all come from the same two reads of the
  tracer's clock.  Resolve stages (a streamed batch's included),
  selection cover and propagate, and baseline runs are timed through it.

Transparency contract: hooks read, record, and return their inputs
untouched; they never consume RNG state, mutate graphs/colorings, or
reorder batches.
"""

from __future__ import annotations

import threading
from contextlib import contextmanager
from dataclasses import dataclass, field

from .metrics import COUNT_BOUNDARIES, MetricsRegistry, SECONDS_BOUNDARIES
from .trace import Tracer


@dataclass
class Observability:
    """One run's observability handle: tracer + registry.

    Args:
        tracing: record spans (hierarchical timings).
        metrics: record registry metrics.  The registry object always
            exists so call sites stay branch-free; this flag gates the
            hooks that would populate it.
    """

    tracing: bool = True
    metrics: bool = True
    registry: MetricsRegistry = field(default_factory=MetricsRegistry)
    tracer: Tracer = field(init=False)

    def __post_init__(self) -> None:
        self.tracer = Tracer(enabled=self.tracing)

    @property
    def enabled(self) -> bool:
        """True when any instrumentation (spans or metrics) is live."""
        return self.tracing or self.metrics


#: The inert default: hooks bail out, spans are the shared no-op.
DISABLED = Observability(tracing=False, metrics=False)

_installed = DISABLED
_install_lock = threading.Lock()


def current() -> Observability:
    """The installed observability handle (the disabled singleton if none)."""
    return _installed


@contextmanager
def activated(obs: Observability | None = None):
    """Install *obs* (default: a fresh fully-enabled handle) for a block.

    Installation is process-global — the pipeline's stages, the engine
    and the stream all pick it up through :func:`current` — and always
    restored, so a crashed run cannot leak an active tracer into the
    next test.
    """
    global _installed
    obs = obs or Observability()
    with _install_lock:
        previous = _installed
        _installed = obs
    try:
        yield obs
    finally:
        with _install_lock:
            _installed = previous


# --------------------------------------------------------------------------- #
# Pipeline hooks
# --------------------------------------------------------------------------- #


def observe_round(
    obs: Observability,
    selector_name: str,
    round_index: int,
    vertices: list[int],
) -> list[int]:
    """Record one selection round; returns the batch unchanged.

    Metrics: ``repro_selection_rounds_total`` and
    ``repro_selection_questions_total`` counters plus the
    ``repro_selection_round_batch_size`` histogram, all labeled
    ``selector=<name>``.
    """
    if obs.metrics:
        registry = obs.registry
        registry.counter(
            "repro_selection_rounds_total",
            "selection rounds executed",
            selector=selector_name,
        ).inc()
        registry.counter(
            "repro_selection_questions_total",
            "vertices sent to the crowd",
            selector=selector_name,
        ).inc(len(vertices))
        registry.histogram(
            "repro_selection_round_batch_size",
            "questions per selection round",
            boundaries=COUNT_BOUNDARIES,
            selector=selector_name,
        ).observe(len(vertices))
    return vertices


def record_selection_metrics(
    obs: Observability, selector_name: str, selection_stats: dict
) -> None:
    """Canonical ``extras["selection"]`` → registry mapping.

    ==============================  =======================================
    extras key                      metric
    ==============================  =======================================
    ``rounds``                      ``repro_selection_rounds`` gauge
    ``incremental``                 ``repro_selection_incremental`` gauge
    ``engine.covers``               ``repro_selection_path_covers_total``
    ``engine.scratch_builds``       ``repro_selection_scratch_builds_total``
    ``engine.deleted_vertices``     ``repro_selection_deleted_vertices_total``
    ==============================  =======================================

    Times are not in the dict: they are :class:`timed` regions.
    """
    if not obs.metrics:
        return
    registry = obs.registry
    labels = {"selector": selector_name}
    registry.gauge(
        "repro_selection_rounds", "selection rounds in the last run", **labels
    ).set(selection_stats.get("rounds", 0))
    registry.gauge(
        "repro_selection_incremental",
        "1 when the incremental selection engine was active",
        **labels,
    ).set(1.0 if selection_stats.get("incremental") else 0.0)
    engine_stats = selection_stats.get("engine") or {}
    for key, metric_name in (
        ("covers", "repro_selection_path_covers_total"),
        ("scratch_builds", "repro_selection_scratch_builds_total"),
        ("deleted_vertices", "repro_selection_deleted_vertices_total"),
    ):
        if key in engine_stats:
            registry.counter(
                metric_name, f"incremental path-cover engine: {key}", **labels
            ).inc(engine_stats[key])


def record_stream_batch(obs: Observability, report: dict) -> None:
    """One streaming-resolution batch → ``repro_stream_*`` metrics.

    Same transparency contract as every other hook: reads the finished
    batch report, never steers the run.
    """
    if not obs.metrics:
        return
    registry = obs.registry
    registry.counter(
        "repro_stream_batches_total", "streaming resolution: batches ingested"
    ).inc()
    for key, name in (
        ("new_records", "repro_stream_records_total"),
        ("new_pairs", "repro_stream_pairs_total"),
        ("questions", "repro_stream_questions_total"),
    ):
        registry.counter(
            name, f"streaming resolution: {key.replace('_', ' ')}"
        ).inc(report.get(key, 0))


def record_serve_request(
    obs: Observability, op: str, seconds: float, status: str
) -> None:
    """One serve-protocol request → ``repro_serve_*`` metrics.

    Metrics: ``repro_serve_requests_total`` counter labeled
    ``op=<op>, status=<ok|error|shed>``, the ``repro_serve_shed_total``
    counter when the request was load-shed, and the
    ``repro_serve_request_seconds`` histogram labeled ``op=<op>``.
    """
    if not obs.metrics:
        return
    registry = obs.registry
    registry.counter(
        "repro_serve_requests_total",
        "serve: protocol requests handled",
        op=op,
        status=status,
    ).inc()
    if status == "shed":
        registry.counter(
            "repro_serve_shed_total",
            "serve: requests refused by admission control",
            op=op,
        ).inc()
    registry.histogram(
        "repro_serve_request_seconds",
        "serve: wall seconds per protocol request",
        boundaries=SECONDS_BOUNDARIES,
        op=op,
    ).observe(seconds)


def record_serve_sessions(
    obs: Observability, resident: int, known: int
) -> None:
    """Session-registry occupancy → ``repro_serve_sessions_*`` gauges."""
    if not obs.metrics:
        return
    registry = obs.registry
    registry.gauge(
        "repro_serve_sessions_resident",
        "serve: resolver sessions currently in memory",
    ).set(resident)
    registry.gauge(
        "repro_serve_sessions_known",
        "serve: sessions resident or restorable from the checkpoint root",
    ).set(known)


def record_serve_event(obs: Observability, event: str) -> None:
    """One registry lifecycle event → ``repro_serve_<event>_total``.

    Events: ``evictions``, ``restores``, ``drain_checkpoints``.
    """
    if not obs.metrics:
        return
    obs.registry.counter(
        f"repro_serve_{event}_total", f"serve: session {event}"
    ).inc()


#: The seconds histograms a :class:`timed` region can feed, with their help.
TIMED_HISTOGRAMS: dict[str, str] = {
    "repro_pipeline_stage_seconds": "wall seconds per resolution pipeline stage",
    "repro_selection_cover_seconds": "per-round question-selection (path cover) seconds",
    "repro_selection_propagate_seconds": "per-round answer propagation seconds",
}


class timed:
    """Time one region once, for its span, its histogram and its caller.

    The region reads the tracer's clock once at each end.  With tracing
    on, those reads open and close the span *name* (with *attributes*);
    with metrics on and no exception, their difference is observed into
    *histogram*, a ``(metric name, labels)`` pair naming one of
    :data:`TIMED_HISTOGRAMS`; either way it is left on ``.seconds``.  So a
    :class:`~repro.obs.clock.ManualClock` on the tracer drives all three,
    and a number a caller reports (Fig. 30's assignment time, a stream
    batch's ``join_seconds``) is the sum of the spans it stands for.
    """

    __slots__ = (
        "_obs", "_name", "_histogram", "_attributes", "_context", "_started", "seconds",
    )

    def __init__(
        self,
        obs: Observability,
        name: str,
        histogram: tuple[str, dict] | None = None,
        **attributes,
    ) -> None:
        self._obs = obs
        self._name = name
        self._histogram = histogram
        self._attributes = attributes
        self._context = None
        self.seconds = 0.0

    def __enter__(self) -> "timed":
        tracer = self._obs.tracer
        if tracer.enabled:
            self._context = tracer.span(self._name, **self._attributes)
            self._context.__enter__()
        else:
            self._started = tracer.clock.wall()
        return self

    def __exit__(self, exc_type, exc, traceback) -> None:
        if self._context is not None:
            self._context.__exit__(exc_type, exc, traceback)
            self.seconds = self._context.span.wall_seconds
        else:
            self.seconds = self._obs.tracer.clock.wall() - self._started
        if self._histogram is not None and self._obs.metrics and exc_type is None:
            name, labels = self._histogram
            self._obs.registry.histogram(name, TIMED_HISTOGRAMS[name], **labels).observe(
                self.seconds
            )

    def set_attribute(self, key: str, value) -> None:
        """Set an attribute on the region's span (a no-op untraced)."""
        if self._context is not None:
            self._context.span.set_attribute(key, value)


__all__ = [
    "DISABLED",
    "Observability",
    "TIMED_HISTOGRAMS",
    "activated",
    "current",
    "observe_round",
    "record_selection_metrics",
    "record_serve_event",
    "record_serve_request",
    "record_serve_sessions",
    "record_stream_batch",
    "timed",
]
