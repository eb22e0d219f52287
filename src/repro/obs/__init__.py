"""repro.obs — unified tracing, metrics, and profiling for the pipeline.

One observability substrate for everything the repo runs: the resolver
stages (join → construct → select → aggregate → cluster), both path-cover
selectors, the streaming service and server, the discrete-event crowd
engine, and the batch-similarity join.  The pieces:

* :mod:`~repro.obs.trace` — hierarchical spans with wall/CPU durations
  and per-thread stacks.
* :mod:`~repro.obs.metrics` — counters, gauges, and fixed-boundary
  histograms in one lock-protected, labeled registry.
* :mod:`~repro.obs.export` — JSONL trace files (``repro trace`` renders
  them), Prometheus text exposition, and console summaries.
* :mod:`~repro.obs.profiler` — an opt-in ``ITIMER_PROF`` sampling
  profiler for hot-path attribution.
* :mod:`~repro.obs.instrument` — the process-global
  :class:`Observability` handle, :func:`activated`, and the hook
  functions the pipeline calls.
* :mod:`~repro.obs.telemetry` — the engine's :class:`Telemetry`,
  re-hosted on the shared registry (its only import path; ``repro.engine``
  re-exports it).

Everything is off by default and provably transparent when on: the
``check_observability_transparent`` battery step demands byte-identical
resolution results with instrumentation enabled and disabled.

Quick start::

    from repro.obs import Observability, activated

    with activated(Observability()) as obs:
        result = resolver.resolve(table)
    print(render_trace(obs.tracer.export()))
"""

from .clock import ManualClock, MonotonicClock, SYSTEM_CLOCK
from .export import (
    TRACE_VERSION,
    read_trace,
    render_metrics,
    render_trace,
    to_prometheus,
    trace_records,
    write_metrics,
    write_trace,
)
from .instrument import (
    DISABLED,
    Observability,
    activated,
    current,
    observe_round,
    pipeline_stage,
    record_selection_metrics,
)
from .metrics import (
    COUNT_BOUNDARIES,
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    SECONDS_BOUNDARIES,
)
from .profiler import SamplingProfiler
from .telemetry import Telemetry
from .trace import NULL_SPAN, Span, Tracer, structure, walk

__all__ = [
    "COUNT_BOUNDARIES",
    "DISABLED",
    "Counter",
    "Gauge",
    "Histogram",
    "ManualClock",
    "MetricsRegistry",
    "MonotonicClock",
    "NULL_SPAN",
    "Observability",
    "SECONDS_BOUNDARIES",
    "SYSTEM_CLOCK",
    "SamplingProfiler",
    "Span",
    "TRACE_VERSION",
    "Telemetry",
    "Tracer",
    "activated",
    "current",
    "observe_round",
    "pipeline_stage",
    "read_trace",
    "record_selection_metrics",
    "render_metrics",
    "render_trace",
    "structure",
    "to_prometheus",
    "trace_records",
    "walk",
    "write_metrics",
    "write_trace",
]
