"""Experiment harnesses reproducing every table and figure of the paper."""

from . import ablations, figures, perf, serve_load, stream_ingest
from .reporting import emit, format_table
from .runner import (
    METHODS,
    WORKER_BANDS,
    MethodRow,
    Workload,
    average_rows,
    compare_methods,
    fast_mode,
    make_crowd,
    prepare,
    run_method,
)

__all__ = [
    "METHODS",
    "MethodRow",
    "WORKER_BANDS",
    "Workload",
    "ablations",
    "average_rows",
    "compare_methods",
    "emit",
    "fast_mode",
    "figures",
    "format_table",
    "make_crowd",
    "perf",
    "prepare",
    "serve_load",
    "run_method",
    "stream_ingest",
]
