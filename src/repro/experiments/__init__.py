"""Experiment harnesses reproducing every table and figure of the paper."""

from . import ablations, bench, figures
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
    "bench",
    "compare_methods",
    "emit",
    "fast_mode",
    "figures",
    "format_table",
    "make_crowd",
    "prepare",
    "run_method",
]
