"""Pipeline performance harness: reference vs. fast path, stage by stage.

The resolution pipeline front-loads its cost in three stages — the §7.1
pruning join, the §3.1 similarity-vector computation, and the §4 dominance
graph construction.  Each has a scalar *reference* implementation (kept as
ground truth) and a vectorized *fast path*:

===========  ==============================  ===================================
stage        reference                       fast path
===========  ==============================  ===================================
prune        prefix-join oracle              :func:`~repro.similarity.join.similar_pairs`
vectorize    :func:`~repro.similarity.vectors.similarity_matrix`  :func:`~repro.similarity.batch.batch_similarity_matrix`
construct    per-vertex broadcast loop       :func:`~repro.graph.construction.blocked_dominance_lists`
===========  ==============================  ===================================

:func:`run_pipeline_benchmark` times both sides of every stage on an
ACMPub-scale workload, *verifies equivalence while it measures* (same pair
list, bit-identical vectors, same adjacency/edge sets), and returns one
machine-readable report — the payload of ``benchmarks/results/BENCH_pipeline.json``.
:func:`acceptance_failures` turns a report into a pass/fail gate
(``POWER_BENCH_FAST=1`` smoke runs only require the fast path to win;
full runs enforce the 5x / 3x floors).
"""

from __future__ import annotations

import json
import platform
import time
from collections.abc import Callable
from pathlib import Path

import numpy as np

from ..data import acmpub, cora, restaurant
from ..exceptions import ConfigurationError
from ..graph.construction import blocked_dominance_lists, blocked_edges, vectorized_edges
from ..similarity import (
    SimilarityConfig,
    batch_similarity_matrix,
    similar_pairs,
    similarity_matrix,
)
from ..similarity.tokenize import qgram_tokens, word_tokens
from ..verify.oracles import prefix_join
from .runner import fast_mode

#: Acceptance floors of the full benchmark (ISSUE: the fast paths must beat
#: the references by these factors on the ACMPub-scale workload).
VECTORIZE_SPEEDUP_FLOOR = 5.0
CONSTRUCT_SPEEDUP_FLOOR = 3.0

#: Acceptance floor of the selection-loop benchmark: the incremental engine
#: (warm-started path covers + packed propagation) must beat the per-round
#: scratch reference by this factor on the ACMPub-scale workload.
SELECTION_SPEEDUP_FLOOR = 3.0

#: Vertex cap for the selection-loop benchmark (the scratch reference
#: rebuilds Python adjacency lists every round, so this bounds full-run
#: wall time; the incremental engine itself scales far beyond it).
DEFAULT_SELECTION_VERTICES = 2500

#: Vertex cap for the construct stage: the most-similar pairs are kept so the
#: per-vertex reference loop stays tractable while the workload remains
#: representative.  (The blocked kernel itself handles far larger graphs.)
DEFAULT_CONSTRUCT_VERTICES = 4000

#: Vertex cap for the exhaustive edge-*set* cross-check (reference edge sets
#: materialise O(|E|) Python tuples, so this stays smaller).
DEFAULT_EDGE_CHECK_VERTICES = 1200


def _clear_token_caches() -> None:
    """Reset the tokenizer LRU caches so each timed side starts cold."""
    word_tokens.cache_clear()
    qgram_tokens.cache_clear()


def _best_of(function: Callable[[], object], repeats: int) -> tuple[float, object]:
    """Best-of-*repeats* wall time; token caches are cleared per repeat."""
    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        _clear_token_caches()
        start = time.perf_counter()
        result = function()
        elapsed = time.perf_counter() - start
        best = min(best, elapsed)
    return best, result


def _bench_table(dataset: str, scale: float | None) -> tuple[object, float]:
    if dataset == "acmpub":
        if scale is None:
            scale = 0.02 if fast_mode() else 0.15
        return acmpub(scale=scale), 0.3
    if dataset == "restaurant":
        return restaurant(), 0.2
    if dataset == "cora":
        return cora(), 0.2
    raise ConfigurationError(f"unknown dataset {dataset!r}")


def _stage(
    name: str,
    reference_name: str,
    fast_name: str,
    reference_seconds: float,
    fast_seconds: float,
    equivalent: bool,
    work_items: int,
    **extra,
) -> dict:
    speedup = reference_seconds / fast_seconds if fast_seconds > 0 else float("inf")
    per_second = work_items / fast_seconds if fast_seconds > 0 else float("inf")
    return {
        "stage": name,
        "reference": {"name": reference_name, "seconds": round(reference_seconds, 6)},
        "fast": {"name": fast_name, "seconds": round(fast_seconds, 6)},
        "speedup": round(speedup, 3),
        "items": work_items,
        "items_per_second_fast": round(per_second, 1),
        "equivalent": bool(equivalent),
        **extra,
    }


def run_pipeline_benchmark(
    dataset: str = "acmpub",
    scale: float | None = None,
    similarity: str = "bigram",
    repeats: int | None = None,
    construct_vertices: int | None = None,
    edge_check_vertices: int | None = None,
) -> dict:
    """Time prune → vectorize → construct, reference vs. fast path.

    Equivalence is asserted inline: the two join methods must return the
    same pair list, the two vectorizers bit-identical matrices, and the two
    dominance kernels the same adjacency and edge sets.  A violated check
    raises ``AssertionError`` — a fast-but-wrong kernel must fail the bench,
    not win it.

    Args:
        dataset: ``"acmpub"`` (default; the paper's largest), ``"cora"`` or
            ``"restaurant"``.
        scale: ACMPub subsample fraction; default 0.15 (0.02 under
            ``POWER_BENCH_FAST=1``).
        similarity: attribute similarity function for the vectorize stage.
        repeats: best-of-N timing (default 3, or 1 in fast mode).
        construct_vertices: cap on graph vertices for the construct stage.
        edge_check_vertices: cap for the exhaustive edge-set cross-check.

    Returns:
        The JSON-serializable report written to ``BENCH_pipeline.json``.
    """
    fast = fast_mode()
    if repeats is None:
        repeats = 1 if fast else 3
    if construct_vertices is None:
        construct_vertices = 1000 if fast else DEFAULT_CONSTRUCT_VERTICES
    if edge_check_vertices is None:
        edge_check_vertices = 400 if fast else DEFAULT_EDGE_CHECK_VERTICES

    table, threshold = _bench_table(dataset, scale)
    stages: list[dict] = []

    # ---- Stage 1: prune (record-level similarity join) ------------------- #
    ref_seconds, ref_pairs = _best_of(
        lambda: sorted(
            prefix_join(
                [word_tokens(table.record_text(r.record_id)) for r in table],
                threshold,
            )
        ),
        repeats,
    )
    fast_seconds, pairs = _best_of(
        lambda: similar_pairs(table, threshold), repeats
    )
    assert pairs == ref_pairs, "sparse join disagrees with prefix join"
    stages.append(
        _stage(
            "prune",
            "prefix-join",
            "sparse-join",
            ref_seconds,
            fast_seconds,
            pairs == ref_pairs,
            len(table),
            pairs_found=len(pairs),
            threshold=threshold,
        )
    )

    # ---- Stage 2: vectorize (per-attribute similarity vectors) ----------- #
    config = SimilarityConfig.uniform(table.num_attributes, function=similarity)
    ref_seconds, ref_vectors = _best_of(
        lambda: similarity_matrix(table, pairs, config), repeats
    )
    fast_seconds, vectors = _best_of(
        lambda: batch_similarity_matrix(table, pairs, config), repeats
    )
    bit_identical = np.array_equal(ref_vectors, vectors)
    max_abs_diff = float(np.abs(ref_vectors - vectors).max()) if vectors.size else 0.0
    assert bit_identical, f"batch vectors differ (max |diff| = {max_abs_diff})"
    stages.append(
        _stage(
            "vectorize",
            "scalar-matrix",
            "batch-matrix",
            ref_seconds,
            fast_seconds,
            bit_identical,
            len(pairs),
            bit_identical=bit_identical,
            max_abs_diff=max_abs_diff,
            attributes=table.num_attributes,
        )
    )

    # ---- Stage 3: construct (dominance adjacency) ------------------------ #
    if len(pairs) > construct_vertices:
        keep = np.argsort(-vectors.mean(axis=1), kind="stable")[:construct_vertices]
        keep.sort()
        sub_vectors = vectors[keep]
    else:
        sub_vectors = vectors

    def reference_adjacency() -> list[np.ndarray]:
        children = []
        for vertex in range(sub_vectors.shape[0]):
            row = sub_vectors[vertex]
            mask = np.logical_and(
                (sub_vectors <= row).all(axis=1), (sub_vectors < row).any(axis=1)
            )
            mask[vertex] = False
            children.append(np.flatnonzero(mask))
        return children

    ref_seconds, ref_adjacency = _best_of(reference_adjacency, repeats)
    fast_seconds, adjacency = _best_of(
        lambda: blocked_dominance_lists(sub_vectors, sub_vectors), repeats
    )
    adjacency_equal = len(adjacency) == len(ref_adjacency) and all(
        np.array_equal(a, b) for a, b in zip(adjacency, ref_adjacency)
    )
    assert adjacency_equal, "blocked adjacency disagrees with per-vertex reference"
    # Exhaustive edge-*set* cross-check on a smaller cap (reference edge sets
    # materialise one Python tuple per edge).
    check_vectors = sub_vectors[:edge_check_vertices]
    edge_sets_equal = blocked_edges(check_vectors) == vectorized_edges(check_vectors)
    assert edge_sets_equal, "blocked edge set disagrees with reference"
    stages.append(
        _stage(
            "construct",
            "per-vertex-loop",
            "blocked-kernel",
            ref_seconds,
            fast_seconds,
            adjacency_equal and edge_sets_equal,
            sub_vectors.shape[0],
            edges=int(sum(len(c) for c in adjacency)),
            edge_sets_equal=bool(edge_sets_equal),
            edge_check_vertices=int(check_vectors.shape[0]),
        )
    )

    return {
        "benchmark": "pipeline",
        "dataset": table.name,
        "records": len(table),
        "pairs": len(pairs),
        "attributes": table.num_attributes,
        "similarity": similarity,
        "fast_mode": fast,
        "repeats": repeats,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "stages": stages,
        "floors": {
            "vectorize": 1.0 if fast else VECTORIZE_SPEEDUP_FLOOR,
            "construct": 1.0 if fast else CONSTRUCT_SPEEDUP_FLOOR,
        },
    }


def acceptance_failures(report: dict) -> list[str]:
    """Human-readable violations of the bench's acceptance gates.

    Every stage must be equivalent to its reference; the vectorize and
    construct stages must additionally clear their speedup floors (which the
    report carries, so smoke and full runs gate consistently).
    """
    failures: list[str] = []
    floors = report.get("floors", {})
    for stage in report["stages"]:
        name = stage["stage"]
        if not stage["equivalent"]:
            failures.append(f"{name}: fast path is not equivalent to the reference")
        floor = floors.get(name)
        if floor is not None and stage["speedup"] < floor:
            failures.append(
                f"{name}: speedup {stage['speedup']:.2f}x is below the "
                f"{floor:.1f}x floor ({stage['fast']['name']} vs "
                f"{stage['reference']['name']})"
            )
    return failures


def summary_rows(report: dict) -> list[list]:
    """Rows for a plain-text summary table of a report (one per stage)."""
    return [
        [
            stage["stage"],
            stage["reference"]["name"],
            stage["fast"]["name"],
            stage["reference"]["seconds"],
            stage["fast"]["seconds"],
            f"{stage['speedup']:.2f}x",
            "yes" if stage["equivalent"] else "NO",
        ]
        for stage in report["stages"]
    ]


# --------------------------------------------------------------------------- #
# Selection-loop benchmark (incremental engine vs per-round scratch)
# --------------------------------------------------------------------------- #


def _selection_workload(
    dataset: str, scale: float | None, max_vertices: int
) -> tuple[object, list, np.ndarray]:
    """(table, pairs, vectors) for the selection bench, capped by similarity."""
    table, threshold = _bench_table(dataset, scale)
    pairs = similar_pairs(table, threshold)
    config = SimilarityConfig.uniform(table.num_attributes, function="bigram")
    vectors = batch_similarity_matrix(table, pairs, config)
    if len(pairs) > max_vertices:
        keep = np.argsort(-vectors.mean(axis=1), kind="stable")[:max_vertices]
        keep.sort()
        pairs = [pairs[int(i)] for i in keep]
        vectors = vectors[keep]
    return table, pairs, vectors


def _timed_selection_run(
    selector_name: str,
    pairs: list,
    vectors: np.ndarray,
    truth: dict,
    seed: int,
    incremental: bool,
    repeats: int,
):
    """Best-of-*repeats* wall time of one full selector run.

    A fresh graph is built per repeat (so the incremental side pays its
    reachability-index build inside the measured wall every time).  The
    scratch side (``incremental=False``) runs on a graph that declines its
    index, the state of an over-budget graph, with the adjacency lists it
    reads prebuilt outside the timer.
    """
    from ..crowd.platform import PerfectCrowd
    from ..graph.dag import PairGraph
    from ..selection import SELECTORS
    from ..verify.oracles import decline_reachability

    best = float("inf")
    result = None
    for _ in range(max(1, repeats)):
        graph = PairGraph(pairs, vectors)
        if not incremental:
            decline_reachability(graph)
            graph.adjacency()
        selector = SELECTORS[selector_name](seed=seed)
        session = PerfectCrowd(truth).session()
        start = time.perf_counter()
        run = selector.run(graph, session)
        elapsed = time.perf_counter() - start
        if elapsed < best:
            best = elapsed
            result = run
    return best, result


def run_selection_benchmark(
    dataset: str = "acmpub",
    scale: float | None = None,
    selectors: tuple[str, ...] = ("single-path", "multi-path"),
    max_vertices: int | None = None,
    repeats: int | None = None,
    seed: int = 0,
) -> dict:
    """Time the selection loop, incremental engine vs per-round scratch.

    Each selector runs the full ask/color loop twice on the same
    ACMPub-scale dominance graph against a perfect crowd over a monotone
    truth: once with the incremental engine (reachability index +
    warm-started path covers) and once on a graph that declines its index,
    which runs the scratch reference paths.  Equivalence is asserted
    inline — same vertices asked, in the same order, same final coloring —
    so a fast-but-wrong engine fails the bench rather than winning it.  The report also carries per-round phase
    splits (cover / augment / propagate / bookkeeping) and a rounds-vs-n
    scaling sweep of the incremental engine.

    Returns:
        The JSON-serializable report written to ``BENCH_selection.json``.
    """
    from ..verify.oracles import _pair_truth_from_vertices, monotone_truth

    fast = fast_mode()
    if repeats is None:
        repeats = 1 if fast else 3
    if max_vertices is None:
        max_vertices = 300 if fast else DEFAULT_SELECTION_VERTICES

    table, pairs, vectors = _selection_workload(dataset, scale, max_vertices)
    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))

    selector_reports: list[dict] = []
    for name in selectors:
        ref_seconds, scratch = _timed_selection_run(
            name, pairs, vectors, truth, seed, incremental=False, repeats=repeats
        )
        fast_seconds, incremental = _timed_selection_run(
            name, pairs, vectors, truth, seed, incremental=True, repeats=repeats
        )
        equivalent = (
            incremental.state.asked_order == scratch.state.asked_order
            and np.array_equal(incremental.state.colors, scratch.state.colors)
            and incremental.labels == scratch.labels
        )
        assert equivalent, (
            f"{name}: incremental selection diverged from the scratch reference"
        )
        assert incremental.extras["selection"]["incremental"], (
            f"{name}: the fast side never built its reachability index"
        )
        assert not scratch.extras["selection"]["incremental"], (
            f"{name}: the scratch side ran on the reachability index"
        )
        telemetry = incremental.extras.get("selection", {})
        engine = telemetry.get("engine", {})
        cover_seconds = float(telemetry.get("cover_seconds", 0.0))
        propagate_seconds = float(telemetry.get("propagate_seconds", 0.0))
        augment_seconds = float(engine.get("augment_seconds", 0.0))
        bookkeeping = max(0.0, fast_seconds - cover_seconds - propagate_seconds)
        speedup = ref_seconds / fast_seconds if fast_seconds > 0 else float("inf")
        selector_reports.append(
            {
                "selector": name,
                "reference": {
                    "name": "scratch-cover",
                    "seconds": round(ref_seconds, 6),
                },
                "fast": {
                    "name": "incremental-cover",
                    "seconds": round(fast_seconds, 6),
                },
                "speedup": round(speedup, 3),
                "equivalent": bool(equivalent),
                "rounds": int(telemetry.get("rounds", 0)),
                "questions": int(incremental.questions),
                "splits": {
                    "cover_seconds": round(cover_seconds, 6),
                    "augment_seconds": round(augment_seconds, 6),
                    "propagate_seconds": round(propagate_seconds, 6),
                    "bookkeeping_seconds": round(bookkeeping, 6),
                },
                "engine": {
                    key: (round(value, 6) if isinstance(value, float) else value)
                    for key, value in engine.items()
                },
            }
        )

    # Rounds-vs-n scaling of the incremental engine (single-path).
    scaling: list[dict] = []
    fractions = (0.5, 1.0) if fast else (0.25, 0.5, 1.0)
    for fraction in fractions:
        size = max(2, int(round(len(pairs) * fraction)))
        sub_pairs = pairs[:size]
        sub_vectors = vectors[:size]
        sub_truth = _pair_truth_from_vertices(
            sub_pairs, monotone_truth(sub_vectors)
        )
        scratch_seconds, _ = _timed_selection_run(
            "single-path", sub_pairs, sub_vectors, sub_truth, seed,
            incremental=False, repeats=1,
        )
        incr_seconds, run = _timed_selection_run(
            "single-path", sub_pairs, sub_vectors, sub_truth, seed,
            incremental=True, repeats=1,
        )
        telemetry = run.extras.get("selection", {})
        scaling.append(
            {
                "vertices": size,
                "rounds": int(telemetry.get("rounds", 0)),
                "scratch_seconds": round(scratch_seconds, 6),
                "incremental_seconds": round(incr_seconds, 6),
                "speedup": round(
                    scratch_seconds / incr_seconds if incr_seconds > 0 else float("inf"),
                    3,
                ),
            }
        )

    return {
        "benchmark": "selection",
        "dataset": table.name,
        "records": len(table),
        "vertices": len(pairs),
        "attributes": int(vectors.shape[1]),
        "fast_mode": fast,
        "repeats": repeats,
        "seed": seed,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "selectors": selector_reports,
        "scaling": scaling,
        "floors": {"selection": 1.0 if fast else SELECTION_SPEEDUP_FLOOR},
    }


def selection_acceptance_failures(report: dict) -> list[str]:
    """Violations of the selection bench's gates (equivalence + floor)."""
    failures: list[str] = []
    floor = report.get("floors", {}).get("selection")
    for entry in report["selectors"]:
        name = entry["selector"]
        if not entry["equivalent"]:
            failures.append(
                f"{name}: incremental selection is not equivalent to the "
                "scratch reference"
            )
        if floor is not None and entry["speedup"] < floor:
            failures.append(
                f"{name}: speedup {entry['speedup']:.2f}x is below the "
                f"{floor:.1f}x floor (incremental vs scratch cover)"
            )
    return failures


def selection_summary_rows(report: dict) -> list[list]:
    """Rows for a plain-text summary of a selection report (one per selector)."""
    return [
        [
            entry["selector"],
            entry["rounds"],
            entry["reference"]["seconds"],
            entry["fast"]["seconds"],
            f"{entry['speedup']:.2f}x",
            "yes" if entry["equivalent"] else "NO",
        ]
        for entry in report["selectors"]
    ]


def write_report(report: dict, path: str | Path) -> Path:
    """Persist a report as pretty-printed JSON (the BENCH_pipeline.json file)."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(report, indent=2, sort_keys=False) + "\n")
    return path
