"""Planner-quality benchmark: measured regret vs exhaustive search.

The cost planner's one job is picking fast settings, so this harness
grades it the only honest way — against the ground truth of actually
running every alternative:

* **regret grid** — for each dataset scale, every similarity substrate
  runs the planner-visible pipeline stages (candidate join, similarity
  vectors, graph construction) and is timed best-of-N, with vector
  equivalence asserted while timing.
  The host is then calibrated, the planner plans from the table's stats,
  and the planned combination's measured runtime is compared against the
  exhaustive best and worst.  Gates: planned within
  :data:`REGRET_MAX` of the best and strictly faster than the worst.
* **synthetic-host adaptation** — the same stats planned under perturbed
  profiles (a host with slow scalar loops, a host with costly numpy
  kernels) must flip decisions accordingly.  Recorded and
  gated on *divergence* (the planner must respond to coefficients), not
  on time.

``POWER_BENCH_FAST=1`` shrinks the grid and relaxes the regret bar (tiny
workloads make ratios noisy); equivalence and adaptation gates are never
relaxed.  The report lands in ``benchmarks/results/BENCH_plan.json``.
"""

from __future__ import annotations

import platform
import time

import numpy as np

from ..core import PowerConfig, PowerResolver
from ..data.generators import load_dataset
from ..plan.calibrate import CalibrationProfile, calibrate
from ..plan.planner import TableStats, apply_plan, plan_for_stats
from ..verify.battery import subsample_table
from .runner import fast_mode

#: Full-run regret ceiling: planned runtime / exhaustive-best runtime.
REGRET_MAX = 1.15

#: Smoke-run ceiling: sub-millisecond stages make ratios noisy.
FAST_REGRET_MAX = 1.5

#: The exhaustive grid: every planner-ownable similarity substrate.
SUBSTRATE_CHOICES = (True, False)


def _staged_seconds(table, config: PowerConfig, repeats: int):
    """Best-of-N wall time of the planner-visible stages; returns vectors too."""
    resolver = PowerResolver(config)
    vectors_holder = {}

    def run():
        pairs = resolver.candidate_pairs(table)
        vectors = resolver.similarity_vectors(table, pairs)
        resolver.build_graph(table, pairs, vectors=vectors)
        vectors_holder["vectors"] = vectors

    run()  # warmup (numpy dispatch, token interning)
    best = float("inf")
    for _ in range(max(1, repeats)):
        started = time.perf_counter()
        run()
        best = min(best, time.perf_counter() - started)
    return best, vectors_holder["vectors"]


def _perturbed(profile: CalibrationProfile, scaling: dict[str, float]) -> CalibrationProfile:
    """A synthetic host: stage coefficients scaled by the given factors."""
    coefficients = {
        stage: {
            "c0": coeffs["c0"] * scaling.get(stage, 1.0),
            "c1": coeffs["c1"] * scaling.get(stage, 1.0),
        }
        for stage, coeffs in profile.coefficients.items()
    }
    return CalibrationProfile(
        coefficients=coefficients,
        host=profile.host,
        calibrated=True,
        meta={"source": "synthetic"},
    )


#: The synthetic hosts the adaptation gate runs: name -> stage scalings.
#: The factors are deliberately extreme (1000x) so the expected flips are
#: theorems about the cost model, not coin flips near a crossover.
SYNTHETIC_HOSTS = {
    # A host where tight Python loops are catastrophically slow (think
    # heavily instrumented interpreter): the scalar substrate and the
    # scratch selection engine should never win.
    "slow-python": {
        "vectorize_scalar": 1000.0,
        "selection_scratch": 1000.0,
    },
    # A host where numpy kernels are absurdly expensive: the batch
    # substrate and the incremental engine lose to the plain loops.
    "costly-numpy": {
        "vectorize_batch": 1000.0,
        "selection_incremental": 1000.0,
    },
}


def run_plan_benchmark(
    dataset: str = "restaurant",
    scales: tuple[float, ...] | None = None,
    repeats: int | None = None,
    seed: int = 0,
) -> dict:
    """Measure the exhaustive grid, plan, and report regret + adaptation."""
    fast = fast_mode()
    if scales is None:
        scales = (0.15,) if fast else (0.5, 1.0)
    if repeats is None:
        repeats = 2 if fast else 3
    profile = calibrate(seed=seed, repeats=1 if fast else 3, fast=fast)

    full_table = load_dataset(dataset)
    grid = []
    for scale in scales:
        table = subsample_table(full_table, scale)
        stats = TableStats.from_table(table, seed=seed)
        measurements = []
        reference_vectors = None
        for use_batch in SUBSTRATE_CHOICES:
            config = PowerConfig(seed=seed, use_batch_similarity=use_batch)
            seconds, vectors = _staged_seconds(table, config, repeats)
            if reference_vectors is None:
                reference_vectors = vectors
            elif not np.array_equal(vectors, reference_vectors):
                raise AssertionError(
                    "the similarity substrates produced different vectors "
                    "— equivalence broken, timings meaningless"
                )
            measurements.append(
                {"use_batch_similarity": use_batch, "seconds": round(seconds, 6)}
            )
        plan = plan_for_stats(stats, profile)
        planned_config = apply_plan(PowerConfig(seed=seed), plan)
        by_key = {m["use_batch_similarity"]: m["seconds"] for m in measurements}
        planned_seconds = by_key[planned_config.use_batch_similarity]
        best_seconds = min(by_key.values())
        worst_seconds = max(by_key.values())
        grid.append(
            {
                "dataset": dataset,
                "scale": scale,
                "rows": len(table),
                "est_pairs": stats.est_pairs,
                "configs": measurements,
                "planned": {
                    "use_batch_similarity": planned_config.use_batch_similarity,
                },
                "planned_seconds": round(planned_seconds, 6),
                "best_seconds": round(best_seconds, 6),
                "worst_seconds": round(worst_seconds, 6),
                "regret": round(planned_seconds / best_seconds, 4),
            }
        )

    # Synthetic-host adaptation: same stats, perturbed coefficients.
    adaptation = []
    adaptation_stats = TableStats.from_table(
        subsample_table(full_table, scales[-1]), seed=seed
    )
    for name, scaling in SYNTHETIC_HOSTS.items():
        synthetic_plan = plan_for_stats(adaptation_stats, _perturbed(profile, scaling))
        adaptation.append(
            {
                "host": name,
                "use_batch_similarity": synthetic_plan.knob("use_batch_similarity"),
                "use_incremental_selection": synthetic_plan.knob(
                    "use_incremental_selection"
                ),
            }
        )

    return {
        "benchmark": "plan-quality",
        "fast_mode": fast,
        "seed": seed,
        "repeats": repeats,
        "host": {
            "platform": platform.platform(),
            "python": platform.python_version(),
        },
        "gates": {
            "regret_max": FAST_REGRET_MAX if fast else REGRET_MAX,
            "strictly_better_than_worst": not fast,
        },
        "grid": grid,
        "synthetic_hosts": adaptation,
    }


def plan_acceptance_failures(report: dict) -> list[str]:
    """Gate violations in a :func:`run_plan_benchmark` report."""
    failures = []
    gates = report["gates"]
    for cell in report["grid"]:
        label = f"{cell['dataset']} x{cell['scale']:g} ({cell['rows']} rows)"
        if cell["regret"] > gates["regret_max"]:
            failures.append(
                f"{label}: planner regret {cell['regret']:.2f}x exceeds the "
                f"{gates['regret_max']:.2f}x ceiling (planned "
                f"{cell['planned_seconds']:.4f}s vs best "
                f"{cell['best_seconds']:.4f}s)"
            )
        if gates["strictly_better_than_worst"]:
            if not cell["planned_seconds"] < cell["worst_seconds"]:
                failures.append(
                    f"{label}: planned config is not strictly faster than the "
                    f"worst ({cell['planned_seconds']:.4f}s vs "
                    f"{cell['worst_seconds']:.4f}s)"
                )
        elif cell["planned_seconds"] > cell["worst_seconds"]:
            failures.append(
                f"{label}: planned config is slower than the worst "
                f"({cell['planned_seconds']:.4f}s vs "
                f"{cell['worst_seconds']:.4f}s)"
            )
    # Adaptation: perturbed hosts must actually change decisions.
    substrates = {
        entry["use_batch_similarity"] for entry in report["synthetic_hosts"]
    }
    if len(substrates) < 2:
        failures.append(
            "synthetic-host adaptation is vacuous: every perturbed profile "
            f"planned the same substrate ({substrates}) — the planner is not "
            "reading its coefficients"
        )
    slow_python = next(
        entry
        for entry in report["synthetic_hosts"]
        if entry["host"] == "slow-python"
    )
    if not slow_python["use_batch_similarity"]:
        failures.append(
            "the slow-python synthetic host still planned the scalar "
            "substrate — a 1000x penalty must rule it out"
        )
    return failures


def plan_summary_rows(report: dict) -> list[tuple]:
    """``emit()`` rows: one per grid cell, then the synthetic hosts."""
    rows = []
    for cell in report["grid"]:
        rows.append(
            (
                f"{cell['dataset']} x{cell['scale']:g}",
                cell["rows"],
                "batch" if cell["planned"]["use_batch_similarity"] else "scalar",
                f"{cell['planned_seconds'] * 1e3:.1f}",
                f"{cell['best_seconds'] * 1e3:.1f}",
                f"{cell['worst_seconds'] * 1e3:.1f}",
                f"{cell['regret']:.2f}x",
            )
        )
    for entry in report["synthetic_hosts"]:
        rows.append(
            (
                f"[host:{entry['host']}]",
                "-",
                "batch" if entry["use_batch_similarity"] else "scalar",
                "-",
                "-",
                "-",
                "-",
            )
        )
    return rows


__all__ = [
    "FAST_REGRET_MAX",
    "REGRET_MAX",
    "SYNTHETIC_HOSTS",
    "plan_acceptance_failures",
    "plan_summary_rows",
    "run_plan_benchmark",
]
