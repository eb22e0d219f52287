"""Observability overhead benchmark: the cost of watching the pipeline.

The :mod:`repro.obs` transparency contract has two halves.  The battery
proves instrumentation never changes *results*
(``check_observability_transparent``); this harness proves it never
meaningfully changes *speed*.  One full resolution (join → vectorize →
construct → select → cluster, simulated crowd included) runs in three
modes, interleaved and timed best-of-N:

* **baseline** — observability disabled (the default
  :data:`~repro.obs.instrument.DISABLED` handle): every hook costs one
  attribute check;
* **metrics** — the registry records counters/gauges/histograms but spans
  are the no-op singleton (tracing off);
* **tracing** — spans *and* metrics, the full ``--trace --metrics-out``
  configuration.

Gates (relaxed in ``POWER_BENCH_FAST=1`` smoke runs, where the workload is
too small for stable percentages): metrics-only overhead under
:data:`METRICS_OVERHEAD_MAX_PCT`, tracing+metrics overhead under
:data:`TRACING_OVERHEAD_MAX_PCT`, and identical resolution results in all
three modes.  The report lands in ``benchmarks/results/BENCH_obs.json``.
"""

from __future__ import annotations

import platform
import time

from ..core import PowerConfig, PowerResolver
from ..data import acmpub, cora, restaurant
from ..exceptions import ConfigurationError
from ..obs import Observability, activated, structure
from .runner import fast_mode

#: Full-run ceilings (percent over baseline) — the ISSUE's acceptance bars.
TRACING_OVERHEAD_MAX_PCT = 5.0
METRICS_OVERHEAD_MAX_PCT = 1.0

#: Smoke-run ceilings: a sub-second workload makes relative overhead noise;
#: the smoke gate only demands the same order of magnitude.
FAST_TRACING_OVERHEAD_MAX_PCT = 40.0
FAST_METRICS_OVERHEAD_MAX_PCT = 25.0


def _bench_table(dataset: str, scale: float | None):
    if dataset == "acmpub":
        if scale is None:
            scale = 0.02 if fast_mode() else 0.15
        return acmpub(scale=scale), scale, 0.3
    if dataset == "restaurant":
        return restaurant(), 1.0, 0.2
    if dataset == "cora":
        return cora(), 1.0, 0.2
    raise ConfigurationError(f"unknown dataset {dataset!r}")


def _fingerprint(result) -> tuple:
    """Everything the transparency contract says must not move."""
    return (
        result.questions,
        result.iterations,
        result.cost_cents,
        tuple(sorted(result.matches)),
        tuple(tuple(sorted(c)) for c in sorted(result.clusters)),
    )


def run_obs_overhead_benchmark(
    dataset: str = "acmpub",
    scale: float | None = None,
    repeats: int | None = None,
    seed: int = 0,
    worker_band: str = "90",
) -> dict:
    """Time the three observability modes.

    Modes are *interleaved* (baseline, metrics, tracing, baseline, ...)
    so thermal drift and cache state hit all three equally; each mode's
    reported time is its best across repeats.
    """
    if repeats is None:
        repeats = 1 if fast_mode() else 3
    table, scale, threshold = _bench_table(dataset, scale)
    config = PowerConfig(seed=seed, pruning_threshold=threshold)

    def resolve():
        return PowerResolver(config).resolve(table, worker_band=worker_band)

    def baseline():
        return resolve(), None

    def metrics_only():
        with activated(Observability(tracing=False, metrics=True)) as obs:
            result = resolve()
        return result, obs

    def tracing():
        with activated(Observability(tracing=True, metrics=True)) as obs:
            result = resolve()
        return result, obs

    modes = {"baseline": baseline, "metrics": metrics_only, "tracing": tracing}
    best: dict[str, float] = {name: float("inf") for name in modes}
    fingerprints: dict[str, tuple] = {}
    last_obs: dict[str, object] = {}
    for _ in range(max(1, repeats)):
        for name, runner in modes.items():
            start = time.perf_counter()
            result, obs = runner()
            elapsed = time.perf_counter() - start
            best[name] = min(best[name], elapsed)
            fingerprints[name] = _fingerprint(result)
            if obs is not None:
                last_obs[name] = obs

    equivalent = (
        fingerprints["baseline"]
        == fingerprints["metrics"]
        == fingerprints["tracing"]
    )

    def overhead_pct(mode: str) -> float:
        if best["baseline"] <= 0:
            return 0.0
        return round(
            max(0.0, (best[mode] - best["baseline"]) / best["baseline"]) * 100,
            3,
        )

    traced = last_obs["tracing"]
    spans = structure(traced.tracer.export())
    fast = fast_mode()
    report = {
        "benchmark": "obs-overhead",
        "dataset": table.name,
        "records": len(table),
        "scale": scale,
        "repeats": repeats,
        "seed": seed,
        "fast_mode": fast,
        "python": platform.python_version(),
        "modes": {
            "baseline": {"seconds": round(best["baseline"], 6)},
            "metrics": {
                "seconds": round(best["metrics"], 6),
                "overhead_pct": overhead_pct("metrics"),
                "metrics_recorded": len(last_obs["metrics"].registry),
            },
            "tracing": {
                "seconds": round(best["tracing"], 6),
                "overhead_pct": overhead_pct("tracing"),
                "spans": len(spans),
                "metrics_recorded": len(traced.registry),
            },
        },
        "equivalent": equivalent,
        "gates": {
            "tracing_overhead_max_pct": (
                FAST_TRACING_OVERHEAD_MAX_PCT if fast else TRACING_OVERHEAD_MAX_PCT
            ),
            "metrics_overhead_max_pct": (
                FAST_METRICS_OVERHEAD_MAX_PCT if fast else METRICS_OVERHEAD_MAX_PCT
            ),
        },
    }
    return report


def obs_summary_rows(report: dict) -> list[tuple]:
    """Rows for the console table (mode, seconds, overhead)."""
    modes = report["modes"]
    rows = [("baseline", f"{modes['baseline']['seconds']:.3f}", "-", "-")]
    for name in ("metrics", "tracing"):
        mode = modes[name]
        rows.append((
            name,
            f"{mode['seconds']:.3f}",
            f"{mode['overhead_pct']:.2f}%",
            str(mode.get("spans", mode.get("metrics_recorded", "-"))),
        ))
    return rows


def obs_acceptance_failures(report: dict) -> list[str]:
    """Every violated gate, as a human-readable sentence."""
    failures = []
    gates = report["gates"]
    modes = report["modes"]
    if not report["equivalent"]:
        failures.append(
            "instrumented runs diverged from the baseline resolution "
            "(transparency violation)"
        )
    tracing_pct = modes["tracing"]["overhead_pct"]
    if tracing_pct > gates["tracing_overhead_max_pct"]:
        failures.append(
            f"tracing+metrics overhead {tracing_pct:.2f}% exceeds "
            f"{gates['tracing_overhead_max_pct']}%"
        )
    metrics_pct = modes["metrics"]["overhead_pct"]
    if metrics_pct > gates["metrics_overhead_max_pct"]:
        failures.append(
            f"metrics-only overhead {metrics_pct:.2f}% exceeds "
            f"{gates['metrics_overhead_max_pct']}%"
        )
    if modes["tracing"].get("spans", 0) == 0:
        failures.append("tracing mode recorded no spans (vacuous benchmark)")
    return failures


__all__ = [
    "METRICS_OVERHEAD_MAX_PCT",
    "TRACING_OVERHEAD_MAX_PCT",
    "obs_acceptance_failures",
    "obs_summary_rows",
    "run_obs_overhead_benchmark",
]
