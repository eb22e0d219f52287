"""repro.plan: calibrated cost-based planning for the whole pipeline.

The pipeline exposes a handful of pure-performance knobs (similarity
substrate, selection engine, shard fan-out,
streaming batch size, admission pricing) whose best settings depend on
data scale and host hardware.  This package decides them from measured
cost models instead of static heuristics:

* :mod:`~repro.plan.model` — per-stage affine cost models over analytic
  work units (non-negative and monotone by construction);
* :mod:`~repro.plan.calibrate` — seeded micro-benchmarks producing a
  versioned per-host profile (canonical JSON, schema ``version: 2``);
* :mod:`~repro.plan.planner` — table stats + profile -> an immutable
  :class:`~repro.plan.planner.Plan` with predicted costs and rejected
  alternatives, selected via ``PowerConfig(plan="auto"|"off"|<path>)``;
* :mod:`~repro.plan.explain` — the plan tree and predicted-vs-observed
  reporting from the obs span tree;
* :mod:`~repro.plan.feedback` — bounded folding of observed costs back
  into the profile;
* :mod:`~repro.plan.hooks` — best-effort calibrated advice for the
  streaming batch size and the serve admission seed.

The transparency contract: a plan changes *when* the answer arrives,
never *what* it is.  ``check_plan_transparency`` in the verification
battery proves any plan — including adversarially bad ones — is
bit-identical in results, transcripts, and billing to the static
defaults.
"""

from .calibrate import (
    PROFILE_VERSION,
    CalibrationProfile,
    calibrate,
    default_profile,
    default_profile_path,
    load_profile,
    resolve_profile,
)
from .explain import prediction_report, render_plan, render_prediction_report
from .feedback import fold_observations
from .model import STAGES, CostModel, StagePrediction
from .planner import (
    PLANNABLE_KNOBS,
    Plan,
    PlanDecision,
    TableStats,
    apply_plan,
    plan_for_stats,
    plan_for_table,
)

__all__ = [
    "PLANNABLE_KNOBS",
    "PROFILE_VERSION",
    "STAGES",
    "CalibrationProfile",
    "CostModel",
    "Plan",
    "PlanDecision",
    "StagePrediction",
    "TableStats",
    "apply_plan",
    "calibrate",
    "default_profile",
    "default_profile_path",
    "fold_observations",
    "load_profile",
    "plan_for_stats",
    "plan_for_table",
    "prediction_report",
    "render_plan",
    "render_prediction_report",
    "resolve_profile",
]
