"""Best-effort planner hooks for call sites that cannot fail.

The streaming and serve layers want calibrated advice but must keep
working (with their documented static defaults) when no profile exists:

* the serve layer's admission pricing —
  :func:`predicted_batch_seconds` seeds the EWMA with the profile's
  prediction instead of the blind default;
* the streaming batch size — :func:`planned_stream_batch` sizes batches
  from the profile, or from the default coefficients without one.

They never raise when the default-path profile is missing,
uncalibrated, or unreadable (an older profile version included): a
stale cache file must not be able to break ingestion.  (Explicit profile paths go through
``PowerConfig(plan=...)`` instead, which *does* fail loudly.)

The profile is cached per ``(path, mtime)`` so hot paths pay one
``stat`` per call, not a JSON parse.
"""

from __future__ import annotations

from ..exceptions import DataError
from .calibrate import CalibrationProfile, default_profile_path, load_profile
from .model import UNIT_FORMULAS

_cache: tuple[str, float, CalibrationProfile] | None = None


def calibrated_profile() -> CalibrationProfile | None:
    """The default-path profile if present, calibrated, and readable."""
    global _cache
    path = default_profile_path()
    try:
        mtime = path.stat().st_mtime
    except OSError:
        return None
    key = str(path)
    if _cache is not None and _cache[0] == key and _cache[1] == mtime:
        profile = _cache[2]
    else:
        try:
            profile = load_profile(path)
        except DataError:
            return None
        _cache = (key, mtime, profile)
    return profile if profile.calibrated else None


def clear_cache() -> None:
    """Drop the cached profile (tests that rewrite the file mid-process)."""
    global _cache
    _cache = None


def predicted_batch_seconds(
    batch_size: int, avg_tokens: float = 8.0
) -> float | None:
    """Predicted seconds to ingest one *batch_size*-row streaming batch.

    Prices the token-index extend — the per-batch cost the serve layer's
    admission EWMA tracks.  Returns ``None`` without a calibrated
    profile (the EWMA then starts from its documented static default).
    """
    profile = calibrated_profile()
    if profile is None:
        return None
    units = UNIT_FORMULAS["stream_extend"](batch_size, avg_tokens)
    return profile.predict("stream_extend", units)


def planned_stream_batch(avg_tokens: float = 8.0) -> int:
    """Planner-recommended streaming batch size (always returns a value).

    Uses the calibrated host profile when one exists, the documented
    default coefficients otherwise — batch sizing only shifts checkpoint
    cadence, so the defaults are an acceptable fallback.
    """
    from .calibrate import default_profile
    from .planner import TableStats, choose_stream_batch

    profile = calibrated_profile() or default_profile()
    stats = TableStats(rows=0, attrs=0, avg_tokens=avg_tokens, est_pairs=0)
    return int(choose_stream_batch(stats, profile).chosen)


__all__ = [
    "calibrated_profile",
    "clear_cache",
    "planned_stream_batch",
    "predicted_batch_seconds",
]
