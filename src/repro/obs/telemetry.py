"""Engine telemetry, re-hosted on the shared :mod:`repro.obs` registry.

Historically :class:`Telemetry` was a plain dataclass of counters private
to the engine; it is now a *view* over :class:`~repro.obs.metrics.MetricsRegistry`
instruments (``repro_engine_*`` namespace), so an engine run's counters
appear in the same Prometheus/JSON exports as the pipeline's stage timings
and the selectors' round metrics — one observability substrate instead of
three ad-hoc formats.

The migration is behaviour-preserving by contract:

* every field keeps its name, type, and read/write attribute semantics
  (``telemetry.posted += 1`` and ``telemetry.billed_cents = 50`` both
  work, backed by registry instruments);
* :meth:`as_dict`, :meth:`write`, and :meth:`summary` produce **the exact
  bytes** the pre-migration dataclass produced (pinned by the regression
  test in ``tests/test_obs_integration.py``), so journal-adjacent
  ``*.telemetry.json`` artifacts and the ``extension-faults`` experiment
  output are unchanged.

Pass a shared *registry* (the active :class:`~repro.obs.Observability`'s)
to fold an engine run into a unified export; the default private registry
keeps standalone engines isolated from each other.
"""

from __future__ import annotations

import json
from collections import deque
from pathlib import Path
from typing import Any

from .metrics import MetricsRegistry

#: Counter fields (integer, monotone) in their canonical ``as_dict`` order.
COUNTER_FIELDS: tuple[str, ...] = (
    "posted",
    "assigned",
    "answered_units",
    "answered_pairs",
    "expired",
    "abandoned",
    "re_posts",
    "failed_units",
    "machine_answers",
    "spam_hijacked",
    "rounds",
)

#: Gauge fields (point-in-time readings assigned by the engine).
GAUGE_FIELDS: tuple[str, ...] = (
    "wall_clock_seconds",
    "repost_cents",
    "billed_cents",
)

_FIELD_HELP = {
    "posted": "assignment attempts posted (first posts + re-posts)",
    "assigned": "assignments claimed by a worker",
    "answered_units": "assignments submitted successfully",
    "answered_pairs": "questions whose aggregated answer was resolved",
    "expired": "assignments that timed out unclaimed",
    "abandoned": "assignments claimed but never submitted",
    "re_posts": "retry attempts (posted minus first posts)",
    "failed_units": "assignments that exhausted their retry budget",
    "machine_answers": "pairs settled by the machine fallback",
    "spam_hijacked": "pairs whose aggregated answer a spam burst replaced",
    "rounds": "crowd batches posted",
    "wall_clock_seconds": "final simulated wall clock of the run",
    "repost_cents": "money burned re-posting failed assignments",
    "billed_cents": "the session's distinct-question bill",
}

#: Fields whose attribute reads must stay ``int`` (pre-migration types).
_INT_FIELDS = frozenset(COUNTER_FIELDS) | {"billed_cents"}


class Telemetry:
    """Counters and recent events for one engine run (registry-backed).

    Args:
        event_log_limit: how many recent events to retain.
        registry: record into this shared registry instead of a private
            one — how an engine run joins the unified obs export.

    Every counter/gauge field of the pre-migration dataclass (``posted``,
    ``assigned``, ``answered_units``, ``answered_pairs``, ``expired``,
    ``abandoned``, ``re_posts``, ``failed_units``, ``machine_answers``,
    ``spam_hijacked``, ``rounds``, ``wall_clock_seconds``,
    ``repost_cents``, ``billed_cents``) remains a plain read/write
    attribute; reads and writes go straight to the backing instrument.
    """

    def __init__(
        self, event_log_limit: int = 1000, registry: MetricsRegistry | None = None
    ) -> None:
        self.registry = registry if registry is not None else MetricsRegistry()
        self.event_log_limit = int(event_log_limit)
        self._events: deque = deque()
        metrics = {}
        for name in COUNTER_FIELDS:
            metrics[name] = self.registry.counter(
                f"repro_engine_{name}_total", _FIELD_HELP[name]
            )
        for name in GAUGE_FIELDS:
            metrics[name] = self.registry.gauge(
                f"repro_engine_{name}", _FIELD_HELP[name]
            )
        self._metrics = metrics

    # ------------------------------------------------------------------ #
    # Field access (attribute semantics of the old dataclass)
    # ------------------------------------------------------------------ #

    def __getattr__(self, name: str):
        metrics = self.__dict__.get("_metrics")
        if metrics is not None and name in metrics:
            value = metrics[name].value
            return int(value) if name in _INT_FIELDS else value
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def __setattr__(self, name: str, value) -> None:
        metrics = self.__dict__.get("_metrics")
        if metrics is not None and name in metrics:
            metrics[name].value = float(value)
        else:
            object.__setattr__(self, name, value)

    # ------------------------------------------------------------------ #
    # Events and derived views (unchanged from the dataclass era)
    # ------------------------------------------------------------------ #

    def record_event(self, kind: str, clock: float, **details: Any) -> None:
        """Keep a recent-events window for debugging and reports."""
        self._events.append({"type": kind, "clock": round(clock, 3), **details})
        while len(self._events) > self.event_log_limit:
            self._events.popleft()

    @property
    def events(self) -> list[dict[str, Any]]:
        return list(self._events)

    @property
    def total_spent_cents(self) -> float:
        """Everything the run cost: nominal bill plus fault surcharge."""
        return self.billed_cents + self.repost_cents

    def as_dict(self) -> dict[str, Any]:
        return {
            "counters": {name: getattr(self, name) for name in COUNTER_FIELDS},
            "wall_clock_seconds": round(self.wall_clock_seconds, 3),
            "billed_cents": self.billed_cents,
            "repost_cents": round(self.repost_cents, 3),
            "total_spent_cents": round(self.total_spent_cents, 3),
            "recent_events": self.events,
        }

    def write(self, path: str | Path) -> Path:
        """Persist the telemetry as JSON; returns the written path."""
        path = Path(path)
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(json.dumps(self.as_dict(), indent=2) + "\n", encoding="utf-8")
        return path

    def summary(self) -> str:
        """A compact human-readable report for CLI output."""
        minutes = self.wall_clock_seconds / 60.0
        return (
            f"rounds={self.rounds} answered={self.answered_pairs} "
            f"re-posts={self.re_posts} expired={self.expired} "
            f"abandoned={self.abandoned} machine={self.machine_answers} "
            f"spam={self.spam_hijacked} "
            f"spent={self.total_spent_cents / 100:.2f}USD "
            f"wall-clock={minutes:.1f}min"
        )


__all__ = ["COUNTER_FIELDS", "GAUGE_FIELDS", "Telemetry"]
