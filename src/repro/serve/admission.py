"""Admission control: a bounded queue whose refusals carry a price.

A multi-tenant server has two honest answers to "more work than
capacity": queue it (bounded, or memory dies), or refuse it *with a
price* — the ``retry_after`` seconds after which the client should try
again.  :class:`AdmissionController` is the per-session gate the server
consults before enqueueing an ingest: past the queue depth, every
refusal is an :class:`~repro.exceptions.OverloadedError` carrying the
``retry_after`` the protocol surfaces verbatim.  The wait is priced from
an exponentially-weighted average of recent batch times, so the hint
tracks the actual service rate instead of a constant.

Shedding is load *control*, not failure: a shed request was never
enqueued, touched no session state, and cost no crowd money — the
invariants the admission tests pin.  Shutdown sheds too, with the fixed
:data:`DRAIN_RETRY_AFTER`; that check belongs to the session registry,
which holds the drain flag.
"""

from __future__ import annotations

from ..exceptions import ConfigurationError, OverloadedError

#: Fallback per-item service-time estimate before any batch has finished.
DEFAULT_BATCH_SECONDS = 0.1

#: retry_after handed out while the server is draining for shutdown.
DRAIN_RETRY_AFTER = 5.0


class AdmissionController:
    """One session's gate: queue depth, priced by observed batch time.

    Args:
        queue_depth: maximum ingests waiting in the session's queue; the
            actor works one at a time, so total in-flight per session is
            ``queue_depth + 1``.
    """

    def __init__(self, queue_depth: int = 4) -> None:
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        self.queue_depth = queue_depth
        self._batch_seconds_ewma = DEFAULT_BATCH_SECONDS

    def observe_batch_seconds(self, seconds: float) -> None:
        """Fold one finished batch's wall time into the service estimate."""
        self._batch_seconds_ewma = (
            0.7 * self._batch_seconds_ewma + 0.3 * max(0.0, seconds)
        )

    @property
    def batch_seconds_estimate(self) -> float:
        return self._batch_seconds_ewma

    def admit(self, queued: int) -> None:
        """Admit one ingest behind *queued* others, or raise
        :class:`OverloadedError` with a price."""
        if queued >= self.queue_depth:
            # Price the wait: the whole queue plus the in-flight item must
            # clear before a retry can even be enqueued.
            wait = (queued + 1) * self._batch_seconds_ewma
            raise OverloadedError(
                f"session queue is full ({queued}/{self.queue_depth})",
                retry_after=max(0.05, wait),
            )


__all__ = ["DEFAULT_BATCH_SECONDS", "DRAIN_RETRY_AFTER", "AdmissionController"]
