"""Admission control: bounded queues, token buckets, explicit shedding.

A multi-tenant server has exactly three honest answers to "more work than
capacity": queue it (bounded, or memory dies), slow it down (rate limit),
or refuse it *with a price* — the ``retry_after`` seconds after which the
client should try again.  This module implements all three as plain
objects the server composes per session:

* :class:`TokenBucket` — classic leaky-bucket rate limiter over an
  injectable clock (:class:`~repro.obs.clock.ManualClock` in tests makes
  the refill arithmetic exactly assertable).  ``retry_after`` is the time
  until the bucket holds one full token again.
* :class:`AdmissionController` — the per-session gate the server consults
  before enqueueing an ingest: draining beats rate beats queue depth, and
  every refusal is an :class:`~repro.exceptions.OverloadedError` carrying
  the ``retry_after`` the protocol surfaces verbatim.  Queue-depth
  refusals price the wait from an exponentially-weighted average of
  recent batch times, so the hint tracks the actual service rate instead
  of a constant.

Shedding is load *control*, not failure: a shed request was never
enqueued, touched no session state, and cost no crowd money — the
invariants the admission tests pin.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ..exceptions import ConfigurationError, OverloadedError
from ..obs.clock import MonotonicClock

#: Fallback per-item service-time estimate before any batch has finished.
DEFAULT_BATCH_SECONDS = 0.1

#: retry_after handed out while the server is draining for shutdown.
DRAIN_RETRY_AFTER = 5.0


@dataclass
class TokenBucket:
    """A token-bucket rate limiter: ``rate`` tokens/second, ``burst`` cap.

    ``rate <= 0`` disables limiting (every :meth:`admit` succeeds).  The
    bucket starts full, so a client gets its burst immediately and is then
    throttled to the sustained rate.
    """

    rate: float
    burst: float = 1.0
    clock: object = field(default_factory=MonotonicClock)

    def __post_init__(self) -> None:
        if self.rate > 0 and self.burst < 1:
            raise ConfigurationError(
                f"burst must be >= 1 when rate limiting, got {self.burst}"
            )
        self._tokens = float(self.burst)
        self._last = self.clock.wall()

    def _refill(self) -> None:
        now = self.clock.wall()
        self._tokens = min(
            float(self.burst), self._tokens + (now - self._last) * self.rate
        )
        self._last = now

    def admit(self) -> bool:
        """Take one token if available; False means rate-limited."""
        if self.rate <= 0:
            return True
        self._refill()
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    def retry_after(self) -> float:
        """Seconds until the bucket holds one full token again."""
        if self.rate <= 0:
            return 0.0
        self._refill()
        deficit = max(0.0, 1.0 - self._tokens)
        return deficit / self.rate


class AdmissionController:
    """One session's gate: drain flag, token bucket, queue depth.

    Args:
        rate: sustained ingests/second (``0`` disables rate limiting).
        burst: bucket capacity (instantaneous ingest burst).
        queue_depth: maximum ingests waiting in the session's queue; the
            actor works one at a time, so total in-flight per session is
            ``queue_depth + 1``.
        clock: injectable time source for the bucket.
    """

    def __init__(
        self,
        rate: float = 0.0,
        burst: float = 4.0,
        queue_depth: int = 4,
        clock=None,
    ) -> None:
        if queue_depth < 1:
            raise ConfigurationError(
                f"queue_depth must be >= 1, got {queue_depth}"
            )
        self.queue_depth = queue_depth
        self.bucket = TokenBucket(
            rate=rate, burst=burst, clock=clock or MonotonicClock()
        )
        self._batch_seconds_ewma = DEFAULT_BATCH_SECONDS

    def observe_batch_seconds(self, seconds: float) -> None:
        """Fold one finished batch's wall time into the service estimate."""
        self._batch_seconds_ewma = (
            0.7 * self._batch_seconds_ewma + 0.3 * max(0.0, seconds)
        )

    @property
    def batch_seconds_estimate(self) -> float:
        return self._batch_seconds_ewma

    def admit(self, queued: int, draining: bool = False) -> None:
        """Admit one ingest or raise :class:`OverloadedError` with a price.

        Args:
            queued: the session queue's current length.
            draining: the server-wide shutdown flag; wins over everything.
        """
        if draining:
            raise OverloadedError(
                "server is draining for shutdown; retry against the "
                "restarted server",
                retry_after=DRAIN_RETRY_AFTER,
            )
        if queued >= self.queue_depth:
            # Price the wait: the whole queue plus the in-flight item must
            # clear before a retry can even be enqueued.
            wait = (queued + 1) * self._batch_seconds_ewma
            raise OverloadedError(
                f"session queue is full ({queued}/{self.queue_depth})",
                retry_after=max(0.05, wait),
            )
        if not self.bucket.admit():
            raise OverloadedError(
                "session rate limit exceeded",
                retry_after=max(0.01, self.bucket.retry_after()),
            )


__all__ = [
    "DEFAULT_BATCH_SECONDS",
    "DRAIN_RETRY_AFTER",
    "AdmissionController",
    "TokenBucket",
]
