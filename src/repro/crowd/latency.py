"""Wall-clock latency model for crowdsourced runs.

The paper uses the number of crowd iterations as its latency proxy (each
iteration is one round trip to the platform).  This module turns iteration
structure into wall-clock estimates under a simple queueing model:

* posting a batch costs a fixed overhead (task review, platform delays);
* the platform has a limited number of concurrently active workers, each
  taking some time per question-assignment;
* a batch of ``q`` questions × ``z`` assignments therefore takes
  ``overhead + ceil(q * z / workers) * seconds_per_answer``.

So many small batches (SinglePath's one-question iterations) are dominated
by the per-round overhead, while one huge batch (CrowdER) is throughput
bound — exactly the trade-off the paper's Figs. 11/14 describe in units of
iterations.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass

from ..exceptions import ConfigurationError


@dataclass(frozen=True)
class LatencyModel:
    """Crowd timing parameters.

    Attributes:
        concurrent_workers: workers answering at any moment.
        seconds_per_answer: mean time for one worker to judge one pair.
        round_overhead_seconds: fixed cost per crowd round trip (posting,
            platform matching, result collection).
        assignments: redundant workers per question, ``z``.
    """

    concurrent_workers: int = 25
    seconds_per_answer: float = 30.0
    round_overhead_seconds: float = 120.0
    assignments: int = 5

    def __post_init__(self) -> None:
        if self.concurrent_workers < 1:
            raise ConfigurationError(
                f"concurrent_workers must be >= 1, got {self.concurrent_workers}"
            )
        if self.seconds_per_answer <= 0:
            raise ConfigurationError(
                f"seconds_per_answer must be > 0, got {self.seconds_per_answer}"
            )
        if self.round_overhead_seconds < 0:
            raise ConfigurationError(
                f"round_overhead_seconds must be >= 0, got {self.round_overhead_seconds}"
            )
        if self.assignments < 1:
            raise ConfigurationError(
                f"assignments must be >= 1, got {self.assignments}"
            )

    def batch_seconds(self, batch_size: int) -> float:
        """Wall-clock time for one crowd round with *batch_size* questions."""
        if batch_size < 0:
            raise ConfigurationError(f"batch_size must be >= 0, got {batch_size}")
        if batch_size == 0:
            return 0.0
        waves = math.ceil(batch_size * self.assignments / self.concurrent_workers)
        return self.round_overhead_seconds + waves * self.seconds_per_answer

    def estimate_seconds(self, batch_sizes: Sequence[int]) -> float:
        """Total wall-clock time for a run's sequence of crowd rounds."""
        return sum(self.batch_seconds(size) for size in batch_sizes)
