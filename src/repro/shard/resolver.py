"""``ShardedResolver``: the serial resolver under its sharded name.

The end-to-end benchmark builds ``ShardedResolver(config, workers=2)``
for its shard-acmpub workload, so the name stays until that workload is
retired.  It is :class:`~repro.core.resolver.PowerResolver` and ignores
``workers``: no sharded path won on a 2-vCPU host (DESIGN.md §10).
"""

from __future__ import annotations

# benchmarks/e2e/tracing.py wraps this module's ``clusters_from_matches`` by name.
from ..core.clustering import clusters_from_matches  # noqa: F401
from ..core.config import PowerConfig
from ..core.resolver import PowerResolver


class ShardedResolver(PowerResolver):
    """:class:`PowerResolver` that accepts, and ignores, a worker count."""

    def __init__(
        self, config: PowerConfig | None = None, workers: int | None = None
    ) -> None:
        super().__init__(config)


__all__ = ["ShardedResolver"]
