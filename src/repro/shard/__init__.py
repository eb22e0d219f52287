"""What remains of sharded resolution: the names the e2e benchmark imports.

* :mod:`repro.shard.resolver` — :class:`ShardedResolver`, the serial
  :class:`~repro.core.resolver.PowerResolver` under its old name.
* :mod:`repro.shard.executor` — :class:`ShardExecutor`, whose ``run``
  calls each task in the calling process.  Nothing in :mod:`repro` calls
  it; the benchmark's tracing wraps it.

No path starts a worker process.  See DESIGN.md §10 for what was
measured and why the rest was deleted.
"""

from .executor import ShardExecutor
from .resolver import ShardedResolver

__all__ = ["ShardedResolver", "ShardExecutor"]
