"""What remains of sharded resolution: the names the e2e benchmark imports.

* :mod:`repro.shard.resolver` — :class:`ShardedResolver`, the serial
  :class:`~repro.core.resolver.PowerResolver` under its old name.
* :mod:`repro.shard.executor` — :class:`ShardExecutor`, the process pool
  with retries, timeouts and in-process fallback.  Nothing in
  :mod:`repro` calls it; the benchmark's tracing wraps it.
* :mod:`repro.shard.worker` — :class:`FaultSpec`, the executor tests'
  fault hook.

See DESIGN.md §10 for what was measured and why the rest was deleted.
"""

from .executor import ExecutorStats, ShardExecutor
from .resolver import ShardedResolver
from .worker import FaultSpec

__all__ = ["ShardedResolver", "ShardExecutor", "ExecutorStats", "FaultSpec"]
