"""``ShardExecutor``: the task runner's name, running tasks in-process.

The end-to-end benchmark's tracing wraps ``ShardExecutor.run`` by name,
so the class stays until that benchmark stops importing it.  Nothing in
:mod:`repro` calls it; no path starts a worker process (DESIGN.md §10).
"""

from __future__ import annotations


class ShardExecutor:
    """Runs each task in the calling process, in task order."""

    def run(self, fn, tasks, weights=None) -> list:
        """``fn(task)`` for each task, in order; *weights* is ignored."""
        return [fn(task) for task in tasks]


__all__ = ["ShardExecutor"]
