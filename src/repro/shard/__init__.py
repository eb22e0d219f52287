"""Partitioned multi-process resolution with deterministic merges.

The shard subsystem scales :class:`~repro.core.resolver.PowerResolver`
across worker processes without changing a single output byte (exact
mode) or with a principled parallel approximation (independent mode).
Layers, bottom to top:

* :mod:`repro.shard.partition` — connected components of the candidate
  graph, size-capped weak-edge splitting, and LPT bin-packing.
* :mod:`repro.shard.worker` — picklable pure task specs (join probe
  ranges, vector chunks, propagation vote slices, independent shard
  loops) plus deterministic fault injection for the executor tests.
* :mod:`repro.shard.executor` — process-pool scheduling with
  largest-first dispatch, per-task timeout/retry, and in-process
  fallback; budget-split helpers for the independent mode.
* :mod:`repro.shard.merge` — associative, shard-order-independent
  reductions of shard results.
* :mod:`repro.shard.resolver` — the :class:`ShardedResolver` facade with
  the same ``resolve(table, ...)`` signature as the serial resolver.

See DESIGN.md §10 for the determinism argument.
"""

from .executor import (
    ExecutorStats,
    ShardExecutor,
    questions_for_cents,
    split_question_budget,
)
from .merge import (
    merge_independent_outcomes,
    merge_vector_chunks,
    merge_vote_deltas,
    merged_clusters,
)
from .partition import (
    PairShard,
    ShardPlan,
    UnionFind,
    connected_components,
    pack_components,
    plan_pair_shards,
    split_component,
    vertex_slices,
)
from .resolver import SHARD_MODES, ShardedResolver
from .worker import (
    FaultSpec,
    IndependentShardTask,
    JoinTask,
    PropagationTask,
    ShardOutcome,
    VectorTask,
    compute_join_pairs,
    compute_vectors,
    compute_vote_deltas,
    derive_shard_seed,
    resolve_shard,
)

__all__ = [
    "SHARD_MODES",
    "ShardedResolver",
    "ShardExecutor",
    "ExecutorStats",
    "split_question_budget",
    "questions_for_cents",
    "UnionFind",
    "connected_components",
    "split_component",
    "pack_components",
    "plan_pair_shards",
    "PairShard",
    "ShardPlan",
    "vertex_slices",
    "FaultSpec",
    "derive_shard_seed",
    "JoinTask",
    "VectorTask",
    "PropagationTask",
    "IndependentShardTask",
    "ShardOutcome",
    "compute_join_pairs",
    "compute_vectors",
    "compute_vote_deltas",
    "resolve_shard",
    "merge_vector_chunks",
    "merge_vote_deltas",
    "merged_clusters",
    "merge_independent_outcomes",
]
