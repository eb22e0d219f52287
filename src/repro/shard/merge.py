"""Deterministic, shard-order-independent merges of shard results.

Every merge in this module is **associative and order-free**: the merged
output depends only on the *set* of shard results, never on which worker
produced them or in which order they completed.  That is the heart of the
sharded path's determinism argument (DESIGN.md §10):

* :func:`merge_vector_chunks` — chunks are keyed by their global row
  offset, so reassembly is a sort + stack (rows are per-pair independent).
* :func:`merge_vote_deltas` — per-slice vote deltas are **summed**; vote
  addition is commutative integer arithmetic, so partial sums merged in
  any order equal the serial per-answer accumulation exactly.  The merged
  counts feed the serial loop's own round update,
  :meth:`~repro.graph.coloring.ColoringState.apply_round`.
* :func:`merge_independent_outcomes` / :func:`merged_clusters` — the
  independent mode's reduction: labels union (shards own disjoint pair
  sets), distinct-question union, **pooled** billing recomputed over the
  union (the pinned :class:`~repro.crowd.platform.CrowdSession` semantics:
  never a sum of per-shard ceilings), iteration count as the parallel
  max, and a union-find over all shard matches for the clusters.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence

import numpy as np

from ..data.ground_truth import Pair
from ..exceptions import ConfigurationError
from ..selection.base import SelectionResult
from .partition import UnionFind
from .worker import ShardOutcome


# --------------------------------------------------------------------------- #
# Exact-mode merges
# --------------------------------------------------------------------------- #


def merge_vector_chunks(chunks: Iterable[tuple[int, np.ndarray]]) -> np.ndarray:
    """Reassemble ``(start, rows)`` similarity chunks into one matrix.

    Chunks may arrive in any order; they are sorted by their global row
    offset and must tile the row space exactly (gaps or overlaps raise).
    """
    ordered = sorted(chunks, key=lambda chunk: chunk[0])
    if not ordered:
        return np.empty((0, 0), dtype=np.float64)
    expected = 0
    for start, rows in ordered:
        if start != expected:
            raise ConfigurationError(
                f"vector chunks do not tile the rows: expected offset "
                f"{expected}, got {start}"
            )
        expected = start + rows.shape[0]
    return np.vstack([rows for _, rows in ordered])


def merge_vote_deltas(
    slices: Iterable[tuple[int, np.ndarray, np.ndarray]], num_vertices: int
) -> tuple[np.ndarray, np.ndarray]:
    """Sum per-slice ``(lo, green_delta, red_delta)`` into full-length deltas.

    Vote addition is commutative and associative integer arithmetic, so
    this merge is independent of slice order, slice boundaries, and worker
    scheduling — the property the mutation self-test attacks (a merge that
    drops a slice's contribution must be caught by the shard-equivalence
    differential).
    """
    green = np.zeros(num_vertices, dtype=np.int32)
    red = np.zeros(num_vertices, dtype=np.int32)
    for lo, green_delta, red_delta in slices:
        if lo < 0 or lo + len(green_delta) > num_vertices:
            raise ConfigurationError(
                f"vote-delta slice [{lo}, {lo + len(green_delta)}) escapes "
                f"the {num_vertices}-vertex graph"
            )
        green[lo : lo + len(green_delta)] += green_delta
        red[lo : lo + len(red_delta)] += red_delta
    return green, red


# --------------------------------------------------------------------------- #
# Independent-mode merge
# --------------------------------------------------------------------------- #


def merged_clusters(num_records: int, outcomes: Sequence[ShardOutcome]) -> list[list[int]]:
    """Entity clusters from every shard's matches via one global union-find.

    The union-find is processed shard-by-shard in ``shard_id`` order for
    reproducibility of the traversal, but its *result* — the connected
    components — is invariant to union order, so any completion order of
    the shards yields identical clusters (including clusters stitched
    together by records that appear in several shards' pairs).
    """
    uf = UnionFind(num_records)
    for outcome in sorted(outcomes, key=lambda item: item.shard_id):
        for a, b in sorted(outcome.matches):
            uf.union(int(a), int(b))
    members: dict[int, list[int]] = {}
    for record in range(num_records):
        members.setdefault(uf.find(record), []).append(record)
    return sorted(members.values(), key=lambda cluster: cluster[0])


def merge_independent_outcomes(
    outcomes: Sequence[ShardOutcome],
    selector_name: str,
    pairs_per_hit: int = 10,
    cents_per_hit: int = 10,
    assignments: int = 5,
) -> SelectionResult:
    """Reduce independent shard outcomes into one :class:`SelectionResult`.

    * **labels** — shard label maps union; the partitioner assigns every
      candidate pair to exactly one shard, so the union is conflict-free
      (asserted) and shard-order-independent.
    * **questions** — distinct pairs asked across all shards (shards never
      share pairs, so this equals the sum, but the union is what billing
      is defined over).
    * **cost** — the pinned pooled-ceiling billing recomputed over the
      union of asked pairs: ``ceil(distinct / pairs_per_hit) *
      assignments * cents_per_hit``.  Never a sum of per-shard ceilings —
      that would bill up to ``num_shards - 1`` phantom partial HITs.
    * **iterations** — the parallel-latency view: shards run concurrently,
      so the round count is the slowest shard's (per-shard counts are kept
      in ``extras``).
    """
    ordered = sorted(outcomes, key=lambda item: item.shard_id)
    labels: dict[Pair, bool] = {}
    asked: set[Pair] = set()
    for outcome in ordered:
        for pair, decision in outcome.labels.items():
            if pair in labels and labels[pair] != decision:
                raise ConfigurationError(
                    f"shards disagree on pair {pair}: the partitioner must "
                    "assign each pair to exactly one shard"
                )
            labels[pair] = decision
        asked.update(outcome.asked_pairs)
    hits = (
        math.ceil(len(asked) / pairs_per_hit) * assignments if asked else 0
    )
    return SelectionResult(
        name=selector_name,
        labels=labels,
        questions=len(asked),
        iterations=max((outcome.iterations for outcome in ordered), default=0),
        assignment_time=max(
            (outcome.assignment_time for outcome in ordered), default=0.0
        ),
        state=None,
        cost_cents=hits * cents_per_hit,
        extras={
            "shards": len(ordered),
            "shard_questions": [outcome.questions for outcome in ordered],
            "shard_iterations": [outcome.iterations for outcome in ordered],
            "shard_cost_cents": [outcome.cost_cents for outcome in ordered],
            "shard_vertices": [outcome.num_vertices for outcome in ordered],
        },
    )


__all__ = [
    "merge_vector_chunks",
    "merge_vote_deltas",
    "merged_clusters",
    "merge_independent_outcomes",
]
