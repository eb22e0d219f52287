"""From pairwise match decisions to entity clusters.

The final deliverable of entity resolution is a partition of the records.
Matched pairs are treated as edges and clusters are the connected
components, found by label propagation over arrays.
``clusters_to_matches`` is the inverse (all within-cluster pairs), used to
make cluster-level outputs comparable under the pairwise metrics.
"""

from __future__ import annotations

from collections.abc import Iterable

import numpy as np

from ..data.ground_truth import Pair, pair_arrays
from ..exceptions import DataError


def clusters_from_matches(num_records: int, matches: Iterable[Pair]) -> list[list[int]]:
    """Connected components of the match graph, as sorted member lists.

    Clusters are ordered by their first (smallest) member.  Every match
    must join two distinct records in ``[0, num_records)``.

    Each record's label starts as its own id.  A round hooks the larger
    label of every edge whose ends still differ onto the smaller one, then
    jumps pointers until every label is a root, so each root is the
    smallest record of its tree; rounds repeat until no edge spans two
    trees.
    """
    if num_records < 0:
        raise DataError(f"num_records must be >= 0, got {num_records}")
    low, high = pair_arrays(matches, num_records)
    if not num_records:
        return []
    labels = np.arange(num_records)
    while True:
        low_label, high_label = labels[low], labels[high]
        apart = low_label != high_label
        if not apart.any():
            break
        # An edge whose ends share a root stays settled: drop it.
        low, high = low[apart], high[apart]
        low_label, high_label = low_label[apart], high_label[apart]
        np.minimum.at(
            labels,
            np.maximum(low_label, high_label),
            np.minimum(low_label, high_label),
        )
        while True:
            jumped = labels[labels]
            if np.array_equal(jumped, labels):
                break
            labels = jumped
    # A stable sort keeps members ascending within a label, and each
    # label is its cluster's smallest member.
    order = np.argsort(labels, kind="stable")
    sorted_labels = labels[order]
    starts = np.flatnonzero(sorted_labels[1:] != sorted_labels[:-1]) + 1
    bounds = [0, *starts.tolist(), num_records]
    members = order.tolist()
    return [members[start:stop] for start, stop in zip(bounds, bounds[1:])]


def clusters_to_matches(clusters: Iterable[Iterable[int]]) -> set[Pair]:
    """All within-cluster record pairs (the transitive closure of matches)."""
    matches: set[Pair] = set()
    for cluster in clusters:
        members = sorted(cluster)
        for index, i in enumerate(members):
            for j in members[index + 1 :]:
                matches.add((i, j))
    return matches
