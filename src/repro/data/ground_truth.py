"""Ground-truth helpers: entity clusters and gold match pairs."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable

from ..exceptions import DataError
from .table import Table

Pair = tuple[int, int]


def canonical_pair(i: int, j: int) -> Pair:
    """Return the pair ``(min(i, j), max(i, j))``; reject self-pairs."""
    if i == j:
        raise DataError(f"a pair must join two distinct records, got ({i}, {j})")
    return (i, j) if i < j else (j, i)


def entity_clusters(table: Table) -> dict[int, list[int]]:
    """Map each entity id to the sorted list of record ids referring to it."""
    if not table.has_ground_truth():
        raise DataError(f"table {table.name!r} has records without entity ids")
    clusters: dict[int, list[int]] = defaultdict(list)
    for record in table:
        clusters[record.entity_id].append(record.record_id)
    return {entity: sorted(members) for entity, members in clusters.items()}


def true_match_pairs(table: Table) -> set[Pair]:
    """All record pairs that refer to the same entity (the gold positives)."""
    matches: set[Pair] = set()
    for members in entity_clusters(table).values():
        for a_index, i in enumerate(members):
            for j in members[a_index + 1 :]:
                matches.add((i, j))
    return matches


def pair_truth(table: Table, pairs: Iterable[Pair]) -> dict[Pair, bool]:
    """For each pair, whether its two records refer to the same entity."""
    if not table.has_ground_truth():
        raise DataError(f"table {table.name!r} has records without entity ids")
    entity = [record.entity_id for record in table]
    truth: dict[Pair, bool] = {}
    for pair in pairs:
        i, j = pair
        # A canonical tuple is its own key: no new tuple per candidate pair.
        if type(pair) is not tuple or not i < j:
            pair = canonical_pair(i, j)
        truth[pair] = entity[i] == entity[j]
    return truth


def num_entities(table: Table) -> int:
    """Number of distinct entities in the table."""
    return len(entity_clusters(table))
