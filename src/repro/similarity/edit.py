"""Levenshtein edit distance and the paper's edit similarity (Eq. 2).

``EDS(a, b) = 1 - ED(a, b) / max(|a|, |b|)``

The distance is the classic dynamic program with insertion, deletion, and
substitution all costing 1.  A two-row rolling implementation keeps memory at
``O(min(|a|, |b|))``.
"""

from __future__ import annotations


def edit_distance(a: str, b: str) -> int:
    """Return the Levenshtein distance between strings *a* and *b*."""
    if a == b:
        return 0
    if not a:
        return len(b)
    if not b:
        return len(a)
    # Keep the inner loop over the shorter string.
    if len(b) > len(a):
        a, b = b, a
    previous = list(range(len(b) + 1))
    current = [0] * (len(b) + 1)
    for i, ca in enumerate(a, start=1):
        current[0] = i
        for j, cb in enumerate(b, start=1):
            cost = 0 if ca == cb else 1
            current[j] = min(
                previous[j] + 1,  # deletion
                current[j - 1] + 1,  # insertion
                previous[j - 1] + cost,  # substitution / match
            )
        previous, current = current, previous
    return previous[len(b)]


def edit_similarity(a: str, b: str) -> float:
    """Return the paper's edit similarity: ``1 - ED(a,b) / max(|a|,|b|)``.

    Two empty strings are defined to be identical (similarity 1.0).
    """
    longest = max(len(a), len(b))
    if longest == 0:
        return 1.0
    return 1.0 - edit_distance(a, b) / longest
