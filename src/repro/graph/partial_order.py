"""The partial order on similarity vectors (paper Eqs. 3-4).

``p >= p'`` (weak dominance) when every component of ``p``'s similarity
vector is at least the corresponding component of ``p'``; ``p > p'`` (strict
dominance) additionally requires at least one strictly larger component.

The scalar functions are the readable reference; the ``*_masks`` helpers are
the vectorised forms the graph engine uses (one numpy pass over all vertices
per query).
"""

from __future__ import annotations

import numpy as np


def dominates(u: np.ndarray, v: np.ndarray) -> bool:
    """True when ``u >= v`` componentwise (weak dominance, Eq. 3)."""
    return bool(np.all(u >= v))


def strictly_dominates(u: np.ndarray, v: np.ndarray) -> bool:
    """True when ``u >= v`` componentwise with some strict component (Eq. 4)."""
    return bool(np.all(u >= v) and np.any(u > v))


def comparable(u: np.ndarray, v: np.ndarray) -> bool:
    """True when the two vectors are ordered either way under strict dominance."""
    return strictly_dominates(u, v) or strictly_dominates(v, u)


def descendant_mask(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Boolean mask over rows of *matrix* strictly dominated by *vector*.

    Because strict dominance is transitive, this mask is simultaneously the
    "children in the full dominance relation" and the "descendants" of the
    vertex — the set whose answers a RED vertex determines (§3.2).
    """
    return np.logical_and((matrix <= vector).all(axis=1), (matrix < vector).any(axis=1))


def ancestor_mask(matrix: np.ndarray, vector: np.ndarray) -> np.ndarray:
    """Boolean mask over rows of *matrix* strictly dominating *vector*.

    The set whose answers a GREEN vertex determines (§3.2).
    """
    return np.logical_and((matrix >= vector).all(axis=1), (matrix > vector).any(axis=1))
