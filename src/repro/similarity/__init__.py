"""Similarity substrate: tokenizers, string similarities, vectors, joins.

Scalar reference implementations live in :mod:`.jaccard`, :mod:`.edit` and
:mod:`.vectors`; the vectorized production fast paths live in :mod:`.batch`
and are equivalence-tested against the references.  The candidate join
(:mod:`.join`) has one implementation; its oracles live in
:mod:`repro.verify.oracles`.
"""

from .batch import TokenIndex, batch_similarity_matrix, sparse_jaccard_join
from .edit import edit_distance, edit_similarity
from .jaccard import bigram_jaccard, jaccard, qgram_jaccard, token_jaccard
from .join import similar_pairs
from .tokenize import normalize, qgram_tokens, word_tokens
from .vectors import (
    SIMILARITY_FUNCTIONS,
    SimilarityConfig,
    attribute_similarities,
    resolve_function,
    resolve_functions,
    similarity_matrix,
)

__all__ = [
    "SIMILARITY_FUNCTIONS",
    "SimilarityConfig",
    "TokenIndex",
    "attribute_similarities",
    "batch_similarity_matrix",
    "bigram_jaccard",
    "edit_distance",
    "edit_similarity",
    "jaccard",
    "normalize",
    "qgram_jaccard",
    "qgram_tokens",
    "resolve_function",
    "resolve_functions",
    "similar_pairs",
    "similarity_matrix",
    "sparse_jaccard_join",
    "token_jaccard",
    "word_tokens",
]
