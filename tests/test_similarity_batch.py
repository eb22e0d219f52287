"""The batch substrate's contract: fast paths ≡ scalar references, exactly.

Property tests (hypothesis) pin the three equivalences the pipeline relies
on:

* :func:`batch_similarity_matrix` is *bit-identical* to
  :func:`similarity_matrix` on random string tables, for every similarity
  function;
* the blocked dominance kernel produces exactly the reference edge set /
  adjacency lists on random vector matrices;
* :func:`sparse_jaccard_join` returns exactly the naive quadratic join
  oracle's pairs across thresholds.

Plus direct unit tests of the :class:`TokenIndex` bigram encoder, the
empty-input fast paths, and the zero-candidate behaviour end-to-end through
:class:`PowerResolver`.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PowerConfig, PowerResolver
from repro.data.table import Table
from repro.exceptions import ConfigurationError, DataError, GraphError
from repro.graph import blocked_dominance_lists, blocked_edges, vectorized_edges
from repro.graph.dag import PairGraph
from repro.graph.grouped_graph import build_graph
from repro.similarity import (
    SimilarityConfig,
    TokenIndex,
    batch_similarity_matrix,
    similar_pairs,
    similarity_matrix,
    sparse_jaccard_join,
)
from repro.similarity.batch import batch_edit_similarities
from repro.similarity.tokenize import qgram_tokens, word_tokens
from repro.verify import naive_join

from conftest import random_vectors

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

#: A messy-but-realistic alphabet: letters, digits, whitespace to exercise
#: normalization, repetition to force token collisions, and a non-ASCII char.
_ALPHABET = "ab c1é  Z-"

text_strategy = st.text(alphabet=_ALPHABET, min_size=0, max_size=12)


@st.composite
def table_strategy(draw):
    num_attributes = draw(st.integers(min_value=1, max_value=3))
    rows = draw(
        st.lists(
            st.tuples(*[text_strategy] * num_attributes), min_size=2, max_size=12
        )
    )
    return Table.from_rows(
        "hyp", [f"a{k}" for k in range(num_attributes)], rows
    )


def all_pairs(table: Table):
    n = len(table)
    return [(i, j) for i in range(n) for j in range(i + 1, n)]


def matrix_strategy():
    return st.tuples(
        st.integers(min_value=0, max_value=40),
        st.integers(min_value=1, max_value=4),
        st.integers(min_value=0, max_value=10_000),
    ).map(lambda args: random_vectors(args[2], args[0], args[1]))


token_sets_strategy = st.lists(
    st.frozensets(st.sampled_from(["a", "b", "c", "d", "ee", "f1"]), max_size=5),
    min_size=0,
    max_size=12,
)


# --------------------------------------------------------------------------- #
# Property: batch similarity ≡ scalar similarity, bit for bit
# --------------------------------------------------------------------------- #


class TestBatchMatrixEquivalence:
    @settings(max_examples=40, deadline=None)
    @given(table=table_strategy(), function=st.sampled_from(["bigram", "jaccard", "edit"]))
    def test_bit_identical_to_scalar(self, table, function):
        pairs = all_pairs(table)
        config = SimilarityConfig.uniform(table.num_attributes, function=function)
        reference = similarity_matrix(table, pairs, config)
        fast = batch_similarity_matrix(table, pairs, config)
        assert fast.dtype == reference.dtype
        assert np.array_equal(reference, fast)

    @settings(max_examples=20, deadline=None)
    @given(table=table_strategy())
    def test_mixed_functions_and_threshold(self, table):
        pairs = all_pairs(table)
        functions = tuple(
            ["bigram", "jaccard", "edit"][k % 3] for k in range(table.num_attributes)
        )
        config = SimilarityConfig(functions=functions, attribute_threshold=0.35)
        assert np.array_equal(
            similarity_matrix(table, pairs, config),
            batch_similarity_matrix(table, pairs, config),
        )

    def test_on_fixture_bundle(self, small_bundle):
        table, pairs, vectors, _ = small_bundle
        config = SimilarityConfig.uniform(table.num_attributes)
        assert np.array_equal(vectors, batch_similarity_matrix(table, pairs, config))

    def test_pair_order_is_respected(self, small_bundle):
        table, pairs, vectors, _ = small_bundle
        config = SimilarityConfig.uniform(table.num_attributes)
        reversed_pairs = list(reversed(pairs))
        assert np.array_equal(
            vectors[::-1], batch_similarity_matrix(table, reversed_pairs, config)
        )


class TestTokenIndex:
    @settings(max_examples=40, deadline=None)
    @given(texts=st.lists(text_strategy, min_size=0, max_size=15))
    def test_bigram_index_matches_qgram_tokens(self, texts):
        index = TokenIndex.for_bigrams(texts)
        sizes = [int(index.sizes[index.row_of_text[i]]) for i in range(len(texts))]
        assert sizes == [len(qgram_tokens(text)) for text in texts]

    @settings(max_examples=30, deadline=None)
    @given(texts=st.lists(text_strategy, min_size=2, max_size=10))
    def test_bigram_constructor_equals_generic(self, texts):
        fast = TokenIndex.for_bigrams(texts)
        generic = TokenIndex(texts, qgram_tokens)
        n = len(texts)
        left = np.repeat(np.arange(n), n)
        right = np.tile(np.arange(n), n)
        assert np.array_equal(
            fast.jaccard_pairs(left, right), generic.jaccard_pairs(left, right)
        )

    def test_nul_strings_take_generic_path(self):
        texts = ["ab\x00cd", "abcd", ""]
        index = TokenIndex.for_bigrams(texts)
        generic = TokenIndex(texts, qgram_tokens)
        rows = np.arange(len(texts))
        assert np.array_equal(
            index.jaccard_pairs(rows, rows[::-1]),
            generic.jaccard_pairs(rows, rows[::-1]),
        )

    def test_empty_corpus(self):
        index = TokenIndex.for_bigrams(["", "  ", ""])
        assert index.vocab_size == 0
        assert np.array_equal(index.sizes, np.zeros(index.sizes.shape, dtype=np.int64))
        # jaccard(∅, ∅) = 1.0, matching the scalar convention.
        pairs = index.jaccard_pairs(np.array([0, 1]), np.array([1, 2]))
        assert np.array_equal(pairs, np.ones(2))


class TestTokenIndexExtend:
    """extend() ≡ from-scratch rebuild, bit for bit — the streaming contract."""

    @staticmethod
    def _assert_identical(extended: TokenIndex, scratch: TokenIndex, n: int):
        assert np.array_equal(extended.row_of_text, scratch.row_of_text)
        assert np.array_equal(extended.sizes, scratch.sizes)
        assert extended.vocab_size == scratch.vocab_size
        assert extended.bits.dtype == scratch.bits.dtype == np.uint64
        assert np.array_equal(extended.bits, scratch.bits)
        if n:
            left = np.repeat(np.arange(n), n)
            right = np.tile(np.arange(n), n)
            assert np.array_equal(
                extended.jaccard_pairs(left, right),
                scratch.jaccard_pairs(left, right),
            )

    @settings(max_examples=40, deadline=None)
    @given(
        texts=st.lists(text_strategy, min_size=1, max_size=16),
        cut=st.integers(min_value=0, max_value=16),
        data=st.data(),
    )
    def test_extend_equals_rebuild(self, texts, cut, data):
        tokenizer = data.draw(st.sampled_from([word_tokens, qgram_tokens]))
        cut = min(cut, len(texts))
        index = TokenIndex(texts[:cut], tokenizer)
        index.extend(texts[cut:])
        self._assert_identical(index, TokenIndex(texts, tokenizer), len(texts))

    @settings(max_examples=20, deadline=None)
    @given(
        texts=st.lists(text_strategy, min_size=1, max_size=12),
        cuts=st.lists(st.integers(min_value=0, max_value=12), max_size=4),
    )
    def test_chained_extends_equal_rebuild(self, texts, cuts):
        bounds = sorted({min(cut, len(texts)) for cut in cuts})
        if not bounds or bounds[0] == 0:
            bounds = [0] + [b for b in bounds if b]
        index = TokenIndex(texts[: bounds[0]] if bounds else [], word_tokens)
        previous = bounds[0] if bounds else 0
        for bound in bounds[1:] + [len(texts)]:
            index.extend(texts[previous:bound])
            previous = bound
        self._assert_identical(index, TokenIndex(texts, word_tokens), len(texts))

    def test_empty_batch_is_a_noop(self):
        texts = ["alpha beta", "beta gamma"]
        index = TokenIndex(texts, word_tokens)
        index.extend([])
        self._assert_identical(index, TokenIndex(texts, word_tokens), len(texts))

    def test_duplicate_texts_share_rows(self):
        texts = ["alpha beta", "beta gamma"]
        index = TokenIndex(texts, word_tokens)
        index.extend(["beta gamma", "alpha beta", "alpha beta"])
        scratch = TokenIndex(texts + ["beta gamma", "alpha beta", "alpha beta"],
                             word_tokens)
        assert len(index) == 2  # no new distinct strings, no new rows
        self._assert_identical(index, scratch, 5)

    def test_vocab_growth_pads_existing_rows(self):
        # >64 fresh tokens force the packed matrix into new uint64 words;
        # the old rows must zero-pad, changing no set bits.
        index = TokenIndex(["alpha beta"], word_tokens)
        words_before = index.bits.shape[1]
        grown = [" ".join(f"tok{i}{j}" for j in range(10)) for i in range(8)]
        index.extend(grown)
        assert index.bits.shape[1] > words_before
        self._assert_identical(
            index, TokenIndex(["alpha beta"] + grown, word_tokens), 9
        )

    def test_qgram_and_word_tokenizers_stay_distinct(self):
        texts = ["abc", "abd"]
        more = ["abe"]
        for tokenizer in (qgram_tokens, word_tokens):
            index = TokenIndex(texts, tokenizer)
            index.extend(more)
            self._assert_identical(index, TokenIndex(texts + more, tokenizer), 3)

    def test_bigram_fast_path_rejects_extend(self):
        index = TokenIndex.for_bigrams(["alpha", "beta"])
        with pytest.raises(ConfigurationError, match="for_bigrams"):
            index.extend(["gamma"])


class TestBatchEdit:
    def test_deduplicated_pairs_match_reference(self):
        texts = ["power", "tower", "power", "", "flower", "tower"]
        left = np.array([0, 0, 1, 2, 3, 4])
        right = np.array([1, 2, 5, 3, 4, 5])
        from repro.similarity.edit import edit_similarity

        expected = [edit_similarity(texts[i], texts[j]) for i, j in zip(left, right)]
        assert np.array_equal(batch_edit_similarities(texts, left, right), expected)


# --------------------------------------------------------------------------- #
# Property: blocked dominance kernel ≡ per-vertex reference
# --------------------------------------------------------------------------- #


class TestBlockedKernel:
    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy())
    def test_blocked_edges_equal_reference(self, vectors):
        assert blocked_edges(vectors) == vectorized_edges(vectors)

    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy(), st.integers(min_value=1, max_value=64))
    def test_block_size_is_immaterial(self, vectors, block_size):
        assert blocked_edges(vectors, block_size=block_size) == vectorized_edges(vectors)

    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy())
    def test_adjacency_lists_equal_per_vertex_loop(self, vectors):
        graph = PairGraph([(i, i + 1) for i in range(vectors.shape[0])], vectors)
        reference = [graph.descendants(v) for v in range(len(graph))]
        blocked = blocked_dominance_lists(vectors, vectors)
        assert len(blocked) == len(reference)
        for fast, ref in zip(blocked, reference):
            assert np.array_equal(fast, ref)

    @settings(max_examples=20, deadline=None)
    @given(matrix_strategy())
    def test_grouped_graph_adjacency_matches_masks(self, vectors):
        graph = build_graph(
            [(i, i + 1) for i in range(vectors.shape[0])], vectors, epsilon=0.25
        )
        reference = [graph.descendants(v) for v in range(len(graph))]
        for fast, ref in zip(graph.adjacency(), reference):
            assert np.array_equal(fast, ref)

    def test_rejects_bad_shapes(self):
        with pytest.raises(GraphError):
            blocked_dominance_lists(np.zeros((3, 2)), np.zeros((2, 2)))
        with pytest.raises(GraphError):
            blocked_dominance_lists(np.zeros((2, 2)), np.zeros((2, 2)), block_size=0)


# --------------------------------------------------------------------------- #
# Property: sparse join ≡ naive join, across thresholds
# --------------------------------------------------------------------------- #


class TestSparseJoin:
    @settings(max_examples=40, deadline=None)
    @given(
        token_sets=token_sets_strategy,
        threshold=st.sampled_from([0.1, 0.2, 0.5, 0.8, 1.0]),
    )
    def test_equals_naive_join(self, token_sets, threshold):
        assert sparse_jaccard_join(token_sets, threshold) == naive_join(
            token_sets, threshold
        )

    def test_method_sparse_through_similar_pairs(self, small_table):
        token_sets = [word_tokens(small_table.record_text(r.record_id)) for r in small_table]
        assert similar_pairs(small_table, 0.2) == sorted(
            naive_join(token_sets, 0.2)
        )

    def test_rejects_bad_threshold(self):
        with pytest.raises(ConfigurationError):
            sparse_jaccard_join([frozenset("ab")], 0.0)


# --------------------------------------------------------------------------- #
# Empty inputs and zero-candidate behaviour, end to end
# --------------------------------------------------------------------------- #


def _tiny_table(rows, attributes=("name", "city")) -> Table:
    return Table.from_rows("tiny", attributes, rows)


class TestEmptyInputs:
    def test_similarity_matrix_empty_pairs(self):
        table = _tiny_table([("a", "x"), ("b", "y")])
        config = SimilarityConfig.uniform(2)
        for vectorize in (similarity_matrix, batch_similarity_matrix):
            vectors = vectorize(table, [], config)
            assert vectors.shape == (0, 2)
            assert vectors.dtype == np.float64

    def test_similar_pairs_empty_and_singleton_tables(self):
        for rows in ([], [("solo", "record")]):
            table = _tiny_table(rows)
            for tokens in ("word", "qgram"):
                assert similar_pairs(table, 0.2, tokens=tokens) == []

    def test_similar_pairs_rejects_unknown_method_even_when_tiny(self):
        # The join has no strategy knob left; bad arguments still fail
        # before the empty-table fast path.
        with pytest.raises(TypeError):
            similar_pairs(_tiny_table([]), 0.2, method="bogus")
        with pytest.raises(ConfigurationError):
            similar_pairs(_tiny_table([]), 0.2, tokens="bogus")

    def test_resolver_with_zero_candidates_raises_data_error(self):
        # Completely dissimilar records: pruning leaves nothing to resolve.
        table = Table.from_rows(
            "disjoint",
            ("name", "city"),
            [("aaaa", "bbbb"), ("cccc", "dddd"), ("eeee", "ffff")],
            entity_ids=[0, 1, 2],
        )
        with pytest.raises(DataError):
            PowerResolver(PowerConfig(pruning_threshold=0.9)).resolve(table)

    def test_resolver_scalar_and_batch_paths_agree(self, small_table):
        results = [
            PowerResolver(
                PowerConfig(seed=3, use_batch_similarity=use_batch)
            ).resolve(small_table)
            for use_batch in (True, False)
        ]
        batch_run, scalar_run = results
        assert batch_run.candidate_pairs == scalar_run.candidate_pairs
        assert batch_run.matches == scalar_run.matches
        assert batch_run.clusters == scalar_run.clusters
        assert batch_run.questions == scalar_run.questions

    def test_power_config_validates_join_knobs(self):
        with pytest.raises(TypeError):
            PowerConfig(join_method="sparse")  # one join: no strategy knob
        with pytest.raises(ConfigurationError):
            PowerConfig(join_tokens="chars")
        assert PowerConfig(join_tokens="qgram").join_tokens == "qgram"
