"""The batch substrate's contract: fast paths ≡ scalar references, exactly.

Property tests (hypothesis) pin the three equivalences the pipeline relies
on:

* :func:`batch_similarity_matrix` is *bit-identical* to
  :func:`similarity_matrix` on random string tables, for every similarity
  function;
* the reference dominance tiles produce exactly the per-vertex edge set,
  and the reachability index exactly their lists, on random vector
  matrices;
* :func:`sparse_jaccard_join` returns exactly the naive quadratic join
  oracle's pairs across thresholds, and a :class:`PostingJoin` extended
  batch by batch returns exactly the one-shot join's pairs, also around
  the size of its verification block;
* the token bitsets ``_pack_rows`` builds equal a per-bit reference.

Plus direct unit tests of the :class:`TokenIndex` bigram encoder, the
index a join's postings give (the streaming snapshot's layout), the
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
from repro.similarity.batch import (
    _JOIN_BLOCK,
    PostingJoin,
    _pack_rows,
    batch_edit_similarities,
)
from repro.similarity.tokenize import qgram_tokens, word_tokens
from repro.verify import naive_join
from repro.verify.relation import blocked_dominance_lists, vectorized_edges

from conftest import random_vectors

# --------------------------------------------------------------------------- #
# Strategies
# --------------------------------------------------------------------------- #

#: A messy-but-realistic alphabet: letters, digits, whitespace to exercise
#: normalization, repetition to force token collisions, a non-ASCII char,
#: two astral-plane chars (above U+FFFF) and a lone surrogate, which a
#: Python ``str`` can hold.
_ALPHABET = "ab c1é  Z-\U0001d538\U0001f600\ud800"

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

    @settings(max_examples=30, deadline=None)
    @given(table=table_strategy(), data=st.data())
    def test_pairs_touching_some_records(self, table, data):
        """Only the records a pair touches are tokenized: the vectors must
        not depend on the rest of the table."""
        pairs = data.draw(st.lists(st.sampled_from(all_pairs(table)), max_size=5))
        function = data.draw(st.sampled_from(["bigram", "jaccard", "edit"]))
        config = SimilarityConfig.uniform(table.num_attributes, function=function)
        assert np.array_equal(
            similarity_matrix(table, pairs, config),
            batch_similarity_matrix(table, pairs, config),
        )

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

    def test_astral_text_matches_scalar_vectors(self):
        table = Table.from_rows(
            "astral",
            ("name", "note"),
            [
                ("\U0001d538\U0001d539 cafe", "\U0001f600 ok"),
                ("\U0001d538\U0001d539 café", "\U0001f600\U0001f600 ok"),
                ("cafe \U0010ffff", "ok"),
                ("\U0001d538", "\U0001f600"),
            ],
        )
        pairs = all_pairs(table)
        for function in ("bigram", "jaccard", "edit"):
            config = SimilarityConfig.uniform(2, function=function)
            assert np.array_equal(
                similarity_matrix(table, pairs, config),
                batch_similarity_matrix(table, pairs, config),
            )

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

    @staticmethod
    def _assert_equals_generic(texts):
        fast = TokenIndex.for_bigrams(texts)
        generic = TokenIndex(texts, qgram_tokens)
        n = len(texts)
        left = np.repeat(np.arange(n), n)
        right = np.tile(np.arange(n), n)
        assert np.array_equal(
            fast.jaccard_pairs(left, right), generic.jaccard_pairs(left, right)
        )
        sizes = [int(fast.sizes[fast.row_of_text[i]]) for i in range(n)]
        assert sizes == [len(qgram_tokens(text)) for text in texts]
        return fast

    def test_top_codepoint_sizes_a_full_bitmap(self):
        # U+10FFFF, the last codepoint, needs every bitmap entry.
        self._assert_equals_generic(
            ["a\U0010ffffb", "\U0010ffff", "ab\U0010ffff", "\U0001f600ab", "b"]
        )

    def test_wide_alphabet_takes_the_generic_tokenizer(self, monkeypatch):
        # 4,096 distinct CJK codepoints reach the alphabet cap, so the
        # bigram codes would overflow the interning bitmap's budget.
        points = [chr(0x4E00 + k) for k in range(4096)]
        texts = ["".join(points[start : start + 48]) for start in range(0, 4096, 32)]
        assert len(set("".join(texts))) >= 4096
        self._assert_equals_generic(texts)
        generic, calls = TokenIndex.__init__, []

        def spy(index, texts, tokenizer):
            calls.append(tokenizer)
            generic(index, texts, tokenizer)

        monkeypatch.setattr(TokenIndex, "__init__", spy)
        TokenIndex.for_bigrams(texts)
        assert calls == [qgram_tokens]  # the generic constructor ran

    def test_empty_corpus(self):
        index = TokenIndex.for_bigrams(["", "  ", ""])
        assert index.vocab_size == 0
        assert np.array_equal(index.sizes, np.zeros(index.sizes.shape, dtype=np.int64))
        # jaccard(∅, ∅) = 1.0, matching the scalar convention.
        pairs = index.jaccard_pairs(np.array([0, 1]), np.array([1, 2]))
        assert np.array_equal(pairs, np.ones(2))


def _join_of(texts, tokenizer, bounds=()):
    """A join over *texts*, extended at each of the sorted *bounds*."""
    join = PostingJoin(0.5)
    previous = 0
    for bound in [*bounds, len(texts)]:
        join.extend([tokenizer(text) for text in texts[previous:bound]])
        previous = bound
    return join


class TestTokenIndexExtend:
    """The TokenIndex of a join extended batch by batch (``from_join``) ≡
    a from-scratch TokenIndex, bit for bit — the streaming snapshot's
    contract."""

    @staticmethod
    def _assert_identical(derived: TokenIndex, scratch: TokenIndex, n: int):
        assert np.array_equal(derived.row_of_text, scratch.row_of_text)
        assert np.array_equal(derived.sizes, scratch.sizes)
        assert derived.vocab_size == scratch.vocab_size
        assert derived.bits.dtype == scratch.bits.dtype == np.uint64
        assert np.array_equal(derived.bits, scratch.bits)
        if n:
            left = np.repeat(np.arange(n), n)
            right = np.tile(np.arange(n), n)
            assert np.array_equal(
                derived.jaccard_pairs(left, right),
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
        join = _join_of(texts, tokenizer, [min(cut, len(texts))])
        self._assert_identical(
            TokenIndex.from_join(join, texts), TokenIndex(texts, tokenizer), len(texts)
        )

    @settings(max_examples=20, deadline=None)
    @given(
        texts=st.lists(text_strategy, min_size=1, max_size=12),
        cuts=st.lists(st.integers(min_value=0, max_value=12), max_size=4),
    )
    def test_chained_extends_equal_rebuild(self, texts, cuts):
        bounds = sorted(min(cut, len(texts)) for cut in cuts)
        join = _join_of(texts, word_tokens, bounds)
        self._assert_identical(
            TokenIndex.from_join(join, texts), TokenIndex(texts, word_tokens), len(texts)
        )

    def test_empty_batch_is_a_noop(self):
        texts = ["alpha beta", "beta gamma"]
        join = _join_of(texts, word_tokens)
        assert join.extend([]) == []
        self._assert_identical(
            TokenIndex.from_join(join, texts), TokenIndex(texts, word_tokens), 2
        )

    def test_duplicate_texts_share_rows(self):
        texts = ["alpha beta", "beta gamma", "beta gamma", "alpha beta", "alpha beta"]
        index = TokenIndex.from_join(_join_of(texts, word_tokens, [2]), texts)
        assert len(index) == 2  # no new distinct strings, no new rows
        self._assert_identical(index, TokenIndex(texts, word_tokens), 5)

    def test_vocab_growth_pads_existing_rows(self):
        # >64 tokens put the packed matrix past one uint64 word, which
        # the first record's row must span too, changing no set bits.
        texts = ["alpha beta"] + [
            " ".join(f"tok{i}{j}" for j in range(10)) for i in range(8)
        ]
        index = TokenIndex.from_join(_join_of(texts, word_tokens, [1]), texts)
        assert index.bits.shape[1] > 1
        self._assert_identical(index, TokenIndex(texts, word_tokens), 9)

    def test_qgram_and_word_tokenizers_stay_distinct(self):
        texts = ["abc", "abd", "abe"]
        for tokenizer in (qgram_tokens, word_tokens):
            join = _join_of(texts, tokenizer, [2])
            self._assert_identical(
                TokenIndex.from_join(join, texts), TokenIndex(texts, tokenizer), 3
            )


class TestPostingJoin:
    """Resuming the join: batches find the one-shot pairs, a probe-free
    extend indexes without pairing, and truncate undoes an extend."""

    @settings(max_examples=40, deadline=None)
    @given(
        token_sets=token_sets_strategy,
        cuts=st.lists(st.integers(min_value=0, max_value=30), max_size=4),
        threshold=st.sampled_from([0.1, 0.5, 1.0]),
    )
    def test_batches_find_the_one_shot_pairs(self, token_sets, cuts, threshold):
        join = PostingJoin(threshold)
        previous, pairs = 0, []
        for bound in sorted(min(cut, len(token_sets)) for cut in cuts) + [len(token_sets)]:
            batch = join.extend(token_sets[previous:bound])
            assert batch == sorted(batch)
            assert all(b >= previous for _, b in batch)
            pairs += batch
            previous = bound
        assert sorted(pairs) == sparse_jaccard_join(token_sets, threshold)

    @settings(max_examples=40, deadline=None)
    @given(token_sets=token_sets_strategy, cut=st.integers(min_value=0, max_value=30))
    def test_probe_free_extend_then_resume(self, token_sets, cut):
        cut = min(cut, len(token_sets))
        indexed, probed = PostingJoin(0.3), PostingJoin(0.3)
        assert indexed.extend(token_sets[:cut], probe=False) == []
        probed.extend(token_sets[:cut])
        assert indexed.extend(token_sets[cut:]) == probed.extend(token_sets[cut:])

    @settings(max_examples=40, deadline=None)
    @given(
        token_sets=token_sets_strategy,
        refused=token_sets_strategy,
        cut=st.integers(min_value=0, max_value=30),
    )
    def test_truncate_undoes_an_extend(self, token_sets, refused, cut):
        def state(join):
            return (
                list(join.vocab.items()),
                [list(posting) for posting in join.postings],
                join.sizes.tolist(),
                list(join._empties),
            )

        cut = min(cut, len(token_sets))
        join, clean = PostingJoin(0.3), PostingJoin(0.3)
        join.extend(token_sets[:cut])
        clean.extend(token_sets[:cut])
        join.extend(refused)
        join.truncate(cut)
        assert state(join) == state(clean)
        assert join.extend(token_sets[cut:]) == clean.extend(token_sets[cut:])


#: Record counts just below, at and above one verification block.
_BLOCK_EDGES = [_JOIN_BLOCK - 1, _JOIN_BLOCK, _JOIN_BLOCK + 1]

#: 7 of 25 tokens score exactly ``7 / 25 == 0.28``, though ``0.28 * 25``
#: rounds past 7: the overlap floor's float edge.
_FLOAT_EDGE = [
    frozenset(f"w{k}" for k in range(7)),
    frozenset(f"w{k}" for k in range(25)),
]


def _block_token_sets(data, size: int) -> list[frozenset[str]]:
    """*size* token sets, many of them empty or repeated, holding the
    float-edge pair at drawn positions."""
    token_sets = data.draw(
        st.lists(
            st.frozensets(st.sampled_from("abcdef"), max_size=4),
            min_size=size,
            max_size=size,
        )
    )
    for tokens in _FLOAT_EDGE:
        token_sets[data.draw(st.integers(0, size - 1))] = tokens
    return token_sets


class TestPostingJoinBlocks:
    """Block verification ≡ the quadratic naive join, around the block size,
    one-shot and batch by batch, and after a refused batch is truncated."""

    @settings(max_examples=12, deadline=None)
    @given(
        size=st.sampled_from(_BLOCK_EDGES),
        threshold=st.sampled_from([0.28, 0.5, 1.0]),
        data=st.data(),
    )
    def test_one_shot_equals_naive_join(self, size, threshold, data):
        token_sets = _block_token_sets(data, size)
        assert PostingJoin(threshold).extend(token_sets) == sorted(
            naive_join(token_sets, threshold)
        )

    @settings(max_examples=12, deadline=None)
    @given(
        size=st.sampled_from(_BLOCK_EDGES),
        threshold=st.sampled_from([0.28, 0.5]),
        data=st.data(),
    )
    def test_batches_equal_naive_join(self, size, threshold, data):
        token_sets = _block_token_sets(data, size)
        bounds = sorted(data.draw(st.lists(st.integers(0, size), max_size=3)))
        join, pairs, previous = PostingJoin(threshold), [], 0
        for bound in [*bounds, size]:
            pairs += join.extend(token_sets[previous:bound])
            previous = bound
        assert sorted(pairs) == sorted(naive_join(token_sets, threshold))

    @settings(max_examples=12, deadline=None)
    @given(size=st.sampled_from(_BLOCK_EDGES), data=st.data())
    def test_truncate_after_a_refused_batch(self, size, data):
        token_sets = _block_token_sets(data, size)
        refused = _block_token_sets(data, data.draw(st.sampled_from([1, *_BLOCK_EDGES])))
        cut = data.draw(st.integers(0, size))
        join = PostingJoin(0.28)
        pairs = join.extend(token_sets[:cut])
        join.extend(refused)
        join.truncate(cut)
        pairs += join.extend(token_sets[cut:])
        assert sorted(pairs) == sorted(naive_join(token_sets, 0.28))


class TestPackRows:
    @settings(max_examples=60, deadline=None)
    @given(
        vocab_size=st.sampled_from([0, 1, 63, 64, 65, 130]),
        num_rows=st.integers(0, 6),
        data=st.data(),
    )
    def test_equals_a_per_bit_reference(self, vocab_size, num_rows, data):
        entries = []
        if vocab_size and num_rows:
            entries = data.draw(
                st.lists(
                    st.tuples(
                        st.integers(0, num_rows - 1), st.integers(0, vocab_size - 1)
                    ),
                    max_size=40,
                )
            )
        entries += entries[: len(entries) // 2]  # repeated (row, token) entries
        packed = _pack_rows(
            num_rows,
            np.array([row for row, _ in entries], dtype=np.int64),
            np.array([token for _, token in entries], dtype=np.int64),
            vocab_size,
        )
        words = max(1, (vocab_size + 63) // 64)
        assert packed.dtype == np.uint64 and packed.shape == (num_rows, words)
        expected = [0] * num_rows
        for row, token in entries:
            expected[row] |= 1 << token
        assert [
            sum(int(word) << (64 * k) for k, word in enumerate(row)) for row in packed
        ] == expected


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


def tile_edges(vectors, block_size=256):
    """The edge set cut from the reference dominance tiles."""
    lists = blocked_dominance_lists(vectors, vectors, block_size=block_size)
    return {(u, int(v)) for u, row in enumerate(lists) for v in row}


class TestBlockedKernel:
    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy())
    def test_blocked_edges_equal_reference(self, vectors):
        assert tile_edges(vectors) == vectorized_edges(vectors)

    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy(), st.integers(min_value=1, max_value=64))
    def test_block_size_is_immaterial(self, vectors, block_size):
        assert tile_edges(vectors, block_size=block_size) == vectorized_edges(vectors)

    @settings(max_examples=30, deadline=None)
    @given(matrix_strategy())
    def test_adjacency_lists_equal_per_vertex_loop(self, vectors):
        graph = PairGraph([(i, i + 1) for i in range(vectors.shape[0])], vectors)
        reference = [graph.reachability.descendants(v) for v in range(len(graph))]
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
        reference = [graph.reachability.descendants(v) for v in range(len(graph))]
        blocked = blocked_dominance_lists(graph.lower_bounds, graph.upper_bounds)
        for fast, ref in zip(blocked, reference):
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
        pairs = sparse_jaccard_join(token_sets, threshold)
        assert set(pairs) == naive_join(token_sets, threshold)
        assert pairs == sorted(pairs)

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

    def test_pairs_are_read_with_the_same_checks(self):
        """Tuples, lists and an (n, 2) array give the same matrix; pairs that
        do not make an (n, 2) array are refused as before."""
        table = _tiny_table([("a b", "x"), ("a c", "y"), ("b c", "x")])
        config = SimilarityConfig.uniform(2)
        pairs = [(0, 1), (2, 0), (1, 2)]
        expected = similarity_matrix(table, pairs, config)
        for given_pairs in (pairs, [list(pair) for pair in pairs], np.array(pairs)):
            assert np.array_equal(batch_similarity_matrix(table, given_pairs, config), expected)
        with pytest.raises(ConfigurationError, match=r"shape \(2, 3\)"):
            batch_similarity_matrix(table, [(0, 1, 2), (0, 1, 2)], config)
        with pytest.raises(ConfigurationError, match=r"shape \(2,\)"):
            batch_similarity_matrix(table, [0, 1], config)
        with pytest.raises(ValueError, match="inhomogeneous"):
            batch_similarity_matrix(table, [(0, 1), (0, 1, 2)], config)

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
        class ScalarResolver(PowerResolver):
            """The resolver with the scalar reference as its vectorizer."""

            def similarity_vectors(self, table, pairs):
                config = self.similarity_config(table)
                return similarity_matrix(table, pairs, config)

        batch_run = PowerResolver(PowerConfig(seed=3)).resolve(small_table)
        scalar_run = ScalarResolver(PowerConfig(seed=3)).resolve(small_table)
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

    @pytest.mark.parametrize(
        "knob, value",
        [
            ("use_batch_similarity", False),
            ("use_incremental_selection", False),
            ("reachability_index", "off"),
            ("plan", "auto"),
        ],
    )
    def test_power_config_refuses_retired_knobs(self, knob, value):
        # Knobs that only picked an implementation are gone: passing one is
        # an error, never a silent no-op.
        with pytest.raises(TypeError):
            PowerConfig(**{knob: value})
