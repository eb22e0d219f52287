"""Tests for incremental (streaming) entity resolution."""

from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import IncrementalResolver, PowerConfig, stream_in_batches
from repro.crowd import PerfectCrowd
from repro.data import Table, restaurant, true_match_pairs
from repro.data.ground_truth import pair_truth
from repro.exceptions import ConfigurationError, DataError
from repro.similarity import similar_pairs
from repro.similarity.batch import PostingJoin
from repro.similarity.jaccard import jaccard
from repro.similarity.tokenize import qgram_tokens, word_tokens
from repro.similarity.vectors import similarity_matrix


@pytest.fixture(scope="module")
def streamed(small_table):
    return stream_in_batches(small_table, batch_size=20, worker_band="90")


class TestStreaming:
    def test_all_records_ingested(self, streamed, small_table):
        assert len(streamed.table) == len(small_table)
        assert streamed.batches == 3

    def test_quality_reasonable(self, streamed):
        assert streamed.quality().f_measure > 0.8

    def test_cost_accounting_accumulates(self, streamed):
        assert streamed.total_questions > 0
        assert streamed.total_iterations >= streamed.batches - 1
        assert streamed.total_cost_cents > 0

    def test_clusters_partition_records(self, streamed, small_table):
        clusters = streamed.clusters()
        members = sorted(r for cluster in clusters for r in cluster)
        assert members == list(range(len(small_table)))

    def test_summary_text(self, streamed):
        text = streamed.summary()
        assert "records seen" in text and "quality" in text


class TestCandidateCoverage:
    def test_incremental_join_matches_batch_join(self, small_table):
        """The streaming inverted-index join must find the same candidate
        pairs as the one-shot join at the same threshold."""
        from repro.similarity import similar_pairs

        resolver = stream_in_batches(small_table, batch_size=7, worker_band="90")
        batch = set(similar_pairs(small_table, resolver.config.pruning_threshold))
        assert set(resolver.labels) == batch


class TestBatchAPI:
    def test_oracle_session_per_batch(self, small_table):
        resolver = IncrementalResolver(
            small_table.attributes, config=PowerConfig(seed=0)
        )
        rows = [record.values for record in small_table]
        ids = [record.entity_id for record in small_table]
        half = len(rows) // 2
        # First batch with an explicit oracle session.
        resolver.add_batch(rows[:half], entity_ids=ids[:half])
        # Build oracle over second batch's candidates: simplest is to add
        # with auto-simulated 90-band crowd; here exercise explicit session.
        for start in range(half, len(rows), 10):
            chunk_rows = rows[start : start + 10]
            chunk_ids = ids[start : start + 10]
            # Pre-register records on a scratch resolver to learn candidates
            # is overkill; just use the ground-truth-backed auto crowd.
            resolver.add_batch(chunk_rows, entity_ids=chunk_ids)
        assert len(resolver.table) == len(rows)

    def test_empty_batch_rejected(self):
        resolver = IncrementalResolver(("a",))
        with pytest.raises(DataError):
            resolver.add_batch([])

    def test_mismatched_entity_ids(self):
        resolver = IncrementalResolver(("a",))
        with pytest.raises(DataError):
            resolver.add_batch([("x",)], entity_ids=[1, 2])

    def test_no_truth_and_no_session(self):
        resolver = IncrementalResolver(("a",))
        resolver.add_batch([("alpha beta gamma",)])  # no pairs yet: fine
        with pytest.raises(ConfigurationError):
            resolver.add_batch([("alpha beta gamma",)])  # pair but no crowd

    def test_quality_requires_truth(self):
        resolver = IncrementalResolver(("a",))
        resolver.add_batch([("solo",)])
        with pytest.raises(DataError):
            resolver.quality()

    def test_invalid_batch_size(self, small_table):
        with pytest.raises(ConfigurationError):
            stream_in_batches(small_table, batch_size=0)


class TestBatchSubstrateParity:
    def test_candidates_match_scalar_inverted_index(self, small_table):
        """The resumed join equals a scalar inverted-list probe with exact
        Jaccard verification — the pre-refactor reference — from every
        batch boundary of the stream on."""
        from collections import defaultdict

        from repro.similarity.jaccard import jaccard
        from repro.similarity.tokenize import word_tokens

        resolver = stream_in_batches(small_table, batch_size=9, worker_band="90")
        threshold = resolver.config.pruning_threshold

        # Scalar reference: ad-hoc token -> record ids inverted index.
        token_index = defaultdict(list)
        record_tokens = []
        for record_id in range(len(resolver.table)):
            tokens = word_tokens(resolver.table.record_text(record_id))
            record_tokens.append(tokens)
            for token in tokens:
                token_index[token].append(record_id)

        def reference_candidates(record_id):
            tokens = record_tokens[record_id]
            if not tokens:
                return []
            seen = {
                other
                for token in tokens
                for other in token_index[token]
                if other < record_id
            }
            return sorted(
                (other, record_id)
                for other in seen
                if jaccard(tokens, record_tokens[other]) >= threshold
            )

        n = len(resolver.table)
        for first in range(0, n, 9):
            expected = sorted(
                pair
                for record_id in range(first, n)
                for pair in reference_candidates(record_id)
            )
            join = PostingJoin(threshold)
            join.extend(record_tokens[:first])
            assert join.extend(record_tokens[first:]) == expected, (
                f"candidate parity broke for the records from {first} on"
            )

    def test_empty_token_records_pair_among_themselves(self):
        """``jaccard(∅, ∅) == 1.0``: the stream pairs two empty token sets,
        as the one-shot join does, and pairs neither with anything else."""
        resolver = IncrementalResolver(("a",), config=PowerConfig(seed=0))
        report = resolver.add_batch(
            [("",), ("",), ("alpha beta",)], entity_ids=[1, 2, 3]
        )
        assert report["new_pairs"] == 1
        assert list(resolver.labels) == [(0, 1)]

    def test_stream_and_one_shot_agree_on_empty_token_records(self):
        """One row per batch decides exactly the one-shot candidate pairs,
        the empty-token pair ``(1, 3)`` included."""
        table = Table.from_rows(
            "t",
            ("a", "b"),
            [("alpha beta", "x"), ("!!!", "..."), ("alpha beta", "x"), ("", "")],
            [0, 1, 0, 1],
        )
        assert similar_pairs(table, 0.3) == [(0, 2), (1, 3)]
        resolver = IncrementalResolver(
            table.attributes, config=PowerConfig(seed=0, pruning_threshold=0.3)
        )
        for record in table:
            resolver.add_batch([record.values], entity_ids=[record.entity_id])
        assert sorted(resolver.labels) == [(0, 2), (1, 3)]

    def test_batch_and_scalar_vectors_agree_end_to_end(self, small_table):
        """Streaming with the vectorized similarity substrate must replay,
        byte for byte, a stream whose batches the scalar reference
        vectorizes."""
        scalar_batches = []

        def scalar_vectors(resolver, pairs):
            scalar_batches.append(len(pairs))
            config = resolver._resolver.similarity_config(resolver.table)
            return similarity_matrix(resolver.table, pairs, config)

        def run():
            return stream_in_batches(
                small_table,
                batch_size=12,
                config=PowerConfig(seed=0),
                worker_band="90",
            )

        fast = run()
        with mock.patch.object(IncrementalResolver, "_batch_vectors", scalar_vectors):
            slow = run()
        assert scalar_batches, "the scalar reference never ran"
        assert fast.labels == slow.labels
        assert fast.total_questions == slow.total_questions
        assert fast.total_iterations == slow.total_iterations
        assert fast.total_cost_cents == slow.total_cost_cents
        assert fast.clusters() == slow.clusters()


def _sweep(texts, first, threshold=0.2, join_tokens="word"):
    """The pairs of records ``first ..`` from a join resumed at *first*."""
    resolver = IncrementalResolver(
        ("text",),
        config=PowerConfig(pruning_threshold=threshold, join_tokens=join_tokens),
    )
    join = resolver._join
    join.extend(resolver._token_sets(texts[:first]))
    return join.extend(resolver._token_sets(texts[first:]))


def _scalar_sweep(texts, first, threshold=0.2, tokenizer=word_tokens):
    """Per-record scalar reference: every earlier record whose exact
    Jaccard clears the threshold (two empty token sets score 1.0)."""
    tokens = [tokenizer(text) for text in texts]
    return [
        (other, record)
        for other in range(len(texts))
        for record in range(max(first, other + 1), len(texts))
        if jaccard(tokens[other], tokens[record]) >= threshold
    ]


_WORDS = ["alpha", "beta", "gamma", "delta", "!!"]


class TestBatchSweep:
    """A batch's candidate search — the join resumed at its first record —
    equals the per-record scalar probe."""

    @settings(max_examples=60, deadline=None)
    @given(
        texts=st.lists(
            st.lists(st.sampled_from(_WORDS), max_size=4).map(" ".join),
            min_size=1,
            max_size=14,
        ),
        data=st.data(),
    )
    def test_equals_scalar_probe(self, texts, data):
        first = data.draw(st.integers(min_value=0, max_value=len(texts)))
        threshold = data.draw(st.sampled_from([0.2, 0.5, 1.0]))
        join_tokens, tokenizer = data.draw(
            st.sampled_from([("word", word_tokens), ("qgram", qgram_tokens)])
        )
        swept = _sweep(texts, first, threshold, join_tokens)
        assert swept == _scalar_sweep(texts, first, threshold, tokenizer)

    def test_batch_holding_record_zero(self):
        texts = ["alpha beta", "gamma", "beta alpha", "alpha"]
        assert _sweep(texts, 0) == [(0, 2), (0, 3), (2, 3)]

    def test_empty_token_rows_inside_a_batch(self):
        # Two empty token sets score 1.0, as in the one-shot join: they
        # pair with each other, and never with anything else.
        texts = ["alpha beta", "", "!!", "alpha beta", ""]
        assert _sweep(texts, 1) == [(0, 3), (1, 2), (1, 4), (2, 4)]

    def test_duplicate_texts_within_one_batch(self):
        texts = ["gamma", "alpha beta", "alpha beta", "alpha beta"]
        assert _sweep(texts, 1) == [(1, 2), (1, 3), (2, 3)]

    def test_threshold_one_keeps_only_equal_token_sets(self):
        texts = ["alpha beta", "alpha beta gamma", "beta alpha", "alpha"]
        assert _sweep(texts, 1, threshold=1.0) == [(0, 2)]

    def test_join_resumed_at_every_record_equals_one_shot(self, small_table):
        """A stream of one-record batches decides exactly what a stream of
        20-record batches decides."""
        texts = [small_table.record_text(r.record_id) for r in small_table]
        assert _sweep(texts, 40) == _scalar_sweep(texts, 40)
        join = PostingJoin(0.2)
        resumed = [pair for text in texts for pair in join.extend([word_tokens(text)])]
        assert sorted(resumed) == _scalar_sweep(texts, 0)
        single = stream_in_batches(small_table, batch_size=1)
        whole = stream_in_batches(small_table, batch_size=20)
        assert set(single.labels) == set(whole.labels)


class TestRefusedBatch:
    """A refused batch leaves the resolver exactly as it was."""

    GOOD = [("alpha beta", "x"), ("gamma delta", "y")]
    NEXT = [("alpha beta", "x"), ("gamma delta", "z")]

    @staticmethod
    def _state(resolver):
        join = resolver._join
        return (
            [(record.values, record.entity_id) for record in resolver.table],
            dict(resolver.labels),
            resolver.batches,
            resolver.total_questions,
            resolver.total_cost_cents,
            list(join.vocab.items()),
            [list(posting) for posting in join.postings],
            join.sizes.tolist(),
            list(join._empties),
        )

    def _resolver(self):
        resolver = IncrementalResolver(("a", "b"), config=PowerConfig(seed=0))
        resolver.add_batch(self.GOOD, entity_ids=[1, 2])
        return resolver

    @pytest.mark.parametrize(
        "rows, entity_ids, error",
        [
            # A short second row, after a valid first one.
            ([("alpha beta", "x"), ("gamma",)], [1, 3], DataError),
            # Pairs with the stream, but no truth and no session.
            ([("alpha beta", "x")], None, ConfigurationError),
            # The same, with new tokens and a token-free record the join
            # has to forget again.
            ([("omega", "psi"), ("alpha beta", "x"), ("", "!!")], None, ConfigurationError),
            # A lone surrogate, which no snapshot could store.
            ([("alpha beta", "x"), ("gamma \ud800", "y")], [1, 3], DataError),
        ],
        ids=["short-row", "no-ground-truth", "no-ground-truth-new-tokens", "lone-surrogate"],
    )
    def test_refused_batch_changes_nothing(self, rows, entity_ids, error):
        resolver = self._resolver()
        before = self._state(resolver)
        with pytest.raises(error):
            resolver.add_batch(rows, entity_ids=entity_ids)
        assert self._state(resolver) == before
        # The next valid batch lands as if the bad one never came.
        resolver.add_batch(self.NEXT, entity_ids=[1, 3])
        clean = self._resolver()
        clean.add_batch(self.NEXT, entity_ids=[1, 3])
        assert self._state(resolver) == self._state(clean)


class TestIncrementalVsOneShot:
    def test_same_clusters_with_oracle(self, small_table):
        """With perfect answers, streaming resolution reaches (nearly) the
        same clustering as one-shot resolution; small deviations can only
        come from partial-order violations met in a different order."""
        from repro.core import PowerResolver

        one_shot = PowerResolver(PowerConfig(seed=0, error_tolerant=False))
        pairs = one_shot.candidate_pairs(small_table)
        truth = pair_truth(small_table, pairs)
        result = one_shot.resolve(
            small_table, session=PerfectCrowd(truth).session()
        )
        streamed = stream_in_batches(
            small_table,
            batch_size=15,
            config=PowerConfig(seed=0, error_tolerant=False),
            worker_band=(0.999, 1.0),
        )
        gold = true_match_pairs(small_table)
        assert abs(
            streamed.quality().f_measure
            - result.quality.f_measure
        ) < 0.05
