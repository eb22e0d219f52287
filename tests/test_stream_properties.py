"""Property tests for the streaming resolution service.

Three families of invariants, each driven by hypothesis:

* **arrival-order invariance** — under a perfect crowd on monotone truth
  (the regime where inference provably recovers truth exactly), the final
  entity partition does not depend on the order records arrive in;
* **re-chunking invariance** — nor on how the stream is cut into batches:
  every chunking decides the same pair universe with the same labels as
  the one-shot resolver;
* **kill-resume equivalence** — checkpointing after every batch, killing
  at a random point (torn manifest tail included), restoring, and
  finishing produces a run bit-identical to the uninterrupted one —
  labels, crowd transcripts, billing totals, and final ``state_sha``.

The first two families key truth by record *content* (the similarity
vector of a pair is a function of the two records' values, so monotone
truth is too), which is what makes cross-arrangement comparison sound even
when the table holds duplicate rows.
"""

from __future__ import annotations

import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.config import PowerConfig
from repro.core.resolver import PowerResolver
from repro.crowd import PerfectCrowd
from repro.stream import MANIFEST_NAME, StreamingResolver
from repro.verify.oracles import _pair_truth_from_vertices, monotone_truth

#: Ungrouped graphs: the exactness theorem (perfect crowd + monotone truth
#: => labels == truth) holds per-vertex only without epsilon-grouping.
EXACT_CONFIG = PowerConfig(seed=0, epsilon=None)


@pytest.fixture(scope="module")
def stream_rows(small_table):
    """A 24-record slice: non-trivial partial orders, fast selector runs."""
    records = small_table.records[:24]
    return (
        small_table.attributes,
        [record.values for record in records],
        [record.entity_id for record in records],
    )


def _content_key(rows, pair):
    a, b = pair
    return frozenset((rows[a], rows[b])) if rows[a] != rows[b] else frozenset((rows[a],))


def _content_truth(attributes, rows):
    """Monotone truth keyed by unordered record *content* pairs.

    Well-defined even with duplicate rows: a pair's similarity vector — and
    hence its monotone-truth label — depends only on the two value tuples.
    """
    from repro.data.table import Table

    table = Table(name="t", attributes=tuple(attributes))
    for row in rows:
        table.append(row)
    resolver = PowerResolver(EXACT_CONFIG)
    pairs = resolver.candidate_pairs(table)
    vectors = resolver.similarity_vectors(table, pairs)
    truth = _pair_truth_from_vertices(pairs, monotone_truth(vectors))
    return {_content_key(rows, pair): value for pair, value in truth.items()}


def _stream_partition(attributes, rows, chunk_sizes, content_truth):
    """Stream *rows* in the given chunking; return (partition, label map).

    The partition maps cluster members back to row *content* multisets so
    runs over different arrival orders are comparable.  Truth for the
    perfect crowd is looked up by content key — a KeyError here would mean
    the stream decided a pair outside the one-shot universe, which is
    itself a bug worth failing loudly on.
    """
    from repro.data.table import Table

    table = Table(name="t", attributes=tuple(attributes))
    for row in rows:
        table.append(row)
    resolver = PowerResolver(EXACT_CONFIG)
    pairs = resolver.candidate_pairs(table)
    truth = {
        pair: content_truth[_content_key(rows, pair)] for pair in pairs
    }
    stream = StreamingResolver(
        attributes,
        config=EXACT_CONFIG,
        name="t",
        crowd=PerfectCrowd(truth, assignments=EXACT_CONFIG.assignments),
    )
    start = 0
    for size in chunk_sizes:
        stream.add_batch(rows[start : start + size])
        start += size
    assert start == len(rows)
    partition = sorted(
        sorted(list(rows[member]) for member in cluster)
        for cluster in stream.clusters()
    )
    labels = {
        _content_key(rows, pair): value for pair, value in stream.labels.items()
    }
    return partition, labels


def _chunkings(n):
    """Strategy: a list of positive chunk sizes summing to *n*."""
    return (
        st.lists(st.integers(min_value=1, max_value=max(1, n // 2)), min_size=1)
        .map(lambda sizes: _clip(sizes, n))
        .filter(lambda sizes: sum(sizes) == n)
    )


def _clip(sizes, n):
    out, total = [], 0
    for size in sizes:
        if total + size >= n:
            out.append(n - total)
            return out
        out.append(size)
        total += size
    out.append(n - total)
    return out


class TestOrderAndChunkingInvariance:
    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_rechunking_matches_one_shot(self, stream_rows, data):
        """Any chunking decides the one-shot universe with identical labels."""
        attributes, rows, _ = stream_rows
        rows = [tuple(row) for row in rows]
        content_truth = _content_truth(attributes, rows)
        one_shot_partition, one_shot_labels = _stream_partition(
            attributes, rows, [len(rows)], content_truth
        )
        sizes = data.draw(_chunkings(len(rows)))
        partition, labels = _stream_partition(
            attributes, rows, sizes, content_truth
        )
        assert labels == one_shot_labels
        assert partition == one_shot_partition

    @settings(max_examples=8, deadline=None)
    @given(data=st.data())
    def test_arrival_order_is_irrelevant(self, stream_rows, data):
        """Permuting arrivals never changes the final entity partition."""
        attributes, rows, _ = stream_rows
        rows = [tuple(row) for row in rows]
        content_truth = _content_truth(attributes, rows)
        baseline, _ = _stream_partition(
            attributes, rows, _clip([5] * 5, len(rows)), content_truth
        )
        order = data.draw(st.permutations(range(len(rows))))
        shuffled = [rows[index] for index in order]
        sizes = data.draw(_chunkings(len(rows)))
        partition, _ = _stream_partition(
            attributes, shuffled, sizes, content_truth
        )
        assert partition == baseline


class TestKillResume:
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_restore_continue_equals_uninterrupted(self, stream_rows, data):
        """Kill after a random checkpoint; the resumed run is bit-identical."""
        attributes, rows, entity_ids = stream_rows
        batches = data.draw(st.integers(min_value=2, max_value=4))
        kill_after = data.draw(st.integers(min_value=1, max_value=batches - 1))
        tear_tail = data.draw(st.booleans())
        size = -(-len(rows) // batches)
        chunks = [
            (rows[start : start + size], entity_ids[start : start + size])
            for start in range(0, len(rows), size)
        ]

        def build(checkpoint_dir):
            return StreamingResolver(
                attributes,
                config=PowerConfig(seed=3),
                name="t",
                checkpoint_dir=checkpoint_dir,
            )

        with tempfile.TemporaryDirectory() as root:
            straight = build(Path(root) / "straight")
            for chunk_rows, chunk_ids in chunks:
                straight.add_batch(chunk_rows, entity_ids=chunk_ids)
                straight_record = straight.checkpoint()

            resumed_dir = Path(root) / "resumed"
            victim = build(resumed_dir)
            for chunk_rows, chunk_ids in chunks[:kill_after]:
                victim.add_batch(chunk_rows, entity_ids=chunk_ids)
                victim.checkpoint()
            # The kill: the process's files close with it, and its last
            # manifest line may be torn.
            victim.close()
            del victim
            if tear_tail:
                with open(resumed_dir / MANIFEST_NAME, "ab") as manifest:
                    manifest.write(b'{"type": "checkpoint", "trunc')

            resumed = StreamingResolver.restore(resumed_dir)
            assert resumed.batches == kill_after
            paid_before = resumed.asked_pairs
            for chunk_rows, chunk_ids in chunks[kill_after:]:
                report = resumed.add_batch(chunk_rows, entity_ids=chunk_ids)
                assert not (set(report["asked_pairs"]) & paid_before)
                resumed_record = resumed.checkpoint()

            assert resumed.labels == straight.labels
            assert resumed.transcripts == straight.transcripts

            def stripped(report):
                # Wall-clock timings are the only legitimately
                # nondeterministic report fields.
                return {
                    k: v
                    for k, v in report.items()
                    if k != "join_seconds"
                }

            assert [stripped(r) for r in resumed.reports] == [
                stripped(r) for r in straight.reports
            ]
            assert resumed.total_questions == straight.total_questions
            assert resumed.total_iterations == straight.total_iterations
            assert resumed.cost_cents == straight.cost_cents
            assert resumed.clusters() == straight.clusters()
            assert resumed_record["state_sha"] == straight_record["state_sha"]
            straight.close()
            resumed.close()


@pytest.mark.slow
class TestHeavySweeps:
    """The same laws at larger scale and with more examples."""

    @settings(max_examples=20, deadline=None)
    @given(data=st.data())
    def test_rechunking_matches_one_shot_full_table(self, small_table, data):
        attributes = small_table.attributes
        rows = [tuple(record.values) for record in small_table]
        content_truth = _content_truth(attributes, rows)
        one_shot = _stream_partition(
            attributes, rows, [len(rows)], content_truth
        )
        sizes = data.draw(_chunkings(len(rows)))
        assert (
            _stream_partition(attributes, rows, sizes, content_truth)
            == one_shot
        )

    @settings(max_examples=10, deadline=None)
    @given(data=st.data())
    def test_order_invariance_full_table(self, small_table, data):
        attributes = small_table.attributes
        rows = [tuple(record.values) for record in small_table]
        content_truth = _content_truth(attributes, rows)
        baseline, _ = _stream_partition(
            attributes, rows, [len(rows)], content_truth
        )
        order = data.draw(st.permutations(range(len(rows))))
        shuffled = [rows[index] for index in order]
        sizes = data.draw(_chunkings(len(rows)))
        partition, _ = _stream_partition(
            attributes, shuffled, sizes, content_truth
        )
        assert partition == baseline
