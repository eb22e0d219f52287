"""Unit tests for the snapshot store, the index spec, and the service.

The integration-level guarantees live in the stream-equivalence oracle and
the property suite; this file pins the local contracts each piece is built
from — content addressing detecting corruption, the manifest's
header/version discipline, the token-index spec derived from the join
(bit-identical to a TokenIndex, and checked on restore), and the
service's refusal modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd import PerfectCrowd
from repro.core.config import PowerConfig
from repro.exceptions import ConfigurationError, CrowdError, DataError
from repro.engine.journal import read_records
from repro.similarity.batch import PostingJoin, TokenIndex
from repro.similarity.tokenize import qgram_tokens, word_tokens
from repro.stream import (
    MANIFEST_NAME,
    SNAPSHOT_VERSION,
    SnapshotStore,
    StreamingResolver,
    encode_index,
    load_snapshot,
)
from repro.stream.snapshot import canonical_json


@pytest.fixture()
def store(tmp_path):
    store = SnapshotStore(tmp_path / "snap")
    yield store
    store.close()


class TestObjectStore:
    def test_bytes_roundtrip_and_idempotence(self, store):
        digest = store.put_bytes(b"payload")
        assert store.put_bytes(b"payload") == digest
        assert store.get_bytes(digest) == b"payload"
        assert len(list(store.objects_dir.rglob("*.blob"))) == 1

    def test_missing_object_raises(self, store):
        store.put_bytes(b"x")  # creates the directory structure
        with pytest.raises(DataError, match="missing"):
            store.get_bytes("0" * 64)

    def test_corrupt_object_raises(self, store):
        digest = store.put_bytes(b"honest bytes")
        path = store._object_path(digest)
        path.write_bytes(b"tampered")
        with pytest.raises(DataError, match="corrupt"):
            store.get_bytes(digest)

    def test_json_roundtrip_is_canonical(self, store):
        payload = {"b": [1, 2], "a": {"nested": True}}
        digest = store.put_json(payload)
        assert store.get_json(digest) == payload
        # Key order must not change the address.
        assert store.put_json({"a": {"nested": True}, "b": [1, 2]}) == digest

    def test_array_roundtrip_preserves_dtype(self, store):
        for array in (
            np.arange(7, dtype=np.uint64),
            np.zeros((3, 2), dtype=np.int64),
            np.array([], dtype=np.uint64),
        ):
            restored = store.get_array(store.put_array(array))
            assert restored.dtype == array.dtype
            assert restored.shape == array.shape
            assert (restored == array).all()


class TestManifest:
    def test_header_then_checkpoints(self, store):
        store.append_header({"name": "t"})
        store.append_checkpoint({"batch": 1})
        store.append_checkpoint({"batch": 2})
        header, checkpoints, truncated = store.read_manifest()
        assert header["name"] == "t"
        assert header["version"] == SNAPSHOT_VERSION
        assert [c["batch"] for c in checkpoints] == [1, 2]
        assert not truncated

    def test_torn_tail_is_repaired(self, store):
        store.append_header({"name": "t"})
        store.append_checkpoint({"batch": 1})
        store.close()
        with open(store.manifest_path, "ab") as handle:
            handle.write(b'{"type": "checkpoint", "ba')
        header, checkpoints, truncated = store.read_manifest(repair=True)
        assert truncated
        assert header is not None
        assert [c["batch"] for c in checkpoints] == [1]

    def test_missing_header_rejected(self, store):
        store.append_checkpoint({"batch": 1})
        with pytest.raises(DataError, match="header"):
            store.read_manifest()

    def test_load_snapshot_requires_manifest_and_checkpoint(self, store):
        with pytest.raises(DataError, match="nothing to restore"):
            load_snapshot(store)
        store.append_header({"name": "t"})
        with pytest.raises(DataError, match="no completed checkpoint"):
            load_snapshot(store)
        store.append_checkpoint({"batch": 1})
        header, checkpoint = load_snapshot(store)
        assert header["name"] == "t"
        assert checkpoint["batch"] == 1

    def test_canonical_json_is_bytewise_stable(self):
        assert canonical_json({"b": 1, "a": [True, None]}) == (
            b'{"a":[true,null],"b":1}'
        )


class TestIndexCodec:
    """The token-index spec a checkpoint derives from the stream's join."""

    TEXTS = ["alpha beta", "beta gamma", "alpha beta", "", "delta"]

    @staticmethod
    def _join(texts, tokenizer):
        join = PostingJoin(0.5)
        join.extend([tokenizer(text) for text in texts[:2]])
        join.extend([tokenizer(text) for text in texts[2:]])
        return join

    @staticmethod
    def _stream(directory, texts):
        service = StreamingResolver(("text",), checkpoint_dir=directory)
        service.add_batch([(text,) for text in texts], entity_ids=list(range(len(texts))))
        service.checkpoint()
        service.close()
        return service

    @staticmethod
    def _tamper(directory, **index):
        """Rewrite the last checkpoint's index spec in the manifest."""
        records, _ = read_records(directory / MANIFEST_NAME, repair=False)
        records[-1]["index"] = {**records[-1]["index"], **index}
        (directory / MANIFEST_NAME).write_text(
            "".join(canonical_json(record).decode() + "\n" for record in records)
        )

    @pytest.mark.parametrize(
        ("name", "tokenizer"), [("word", word_tokens), ("qgram", qgram_tokens)]
    )
    def test_roundtrip_is_bit_identical(self, store, name, tokenizer):
        """The blobs are the TokenIndex of the texts, and the digest-only
        spec a restore compares equals the written one."""
        join = self._join(self.TEXTS, tokenizer)
        spec = encode_index(join, self.TEXTS, name, store)
        index = TokenIndex(self.TEXTS, tokenizer)
        for field in ("bits", "sizes", "row_of_text"):
            stored = store.get_array(spec[field])
            assert stored.dtype == getattr(index, field).dtype
            assert np.array_equal(stored, getattr(index, field))
        meta = store.get_json(spec["meta"])
        assert meta["texts"] == ["alpha beta", "beta gamma", "", "delta"]
        assert meta["tokens"] == list(
            dict.fromkeys(t for text in meta["texts"] for t in sorted(tokenizer(text)))
        )
        assert spec["tokenizer"] == name
        assert encode_index(join, self.TEXTS, name) == spec

    def test_restored_index_extends_identically(self, tmp_path):
        more = [("beta epsilon",), ("zeta",), ("alpha beta",)]
        self._stream(tmp_path / "a", self.TEXTS)
        resumed = StreamingResolver.restore(tmp_path / "a")
        resumed.add_batch(more, entity_ids=[10, 11, 0])
        straight = self._stream(tmp_path / "b", self.TEXTS)
        straight.add_batch(more, entity_ids=[10, 11, 0])
        assert resumed.reports[-1]["new_pairs"] == straight.reports[-1]["new_pairs"] > 0
        assert resumed.checkpoint() == straight.checkpoint()
        resumed.close()
        straight.close()

    def test_unknown_tokenizer_rejected(self, tmp_path):
        self._stream(tmp_path / "s", self.TEXTS)
        self._tamper(tmp_path / "s", tokenizer="soundex")
        with pytest.raises(DataError, match="tokenizer"):
            StreamingResolver.restore(tmp_path / "s")

    def test_inconsistent_snapshot_rejected(self, tmp_path):
        """Restore refuses a snapshot whose stored index spec disagrees
        with the one its rows derive."""
        service = self._stream(tmp_path / "s", self.TEXTS)
        store = SnapshotStore(tmp_path / "s")
        truncated = store.put_array(
            TokenIndex.from_join(service._join, self.TEXTS).bits[:1]
        )
        self._tamper(tmp_path / "s", bits=truncated)
        with pytest.raises(DataError, match="inconsistent.*bits"):
            StreamingResolver.restore(tmp_path / "s")


class TestServiceGuards:
    ATTRIBUTES = ("name", "city")
    ROWS = [("alpha diner", "rome"), ("alpha diner", "rome"), ("beta bar", "oslo")]
    ENTITIES = [1, 1, 2]

    def test_checkpoint_requires_directory(self):
        service = StreamingResolver(self.ATTRIBUTES)
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            service.checkpoint()

    @pytest.mark.parametrize(
        "knobs, message",
        [
            ({"pairs_per_hit": 0}, "pairs_per_hit"),
            ({"cents_per_hit": -1}, "cents_per_hit"),
            ({"worker_band": "95"}, "unknown accuracy band"),
            ({"worker_band": (0.9, 0.8)}, "accuracy range"),
            ({"worker_band": 95}, "accuracy range"),
        ],
        ids=["no-pairs-per-hit", "negative-price", "unknown-band", "inverted-band", "number-band"],
    )
    def test_unbillable_pricing_or_band_refused_up_front(self, tmp_path, knobs, message):
        """Pricing or a band that would fail every later batch is refused
        by the constructor, before the service touches its directory."""
        directory = tmp_path / "ck"
        with pytest.raises(ConfigurationError, match=message):
            StreamingResolver(self.ATTRIBUTES, checkpoint_dir=directory, **knobs)
        assert not directory.exists()

    def test_fresh_service_refuses_existing_manifest(self, tmp_path):
        directory = tmp_path / "ck"
        service = StreamingResolver(self.ATTRIBUTES, checkpoint_dir=directory)
        service.add_batch(self.ROWS, entity_ids=self.ENTITIES)
        service.checkpoint()
        with pytest.raises(DataError, match="resume"):
            StreamingResolver(self.ATTRIBUTES, checkpoint_dir=directory)
        restored = StreamingResolver.restore(directory)
        assert restored.batches == 1
        assert restored.labels == service.labels
        service.close()

    def test_lone_surrogate_attribute_name_refused(self, tmp_path):
        # UTF-8 cannot encode the name, so no checkpoint could ever hold it.
        directory = tmp_path / "ck"
        with pytest.raises(DataError, match="surrogate"):
            StreamingResolver(("na\ud800me", "city"), checkpoint_dir=directory)
        assert not SnapshotStore(directory).exists()

    def test_config_codec_keeps_the_retired_join_field(self):
        from repro.stream.service import _decode_config, _encode_config

        # The snapshot schema still records the retired candidate-join knob,
        # so snapshot bytes stay stable; snapshots written while it was a
        # live knob (any value) still restore.
        config = PowerConfig(seed=4, join_tokens="qgram")
        payload = _encode_config(config)
        assert payload["join_method"] == "auto"
        assert _decode_config(payload) == config
        assert _decode_config({**payload, "join_method": "prefix"}) == config

    def test_snapshot_with_non_default_retired_knobs_restores(
        self, tmp_path, monkeypatch
    ):
        """A snapshot that recorded other values for the retired
        substrate, index and planner knobs restores, and its next batch
        lands on the state of a stream that ran on defaults throughout."""
        from repro.stream import service

        retired = {
            "use_batch_similarity": False,
            "reachability_index": 1048576,
            "plan": "auto",
        }
        encode = service._encode_config
        monkeypatch.setattr(
            service, "_encode_config", lambda config: {**encode(config), **retired}
        )
        old = StreamingResolver(self.ATTRIBUTES, checkpoint_dir=tmp_path / "old")
        old.add_batch(self.ROWS[:2], entity_ids=self.ENTITIES[:2])
        record = old.checkpoint()
        monkeypatch.undo()
        state = SnapshotStore(tmp_path / "old").get_json(record["objects"]["state"])
        assert {key: state["config"][key] for key in retired} == retired

        resumed = StreamingResolver.restore(tmp_path / "old")
        assert resumed.config == PowerConfig()
        resumed.add_batch(self.ROWS[2:], entity_ids=self.ENTITIES[2:])
        plain = StreamingResolver(self.ATTRIBUTES, checkpoint_dir=tmp_path / "new")
        plain.add_batch(self.ROWS[:2], entity_ids=self.ENTITIES[:2])
        plain.add_batch(self.ROWS[2:], entity_ids=self.ENTITIES[2:])
        assert resumed.checkpoint()["state_sha"] == plain.checkpoint()["state_sha"]
        for stream in (old, resumed, plain):
            stream.close()

    def test_snapshot_with_retired_shard_fields_restores(self, tmp_path, monkeypatch):
        """A snapshot written while stream routing and the shard knobs were
        live, with non-default values, restores and continues to the state
        of a stream that never set them."""
        from repro.stream import service

        routing = {"shard_threshold": 500, "shard_workers": 2}
        shard_knobs = {"shards": 4, "shard_max_pairs": 100, "shard_retries": 0}
        encode = service._encode_config
        monkeypatch.setattr(service, "_RETIRED_STATE_FIELDS", routing)
        monkeypatch.setattr(
            service, "_encode_config", lambda config: {**encode(config), **shard_knobs}
        )
        old = StreamingResolver(self.ATTRIBUTES, checkpoint_dir=tmp_path / "old")
        old.add_batch(self.ROWS[:2], entity_ids=self.ENTITIES[:2])
        record = old.checkpoint()
        monkeypatch.undo()
        state = SnapshotStore(tmp_path / "old").get_json(record["objects"]["state"])
        assert state["version"] == SNAPSHOT_VERSION == 1
        assert {key: state[key] for key in routing} == routing
        assert {key: state["config"][key] for key in shard_knobs} == shard_knobs

        resumed = StreamingResolver.restore(tmp_path / "old")
        assert resumed.config == PowerConfig()
        resumed.add_batch(self.ROWS[2:], entity_ids=self.ENTITIES[2:])
        plain = StreamingResolver(self.ATTRIBUTES, checkpoint_dir=tmp_path / "new")
        plain.add_batch(self.ROWS[:2], entity_ids=self.ENTITIES[:2])
        plain.add_batch(self.ROWS[2:], entity_ids=self.ENTITIES[2:])
        assert resumed.checkpoint()["state_sha"] == plain.checkpoint()["state_sha"]
        for stream in (old, resumed, plain):
            stream.close()

    def test_shared_crowd_sessions_pool_billing(self):
        truth = {(0, 1): True, (0, 2): False, (1, 2): False}
        crowd = PerfectCrowd(truth, assignments=3)
        service = StreamingResolver(
            self.ATTRIBUTES,
            config=PowerConfig(seed=0, epsilon=None),
            crowd=crowd,
            pairs_per_hit=2,
            cents_per_hit=10,
        )
        service.add_batch(self.ROWS[:2], entity_ids=self.ENTITIES[:2])
        service.add_batch(self.ROWS[2:], entity_ids=self.ENTITIES[2:])
        assert service.assignments == 3
        asked = len(service.transcripts)
        assert service.hits == -(-asked // 2) * 3
        assert service.cost_cents == service.hits * 10
        assert "pooled cost" in service.summary()

    def test_rng_tokens_are_deterministic_and_checkpointed(self, tmp_path):
        def run(directory):
            service = StreamingResolver(
                self.ATTRIBUTES, checkpoint_dir=directory
            )
            service.add_batch(self.ROWS, entity_ids=self.ENTITIES)
            service.checkpoint()
            service.close()
            return service

        first = run(tmp_path / "a")
        second = run(tmp_path / "b")
        assert [r["batch_token"] for r in first.reports] == [
            r["batch_token"] for r in second.reports
        ]
        resumed = StreamingResolver.restore(tmp_path / "a")
        resumed.add_batch([("gamma pub", "kiev")], entity_ids=[3])
        first.add_batch([("gamma pub", "kiev")], entity_ids=[3])
        assert (
            resumed.reports[-1]["batch_token"]
            == first.reports[-1]["batch_token"]
        )


class TestRefusedBatch:
    """A refused batch leaves every snapshot byte as it was."""

    ATTRIBUTES = ("name", "city")
    GOOD = [("alpha diner", "rome"), ("beta bar", "oslo")]
    NEXT = [("alpha diner", "rome"), ("gamma pub", "kiev")]

    def _stream(self, directory):
        service = StreamingResolver(
            self.ATTRIBUTES, config=PowerConfig(seed=0), checkpoint_dir=directory
        )
        service.add_batch(self.GOOD, entity_ids=[1, 2])
        return service

    @pytest.mark.parametrize(
        "rows, entity_ids, error",
        [
            ([("alpha diner", "rome"), ("short",)], [1, 3], DataError),
            ([("alpha diner", "rome")], None, DataError),
            ([("alpha diner", "rome"), ("\ud800", "kiev")], [1, 3], DataError),
            ([("alpha diner", "rome"), ("gamma pub", "kiev")], [1, "a\ud800"], DataError),
        ],
        ids=["short-row", "no-ground-truth", "lone-surrogate", "lone-surrogate-id"],
    )
    def test_state_sha_survives_a_refused_batch(
        self, tmp_path, rows, entity_ids, error
    ):
        service = self._stream(tmp_path / "stream")
        before = service.checkpoint()["state_sha"]
        with pytest.raises(error):
            service.add_batch(rows, entity_ids=entity_ids)
        assert service.checkpoint()["state_sha"] == before
        service.add_batch(self.NEXT, entity_ids=[1, 3])
        clean = self._stream(tmp_path / "clean")
        clean.add_batch(self.NEXT, entity_ids=[1, 3])
        assert service.checkpoint()["state_sha"] == clean.checkpoint()["state_sha"]
        service.close()
        clean.close()

    def test_shared_crowd_missing_a_batch_pair_refuses_before_commit(self, tmp_path):
        """A shared crowd that cannot answer every candidate pair of a batch
        refuses it before anything is asked: no row, join posting, batch or
        paid answer stays behind, and the next batch lands as on a clean
        stream."""

        def stream(directory):
            service = StreamingResolver(
                self.ATTRIBUTES,
                config=PowerConfig(seed=0),
                checkpoint_dir=directory,
                crowd=PerfectCrowd({(0, 2): True}),
            )
            service.add_batch(self.GOOD, entity_ids=[1, 2])
            return service

        def shape(service):
            return len(service.table), len(service._join), service.batches

        service = stream(tmp_path / "stream")
        before = service.checkpoint()["state_sha"]
        # Three copies of record 0: six pairs, of which the crowd knows one.
        with pytest.raises(CrowdError, match="universe"):
            service.add_batch([self.GOOD[0]] * 3, entity_ids=[1, 1, 1])
        assert service.checkpoint()["state_sha"] == before
        assert shape(service) == (2, 2, 1)
        service.add_batch(self.NEXT, entity_ids=[1, 3])
        clean = stream(tmp_path / "clean")
        clean.add_batch(self.NEXT, entity_ids=[1, 3])
        assert shape(service) == shape(clean) == (4, 4, 2)
        assert service.labels == clean.labels == {(0, 2): True}
        assert service.checkpoint()["state_sha"] == clean.checkpoint()["state_sha"]
        service.close()
        clean.close()

    def test_crowd_larger_than_its_pool_refuses_before_commit(self):
        """An auto-built crowd has 50 workers: asking 100 per question is
        refused while the crowd is built, before the rows commit."""
        service = StreamingResolver(self.ATTRIBUTES, config=PowerConfig(assignments=100))
        with pytest.raises(ConfigurationError, match="pool of 50"):
            service.add_batch(self.GOOD + self.NEXT, entity_ids=[1, 2, 1, 3])
        assert (len(service.table), len(service._join), service.batches) == (0, 0, 0)


class TestLabelCodec:
    @settings(max_examples=60, deadline=None)
    @given(
        labels=st.dictionaries(
            st.tuples(
                st.integers(min_value=0, max_value=1 << 40),
                st.integers(min_value=0, max_value=1 << 40),
            ),
            st.booleans(),
            max_size=40,
        )
    )
    def test_equals_the_sorted_items_encoding(self, labels):
        from repro.stream.service import _encode_labels

        expected = [[a, b, value] for (a, b), value in sorted(labels.items())]
        encoded = _encode_labels(labels)
        assert encoded == expected
        assert canonical_json(encoded) == canonical_json(expected)


#: The final ``state_sha`` of the stream below, recorded while candidates
#: were still swept one record at a time and labels sorted as Python
#: tuples: any drift in snapshot bytes shows here without the end-to-end
#: benchmark's serve-churn pin.
PINNED_STATE_SHA = "443f7eaff2535ac87d0a180a6867a17d8c6d08c183ce31af5046355f182d66b2"


def test_small_stream_state_sha_is_pinned(small_table, tmp_path):
    service = StreamingResolver(
        small_table.attributes,
        config=PowerConfig(seed=0),
        name="pinned",
        checkpoint_dir=tmp_path / "pinned",
    )
    records = list(small_table)
    for start in range(0, len(records), 20):
        chunk = records[start : start + 20]
        service.add_batch(
            [record.values for record in chunk],
            entity_ids=[record.entity_id for record in chunk],
        )
    assert service.checkpoint()["state_sha"] == PINNED_STATE_SHA
    service.close()


def _pinned_stream(table, directory, config, rows=None, entity_ids=None):
    """Stream *rows* (default: *table*'s records) in batches of 7 and return
    the final checkpoint's ``state_sha``."""
    if rows is None:
        rows = [record.values for record in table]
        entity_ids = [record.entity_id for record in table]
    service = StreamingResolver(
        table.attributes, config=config, name="pinned", checkpoint_dir=directory
    )
    for start in range(0, len(rows), 7):
        service.add_batch(
            rows[start : start + 7], entity_ids=entity_ids[start : start + 7]
        )
    state_sha = service.checkpoint()["state_sha"]
    service.close()
    return state_sha


#: The final ``state_sha`` of the small table streamed with q-gram join
#: tokens, recorded while a dense token-index sweep found each batch's
#: candidates.
PINNED_QGRAM_STATE_SHA = "9674108f18fbd55383a8848a668167e2fce2b5d8b203994f95064115ea5f90fa"

#: The same for a stream holding verbatim duplicate records and records
#: without word tokens, both within and across batches.
PINNED_DUPLICATES_STATE_SHA = "021f9947bc73478a8bbc1da747df87a137d88d5f6338b4933f9ed22d7f7efcd1"


def _duplicates_and_empties(table):
    """The first 30 records of *table*, with a verbatim copy of an earlier
    record after every fifth and a token-free record after every seventh."""
    records = list(table)[:30]
    rows, entity_ids = [], []
    for index, record in enumerate(records):
        rows.append(record.values)
        entity_ids.append(record.entity_id)
        if index % 5 == 2:
            rows.append(records[index // 2].values)
            entity_ids.append(records[index // 2].entity_id)
        if index % 7 == 3:
            rows.append(("", "!!", "..."))
            entity_ids.append(1000 + index)
    return rows, entity_ids


def test_qgram_stream_state_sha_is_pinned(small_table, tmp_path):
    config = PowerConfig(seed=0, join_tokens="qgram")
    assert _pinned_stream(small_table, tmp_path / "q", config) == PINNED_QGRAM_STATE_SHA


def test_duplicate_and_empty_record_stream_state_sha_is_pinned(small_table, tmp_path):
    rows, entity_ids = _duplicates_and_empties(small_table)
    state_sha = _pinned_stream(
        small_table, tmp_path / "d", PowerConfig(seed=0), rows, entity_ids
    )
    assert state_sha == PINNED_DUPLICATES_STATE_SHA
