"""Unit tests for the snapshot store, the index codec, and the service.

The integration-level guarantees live in the stream-equivalence oracle and
the property suite; this file pins the local contracts each piece is built
from — content addressing detecting corruption, the manifest's
header/version discipline, the TokenIndex codec's bit-identity, and the
service's refusal modes.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.crowd import PerfectCrowd
from repro.core.config import PowerConfig
from repro.exceptions import ConfigurationError, DataError
from repro.similarity.batch import TokenIndex
from repro.similarity.tokenize import qgram_tokens, word_tokens
from repro.stream import (
    SNAPSHOT_VERSION,
    SnapshotStore,
    StreamingResolver,
    decode_index,
    encode_index,
    load_snapshot,
)
from repro.stream.snapshot import canonical_json


@pytest.fixture()
def store(tmp_path):
    return SnapshotStore(tmp_path / "snap")


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
    TEXTS = ["alpha beta", "beta gamma", "alpha beta", "", "delta"]

    @pytest.mark.parametrize(
        ("name", "tokenizer"), [("word", word_tokens), ("qgram", qgram_tokens)]
    )
    def test_roundtrip_is_bit_identical(self, store, name, tokenizer):
        index = TokenIndex(self.TEXTS, tokenizer)
        restored = decode_index(store, encode_index(store, index, name))
        assert (restored.bits == index.bits).all()
        assert (restored.sizes == index.sizes).all()
        assert (restored.row_of_text == index.row_of_text).all()
        assert restored.vocab_size == index.vocab_size
        assert restored._seen == index._seen
        assert restored._vocab == index._vocab

    def test_restored_index_extends_identically(self, store):
        more = ["beta epsilon", "zeta"]
        index = TokenIndex(self.TEXTS, word_tokens)
        restored = decode_index(store, encode_index(store, index, "word"))
        index.extend(more)
        restored.extend(more)
        assert (restored.bits == index.bits).all()
        assert (restored.sizes == index.sizes).all()
        assert restored._vocab == index._vocab

    def test_bigram_fast_path_is_not_checkpointable(self, store):
        index = TokenIndex.for_bigrams(["ab", "cd"])
        with pytest.raises(DataError, match="for_bigrams"):
            encode_index(store, index, "qgram")

    def test_unknown_tokenizer_rejected(self, store):
        index = TokenIndex(self.TEXTS, word_tokens)
        with pytest.raises(DataError, match="tokenizer"):
            encode_index(store, index, "soundex")
        spec = encode_index(store, index, "word")
        with pytest.raises(DataError, match="tokenizer"):
            decode_index(store, {**spec, "tokenizer": "soundex"})

    def test_inconsistent_snapshot_rejected(self, store):
        index = TokenIndex(self.TEXTS, word_tokens)
        spec = encode_index(store, index, "word")
        truncated = store.put_array(index.bits[:1])
        with pytest.raises(DataError, match="inconsistent"):
            decode_index(store, {**spec, "bits": truncated})


class TestServiceGuards:
    ATTRIBUTES = ("name", "city")
    ROWS = [("alpha diner", "rome"), ("alpha diner", "rome"), ("beta bar", "oslo")]
    ENTITIES = [1, 1, 2]

    def test_checkpoint_requires_directory(self):
        service = StreamingResolver(self.ATTRIBUTES)
        with pytest.raises(ConfigurationError, match="checkpoint_dir"):
            service.checkpoint()

    def test_invalid_shard_threshold_rejected(self):
        with pytest.raises(ConfigurationError, match="shard_threshold"):
            StreamingResolver(self.ATTRIBUTES, shard_threshold=0)

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

    def test_shard_routing_is_bit_identical(self, small_table):
        rows = [record.values for record in small_table]
        entities = [record.entity_id for record in small_table]
        plain = StreamingResolver(small_table.attributes, name="plain")
        routed = StreamingResolver(
            small_table.attributes, name="routed", shard_threshold=1
        )
        for start in (0, 30):
            chunk = slice(start, start + 30)
            plain.add_batch(rows[chunk], entity_ids=entities[chunk])
            routed.add_batch(rows[chunk], entity_ids=entities[chunk])
        assert routed.labels == plain.labels
        assert routed.transcripts == plain.transcripts
        assert routed.clusters() == plain.clusters()
        assert routed.cost_cents == plain.cost_cents

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
            ([("alpha diner", "rome")], None, ConfigurationError),
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
