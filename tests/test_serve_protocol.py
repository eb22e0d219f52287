"""The serve wire protocol and admission control, pinned exactly.

The protocol is an interface the same way the snapshot manifest is: a
future build must either speak it or refuse it loudly.  These tests pin
the codec (compact JSON lines, id echo), the closed op vocabulary, the
unknown-version rejection in both directions, and — with a hand-cranked
clock — the token-bucket refill arithmetic and the queue-depth shedding
prices, to the digit.
"""

from __future__ import annotations

import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.exceptions import ConfigurationError, OverloadedError, ProtocolError
from repro.obs.clock import ManualClock
from repro.serve import (
    PROTOCOL_VERSION,
    AdmissionController,
    TokenBucket,
    decode_request,
    decode_response,
    encode,
    error_response,
    ok_response,
)
from repro.serve.admission import DEFAULT_BATCH_SECONDS, DRAIN_RETRY_AFTER
from repro.serve.protocol import OPS


def _request(**fields):
    return {"v": PROTOCOL_VERSION, "id": 1, **fields}


json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats(allow_nan=False) | st.text(max_size=4),
    lambda children: st.lists(children, max_size=3)
    | st.dictionaries(st.text(max_size=3), children, max_size=3),
    max_leaves=8,
)


class TestCodec:
    def test_encode_is_one_compact_json_line(self):
        raw = encode({"v": 1, "id": 7, "op": "healthz"})
        assert raw.endswith(b"\n")
        assert b" " not in raw  # compact separators
        assert json.loads(raw) == {"v": 1, "id": 7, "op": "healthz"}

    def test_request_roundtrip(self):
        message = _request(op="ingest", session="a", rows=[["x", "y"]])
        assert decode_request(encode(message)) == message

    def test_response_roundtrip_and_id_echo(self):
        response = ok_response(42, batch=3)
        decoded = decode_response(encode(response))
        assert decoded["id"] == 42
        assert decoded["ok"] is True
        assert decoded["batch"] == 3

    def test_error_response_carries_retry_after_only_when_given(self):
        plain = error_response(1, "bad_request", "nope")
        assert "retry_after" not in plain
        shed = error_response(1, "overloaded", "busy", retry_after=0.25)
        assert shed["retry_after"] == 0.25


class TestRequestValidation:
    def test_unknown_version_rejected(self):
        with pytest.raises(ProtocolError, match="not supported") as excinfo:
            decode_request(encode({"v": 99, "id": 1, "op": "healthz"}))
        assert excinfo.value.code == "unsupported_version"
        assert str(PROTOCOL_VERSION) in str(excinfo.value)

    def test_missing_version_rejected(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(encode({"id": 1, "op": "healthz"}))
        assert excinfo.value.code == "unsupported_version"

    def test_unknown_op_rejected_with_vocabulary(self):
        with pytest.raises(ProtocolError, match="create_session") as excinfo:
            decode_request(encode(_request(op="drop_tables")))
        assert excinfo.value.code == "unknown_op"
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(encode(_request(op=["ingest"])))  # unhashable
        assert excinfo.value.code == "unknown_op"

    def test_missing_required_field(self):
        with pytest.raises(ProtocolError, match="requires field") as excinfo:
            decode_request(encode(_request(op="ingest", session="a")))
        assert excinfo.value.code == "missing_field"

    def test_unknown_field_rejected(self):
        with pytest.raises(ProtocolError, match="sneaky") as excinfo:
            decode_request(
                encode(_request(op="checkpoint", session="a", sneaky=1))
            )
        assert excinfo.value.code == "unknown_field"

    @pytest.mark.parametrize("field", ["shard_threshold", "shard_workers", "index_mode"])
    def test_retired_routing_fields_are_unknown(self, field):
        """Stream routing and the token-index maintenance knob are gone: a
        client that still sends their fields gets the typed refusal, not a
        silently ignored field."""
        with pytest.raises(ProtocolError, match=field) as excinfo:
            decode_request(
                encode(
                    _request(
                        op="create_session", session="a", attributes=["x"], **{field: 1}
                    )
                )
            )
        assert excinfo.value.code == "unknown_field"

    def test_malformed_json(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"{not json\n")
        assert excinfo.value.code == "bad_json"

    def test_non_object_payload(self):
        with pytest.raises(ProtocolError) as excinfo:
            decode_request(b"[1, 2, 3]\n")
        assert excinfo.value.code == "bad_request"

    def test_empty_ingest_rows_rejected(self):
        with pytest.raises(ProtocolError, match="non-empty"):
            decode_request(encode(_request(op="ingest", session="a", rows=[])))

    def test_entity_id_length_mismatch_rejected(self):
        with pytest.raises(ProtocolError, match="entity ids"):
            decode_request(
                encode(
                    _request(
                        op="ingest",
                        session="a",
                        rows=[["x"]],
                        entity_ids=[1, 2],
                    )
                )
            )

    @pytest.mark.parametrize(
        "fields",
        [
            {"rows": [["x"]], "entity_ids": 5},
            {"rows": [["x"]], "entity_ids": "z"},
            {"rows": [["x"]], "entity_ids": {"a": 1}},
            {"rows": [5]},
            {"rows": ["ab"]},
            {"rows": [{"a": 1, "b": 2}]},
        ],
    )
    def test_ingest_rows_and_entity_ids_must_be_lists(self, fields):
        """A string or object is not iterated as characters or keys, and a
        number is not left for the handler to trip over."""
        with pytest.raises(ProtocolError, match="must be a list") as excinfo:
            decode_request(encode(_request(op="ingest", session="a", **fields)))
        assert excinfo.value.code == "bad_request"

    @settings(max_examples=100, deadline=None)
    @given(
        st.sampled_from(sorted(OPS)),
        st.dictionaries(
            st.sampled_from(["session", "rows", "entity_ids", "attributes", "config"]),
            json_values,
        ),
    )
    def test_any_field_values_decode_or_are_refused(self, op, fields):
        """Whatever JSON a field holds, decoding raises nothing but a
        :class:`ProtocolError`, so ``ServeApp.handle_line`` answers it."""
        try:
            decode_request(encode(_request(op=op, **fields)))
        except ProtocolError:
            pass

    def test_response_from_future_server_rejected(self):
        with pytest.raises(ProtocolError, match="version"):
            decode_response(encode({"v": 99, "id": 1, "ok": True}))


class TestTokenBucket:
    def test_burst_then_throttle(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=1.0, burst=3.0, clock=clock)
        assert [bucket.admit() for _ in range(4)] == [True, True, True, False]

    def test_refill_arithmetic_is_exact(self):
        clock = ManualClock()
        bucket = TokenBucket(rate=2.0, burst=1.0, clock=clock)
        assert bucket.admit()
        assert not bucket.admit()
        # 2 tokens/second: one full token is exactly 0.5s away.
        assert bucket.retry_after() == pytest.approx(0.5)
        clock.advance(0.25)
        assert not bucket.admit()
        assert bucket.retry_after() == pytest.approx(0.25)
        clock.advance(0.25)
        assert bucket.admit()

    def test_rate_zero_disables_limiting(self):
        bucket = TokenBucket(rate=0.0, clock=ManualClock())
        assert all(bucket.admit() for _ in range(100))
        assert bucket.retry_after() == 0.0

    def test_burst_below_one_rejected(self):
        with pytest.raises(ConfigurationError, match="burst"):
            TokenBucket(rate=1.0, burst=0.5)


class TestAdmissionController:
    def test_queue_depth_sheds_with_ewma_price(self):
        control = AdmissionController(queue_depth=2, clock=ManualClock())
        control.admit(queued=0)
        control.admit(queued=1)
        with pytest.raises(OverloadedError) as excinfo:
            control.admit(queued=2)
        # Price before any observation: (queued + 1) * default estimate.
        assert excinfo.value.retry_after == pytest.approx(
            3 * DEFAULT_BATCH_SECONDS
        )

    def test_price_tracks_observed_batch_seconds(self):
        control = AdmissionController(queue_depth=1, clock=ManualClock())
        for _ in range(200):  # EWMA converges to the observed service time
            control.observe_batch_seconds(2.0)
        with pytest.raises(OverloadedError) as excinfo:
            control.admit(queued=1)
        assert excinfo.value.retry_after == pytest.approx(4.0, rel=1e-3)

    def test_drain_beats_everything(self):
        control = AdmissionController(queue_depth=8, clock=ManualClock())
        with pytest.raises(OverloadedError) as excinfo:
            control.admit(queued=0, draining=True)
        assert excinfo.value.retry_after == DRAIN_RETRY_AFTER

    def test_rate_limit_path(self):
        clock = ManualClock()
        control = AdmissionController(
            rate=1.0, burst=1.0, queue_depth=8, clock=clock
        )
        control.admit(queued=0)
        with pytest.raises(OverloadedError) as excinfo:
            control.admit(queued=0)
        assert excinfo.value.retry_after == pytest.approx(1.0)
        clock.advance(1.0)
        control.admit(queued=0)

    def test_queue_depth_must_be_positive(self):
        with pytest.raises(ConfigurationError, match="queue_depth"):
            AdmissionController(queue_depth=0)

    def test_estimate_starts_at_the_static_default(self):
        # Nothing seeds a session's service-time estimate: it starts at the
        # static default until measured batches move it.
        assert AdmissionController().batch_seconds_estimate == DEFAULT_BATCH_SECONDS
        with pytest.raises(TypeError):
            AdmissionController(initial_batch_seconds=0.25)
