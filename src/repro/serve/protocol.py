"""The serve wire protocol: versioned JSON lines, both directions.

One request per line, one response per line, UTF-8 JSON with a trailing
newline.  Every message carries the schema version under ``"v"``; a
request speaking a version this build does not is rejected with a clear
error — the same discipline the snapshot manifest enforces
(:mod:`repro.stream.snapshot` refuses unknown ``version`` records instead
of misreading a future layout).  Responses echo the request's ``"id"``
verbatim, which is what lets one connection pipeline many in-flight
requests and still match answers to questions.

Request shape::

    {"v": 1, "id": 7, "op": "ingest", "session": "tenant-a",
     "rows": [["moe's", "nyc", "bbq"], ...], "entity_ids": [3, ...]}

Response shape::

    {"v": 1, "id": 7, "ok": true, ...op-specific fields}
    {"v": 1, "id": 7, "ok": false, "error": "overloaded",
     "message": "...", "retry_after": 0.25}

The op vocabulary is closed (:data:`OPS`); validation happens here, at the
edge, so the session actors behind the protocol only ever see well-formed
requests.  ``retry_after`` is present exactly when ``error`` is
``"overloaded"`` — the admission controller's explicit backpressure signal,
as opposed to silently queueing without bound.
"""

from __future__ import annotations

import json
from typing import Any

from ..exceptions import ProtocolError

#: Bump when the request/response schema changes incompatibly.
PROTOCOL_VERSION = 1

#: Upper bound on one protocol line (requests carry whole record batches).
MAX_LINE_BYTES = 8 * 1024 * 1024

#: The closed op vocabulary and each op's required fields.
OPS: dict[str, tuple[str, ...]] = {
    "create_session": ("session", "attributes"),
    "ingest": ("session", "rows"),
    "query_clusters": ("session",),
    "checkpoint": ("session",),
    "close": ("session",),
    "healthz": (),
    "metrics": (),
}

#: Optional per-op fields (anything else is rejected as unknown).
OPTIONAL_FIELDS: dict[str, tuple[str, ...]] = {
    "create_session": ("config", "worker_band", "pairs_per_hit", "cents_per_hit"),
    "ingest": ("entity_ids",),
}

_COMMON_FIELDS = ("v", "id", "op")


def encode(message: dict[str, Any]) -> bytes:
    """One protocol line: compact JSON plus the terminating newline.

    A lone surrogate in a string (which UTF-8 cannot encode) goes out as
    its JSON ``\\uXXXX`` escape, so every message encodes.
    """
    return (
        json.dumps(message, separators=(",", ":"), ensure_ascii=False) + "\n"
    ).encode("utf-8", "backslashreplace")


def decode_request(line: bytes | str) -> dict[str, Any]:
    """Parse and validate one request line.

    Raises :class:`~repro.exceptions.ProtocolError` with a machine-readable
    ``code`` on malformed JSON, a non-object payload, an unsupported
    protocol version, an unknown op, missing/unknown fields, a session
    name that is not a string (``bad_session``), or ingest rows and
    entity ids that are not lists (``bad_request``); it raises nothing
    else.
    """
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        request = json.loads(line)
    except (json.JSONDecodeError, RecursionError) as error:
        raise ProtocolError(
            "bad_json", f"request is not valid JSON: {error}"
        ) from None
    if not isinstance(request, dict):
        raise ProtocolError(
            "bad_request", f"request must be a JSON object, got {type(request).__name__}"
        )
    version = request.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_version",
            f"protocol version {version!r} is not supported "
            f"(this build speaks version {PROTOCOL_VERSION}); "
            "upgrade the client or the server",
        )
    op = request.get("op")
    if not isinstance(op, str) or op not in OPS:
        raise ProtocolError(
            "unknown_op",
            f"unknown op {op!r} (supported: {', '.join(sorted(OPS))})",
        )
    required = OPS[op]
    for field in required:
        if field not in request:
            raise ProtocolError(
                "missing_field", f"op {op!r} requires field {field!r}"
            )
    allowed = set(_COMMON_FIELDS) | set(required) | set(OPTIONAL_FIELDS.get(op, ()))
    unknown = set(request) - allowed
    if unknown:
        raise ProtocolError(
            "unknown_field",
            f"op {op!r} does not accept field(s) {sorted(unknown)}",
        )
    if "session" in required and not isinstance(request["session"], str):
        raise ProtocolError(
            "bad_session", f"session name must be a string, got {request['session']!r:.80}"
        )
    if op == "ingest":
        rows = request["rows"]
        if not isinstance(rows, list) or not rows:
            raise ProtocolError(
                "bad_request", "ingest rows must be a non-empty list"
            )
        for offset, row in enumerate(rows):
            if not isinstance(row, list):
                raise ProtocolError(
                    "bad_request", f"ingest row {offset} must be a list, got {row!r:.80}"
                )
        entity_ids = request.get("entity_ids")
        if entity_ids is not None and not isinstance(entity_ids, list):
            raise ProtocolError(
                "bad_request", f"ingest entity_ids must be a list, got {entity_ids!r:.80}"
            )
        if entity_ids is not None and len(entity_ids) != len(rows):
            raise ProtocolError(
                "bad_request",
                f"{len(rows)} rows but {len(entity_ids)} entity ids",
            )
    if op == "create_session" and not isinstance(request["attributes"], list):
        raise ProtocolError(
            "bad_request", "create_session attributes must be a list"
        )
    return request


def ok_response(request_id: Any, **fields: Any) -> dict[str, Any]:
    """A success response echoing the request id."""
    return {"v": PROTOCOL_VERSION, "id": request_id, "ok": True, **fields}


def error_response(
    request_id: Any,
    code: str,
    message: str,
    retry_after: float | None = None,
) -> dict[str, Any]:
    """A failure response; ``retry_after`` marks a load-shed, not a bug."""
    response: dict[str, Any] = {
        "v": PROTOCOL_VERSION,
        "id": request_id,
        "ok": False,
        "error": code,
        "message": message,
    }
    if retry_after is not None:
        response["retry_after"] = round(float(retry_after), 6)
    return response


def decode_response(line: bytes | str) -> dict[str, Any]:
    """Parse one response line; clients get the version discipline too."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    try:
        response = json.loads(line)
    except json.JSONDecodeError as error:
        raise ProtocolError(
            "bad_json", f"response is not valid JSON: {error}"
        ) from None
    if not isinstance(response, dict) or "ok" not in response:
        raise ProtocolError("bad_response", f"malformed response: {line[:120]}")
    version = response.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            "unsupported_version",
            f"server speaks protocol version {version!r}, this client "
            f"speaks {PROTOCOL_VERSION}",
        )
    return response


__all__ = [
    "MAX_LINE_BYTES",
    "OPS",
    "OPTIONAL_FIELDS",
    "PROTOCOL_VERSION",
    "decode_request",
    "decode_response",
    "encode",
    "error_response",
    "ok_response",
]
