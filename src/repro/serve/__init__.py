"""repro.serve: the multi-tenant async resolution service.

The serving layer over PR 8's durable streams: many isolated tenant
sessions behind one asyncio line-protocol server, each a single-writer
actor over a :class:`~repro.stream.StreamingResolver`, with LRU
eviction/restore through the snapshot store, bounded-queue admission
control (explicit ``retry_after`` load shedding), graceful SIGTERM drain
that checkpoints every live session, and ``/healthz`` + ``/metrics``
wired into :mod:`repro.obs`.

Equivalence contract (the ``check_serve_equivalence`` battery step):
batches ingested through the server — under concurrent interleaved
tenants and across evict/restore cycles — reach a ``state_sha``
bit-identical to driving ``StreamingResolver`` directly.
"""

from .admission import AdmissionController
from .client import AsyncServeClient
from .protocol import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    decode_request,
    decode_response,
    encode,
    error_response,
    ok_response,
)
from .server import ResolutionServer, ServeApp, run_server
from .sessions import SessionRegistry, SessionSpec

__all__ = [
    "MAX_LINE_BYTES",
    "PROTOCOL_VERSION",
    "AdmissionController",
    "AsyncServeClient",
    "ResolutionServer",
    "ServeApp",
    "SessionRegistry",
    "SessionSpec",
    "decode_request",
    "decode_response",
    "encode",
    "error_response",
    "ok_response",
    "run_server",
]
