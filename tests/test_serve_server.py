"""End-to-end tests for the resolution server, over real sockets.

Everything here runs in-process (server and client share the event loop)
but through genuine TCP connections, so framing, pipelining, disconnects,
and the HTTP probe endpoints are all exercised for real.  The load-
bearing assertions are the equivalence ones: session state reached
through the server — including across LRU evict/restore cycles and a
client that vanishes mid-ingest — must be bit-identical (``state_sha``)
to driving :class:`StreamingResolver` directly.
"""

from __future__ import annotations

import asyncio
import contextlib
import gc
import json
import logging
import threading
import warnings

import pytest

from repro.core import PowerConfig
from repro.exceptions import OverloadedError, ServeError
from repro.serve import (
    MAX_LINE_BYTES,
    PROTOCOL_VERSION,
    AsyncServeClient,
    ResolutionServer,
    ServeApp,
    SessionRegistry,
    SessionSpec,
    encode,
)
from repro.serve.admission import DRAIN_RETRY_AFTER
from repro.stream import StreamingResolver
from repro.stream.snapshot import MANIFEST_NAME

ATTRS = ("name", "city", "cuisine")


def _chunks(table, batches):
    records = list(table)
    size = max(1, -(-len(records) // batches))
    return [records[start : start + size] for start in range(0, len(records), size)]


def _rows(chunk):
    return [list(record.values) for record in chunk]


def _ids(chunk):
    return [record.entity_id for record in chunk]


def _direct_sha(table, tmp_path, name, chunks, seed=0):
    resolver = StreamingResolver(
        table.attributes,
        config=PowerConfig(seed=seed),
        name=name,
        checkpoint_dir=tmp_path / f"direct-{name}",
    )
    for chunk in chunks:
        resolver.add_batch(_rows(chunk), entity_ids=_ids(chunk))
    sha = resolver.checkpoint()["state_sha"]
    resolver.close()
    return sha


def run(coro):
    return asyncio.run(coro)


@contextlib.asynccontextmanager
async def serving(app):
    """Serve *app* on a real socket, then drain it as a shutdown would,
    which closes every session's snapshot journal."""
    async with ResolutionServer(app) as server:
        try:
            yield server
        finally:
            await app.drain()


class TestEndToEnd:
    def test_session_through_server_matches_direct_stream(
        self, small_table, tmp_path
    ):
        chunks = _chunks(small_table, 3)

        async def scenario():
            app = ServeApp(tmp_path / "serve", max_sessions=4)
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    created = await client.create_session(
                        "t1", list(small_table.attributes)
                    )
                    assert created["created"] is True
                    for number, chunk in enumerate(chunks, start=1):
                        report = await client.ingest(
                            "t1", _rows(chunk), _ids(chunk)
                        )
                        assert report["batch"] == number
                    clusters = await client.query_clusters("t1")
                    assert clusters["records"] == len(small_table)
                    record = await client.checkpoint("t1")
                    return record["state_sha"], clusters["clusters"]

        sha, clusters = run(scenario())
        assert sha == _direct_sha(small_table, tmp_path, "t1", chunks)
        assert clusters  # non-trivial resolution happened

    def test_eviction_cycles_preserve_state_sha(self, small_table, tmp_path):
        """max_sessions=1 with alternating tenants forces evict/restore on
        every touch; both final hashes must still match direct runs."""
        chunks_a = _chunks(small_table, 2)
        chunks_b = _chunks(small_table, 3)

        async def scenario():
            app = ServeApp(tmp_path / "serve", max_sessions=1)
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    await client.create_session("a", list(ATTRS))
                    await client.create_session("b", list(ATTRS))
                    for index in range(max(len(chunks_a), len(chunks_b))):
                        if index < len(chunks_a):
                            await client.ingest(
                                "a", _rows(chunks_a[index]), _ids(chunks_a[index])
                            )
                        if index < len(chunks_b):
                            await client.ingest(
                                "b", _rows(chunks_b[index]), _ids(chunks_b[index])
                            )
                    sha_a = (await client.close_session("a"))["state_sha"]
                    sha_b = (await client.close_session("b"))["state_sha"]
            assert app.registry.evictions >= 1
            assert app.registry.restores >= 1
            assert app.registry.resident <= 1
            return sha_a, sha_b

        sha_a, sha_b = run(scenario())
        assert sha_a == _direct_sha(small_table, tmp_path, "a", chunks_a)
        assert sha_b == _direct_sha(small_table, tmp_path, "b", chunks_b)

    def test_resident_sessions_stay_bounded(self, small_table, tmp_path):
        chunk = _chunks(small_table, 6)[0]

        async def scenario():
            app = ServeApp(tmp_path / "serve", max_sessions=2)
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    for index in range(5):
                        name = f"s{index}"
                        await client.create_session(name, list(ATTRS))
                        await client.ingest(name, _rows(chunk), _ids(chunk))
                        assert app.registry.resident <= 2
            assert app.registry.evictions >= 3
            assert len(app.registry.known_sessions()) == 5

        run(scenario())

    def test_close_returns_final_state_even_when_evicted(
        self, small_table, tmp_path
    ):
        chunk = _chunks(small_table, 4)[0]

        async def scenario():
            app = ServeApp(tmp_path / "serve", max_sessions=1)
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    await client.create_session("cold", list(ATTRS))
                    await client.ingest("cold", _rows(chunk), _ids(chunk))
                    # Touch another session so "cold" is evicted to disk.
                    await client.create_session("warm", list(ATTRS))
                    assert "cold" not in app.registry.resident_names()
                    closed = await client.close_session("cold")
                    return closed["state_sha"]

        sha = run(scenario())
        assert sha == _direct_sha(small_table, tmp_path, "cold", [chunk])


class TestRegistryResources:
    def test_eviction_cycles_close_every_manifest(self, small_table, tmp_path):
        """A retired session closes its manifest journal.

        With one resident session, two alternating tenants evict and
        restore on every touch.  After a full collection no
        ``MANIFEST.jsonl`` handle may be left for the garbage collector to
        close (an unclosed file raises a ``ResourceWarning``).
        """
        chunks = _chunks(small_table, 3)

        async def scenario():
            registry = SessionRegistry(tmp_path / "serve", max_resident=1)
            try:
                for name in ("a", "b"):
                    await registry.create(name, SessionSpec(ATTRS))
                for chunk in chunks:
                    for name in ("a", "b"):
                        payload = {"rows": _rows(chunk), "entity_ids": _ids(chunk)}
                        await registry.submit(name, "ingest", payload)
                for name in ("a", "b"):
                    await registry.close(name)
            finally:
                registry.shutdown()
            return registry.evictions

        gc.collect()  # earlier tests' garbage must not land in this record
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always", ResourceWarning)
            evictions = run(scenario())
            gc.collect()
        assert evictions >= 2 * len(chunks) - 1
        unclosed = [
            str(warning.message)
            for warning in caught
            if issubclass(warning.category, ResourceWarning)
            and str(tmp_path / "serve") in str(warning.message)
            and MANIFEST_NAME in str(warning.message)
        ]
        assert unclosed == []


class TestProtocolEdge:
    async def _raw_exchange(self, port, payload: bytes) -> dict:
        reader, writer = await asyncio.open_connection("127.0.0.1", port)
        writer.write(payload)
        await writer.drain()
        line = await asyncio.wait_for(reader.readline(), timeout=10)
        writer.close()
        return json.loads(line)

    def test_unknown_version_and_op_and_bad_json(self, tmp_path):
        async def scenario():
            app = ServeApp(tmp_path / "serve")
            async with serving(app) as server:
                future = await self._raw_exchange(
                    server.port,
                    encode({"v": 99, "id": 5, "op": "healthz"}),
                )
                unknown = await self._raw_exchange(
                    server.port,
                    encode({"v": PROTOCOL_VERSION, "id": 6, "op": "explode"}),
                )
                garbage = await self._raw_exchange(server.port, b"}{\n")
                deep = await self._raw_exchange(server.port, b"[" * 100_000 + b"\n")
                return future, unknown, garbage, deep

        future, unknown, garbage, deep = run(scenario())
        assert future["ok"] is False
        assert future["error"] == "unsupported_version"
        assert future["id"] == 5  # id echoed even on rejection
        assert unknown["error"] == "unknown_op"
        assert garbage["error"] == "bad_json"
        assert deep["error"] == "bad_json"  # nesting too deep to decode

    def test_oversized_line_is_answered_then_closed(self, tmp_path, caplog):
        """A line past MAX_LINE_BYTES cannot be framed: it gets one
        ``bad_request`` naming the limit, and its connection ends without
        reading the line's tail as a request.  Nothing reaches the
        ``asyncio`` log, and another connection still answers."""
        payload = (
            encode({"v": PROTOCOL_VERSION, "id": 1, "op": "healthz"})[:-2]
            + b',"pad":"'
            + b"x" * (MAX_LINE_BYTES + (1 << 20))
            + b'"}\n'
        )

        async def scenario():
            app = ServeApp(tmp_path / "serve")
            async with serving(app) as server:
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )

                async def send():
                    with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                        writer.write(payload)
                        await writer.drain()
                        writer.write_eof()

                sending = asyncio.get_running_loop().create_task(send())
                line = await asyncio.wait_for(reader.readline(), timeout=30)
                await sending
                rest = await asyncio.wait_for(reader.read(), timeout=30)
                writer.close()
                async with AsyncServeClient(port=server.port) as client:
                    health = await client.healthz()
                return line, rest, health

        with caplog.at_level(logging.WARNING, logger="asyncio"):
            line, rest, health = run(scenario())
        response = json.loads(line)
        assert (response["ok"], response["id"], response["error"]) == (
            False, None, "bad_request"
        )
        assert "8 MiB" in response["message"]
        assert rest == b""
        assert [record for record in caplog.records if record.name == "asyncio"] == []
        assert health["status"] == "ok"

    def test_client_fails_fast_on_an_oversized_response_line(self):
        """A response line past MAX_LINE_BYTES cannot be framed: the
        request waiting on it fails with a ServeError naming the limit
        instead of waiting forever, and so does a later request on the
        same client."""
        junk = b"x" * (MAX_LINE_BYTES + (1 << 20)) + b"\n"

        async def answer_with_junk(reader, writer):
            await reader.readline()
            with contextlib.suppress(ConnectionResetError, BrokenPipeError):
                writer.write(junk)
                await writer.drain()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(answer_with_junk, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncServeClient(port=port) as client:
                    with pytest.raises(ServeError, match="8 MiB") as first:
                        await asyncio.wait_for(client.call("healthz"), timeout=10)
                    with pytest.raises(ServeError, match="8 MiB") as later:
                        await asyncio.wait_for(client.call("healthz"), timeout=1)
                return str(first.value), str(later.value)
            finally:
                server.close()
                await server.wait_closed()

        first, later = run(scenario())
        assert first == later == "response line exceeds the 8 MiB limit"

    def test_client_fails_fast_once_the_server_hangs_up(self):
        """A connection the server closes fails the request in flight, and
        every later request at once, instead of leaving them pending."""

        async def hang_up(reader, writer):
            await reader.readline()
            writer.close()

        async def scenario():
            server = await asyncio.start_server(hang_up, "127.0.0.1", 0)
            port = server.sockets[0].getsockname()[1]
            try:
                async with AsyncServeClient(port=port) as client:
                    with pytest.raises(ServeError, match="closed the connection"):
                        await asyncio.wait_for(client.call("healthz"), timeout=10)
                    with pytest.raises(ServeError, match="closed the connection"):
                        await asyncio.wait_for(client.call("healthz"), timeout=1)
            finally:
                server.close()
                await server.wait_closed()

        run(scenario())

    def test_unknown_session_and_bad_name(self, tmp_path):
        async def scenario():
            app = ServeApp(tmp_path / "serve")
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    ghost = await client.request(
                        "query_clusters", session="ghost"
                    )
                    bad = await client.request(
                        "checkpoint", session="../escape"
                    )
                    numeric = await client.request("checkpoint", session=5)
                    return ghost, bad, numeric

        ghost, bad, numeric = run(scenario())
        assert ghost["error"] == "unknown_session"
        assert bad["error"] == "bad_session"
        assert numeric["error"] == "bad_session"

    def test_unbillable_session_is_refused_and_never_adopted(self, small_table, tmp_path):
        """Pricing or a band that would fail every later ingest is refused
        at create with a typed error, and takes no residency slot."""
        bad_fields = [
            {"pairs_per_hit": 0},
            {"worker_band": "95"},
            {"pairs_per_hit": "ten"},
            {"cents_per_hit": 2.5},
            {"config": "fast"},
            {"config": {"epsilon": "x"}},
            {"config": {"bogus": 1}},
            {"config": {"epsilon": -1.0}},
        ]
        chunk = _chunks(small_table, 2)[0]

        async def scenario():
            app = ServeApp(tmp_path / "serve", max_sessions=2)
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    refused = [
                        await client.request(
                            "create_session",
                            session=f"bad{index}",
                            attributes=list(small_table.attributes),
                            **fields,
                        )
                        for index, fields in enumerate(bad_fields)
                    ]
                    health = await client.healthz()
                    await client.create_session("good", list(small_table.attributes))
                    report = await client.ingest("good", _rows(chunk), _ids(chunk))
                    return refused, health, report

        refused, health, report = run(asyncio.wait_for(scenario(), timeout=60))
        assert [response["ok"] for response in refused] == [False] * 8
        assert [response["error"] for response in refused] == [
            "error",
            "error",
            "bad_request",
            "bad_request",
            "bad_request",
            "bad_request",
            "bad_request",
            "error",
        ]
        assert "pairs_per_hit" in refused[0]["message"]
        assert "accuracy band" in refused[1]["message"]
        # A mistyped or unknown config field is the request's fault, not
        # a snapshot's; an out-of-range value stays a typed error.
        assert "config {'epsilon': 'x'}" in refused[5]["message"]
        assert "config {'bogus': 1}" in refused[6]["message"]
        assert "snapshot" not in refused[5]["message"] + refused[6]["message"]
        assert "epsilon must be >= 0" in refused[7]["message"]
        assert (health["resident"], health["known_sessions"]) == (0, 0)
        assert report["batch"] == 1

    def test_session_locks_live_only_while_in_use(self, small_table, tmp_path):
        """A session name's lock exists only while an operation holds or
        awaits it: refused creates and closed sessions leave none, and
        concurrent ingests on one name still apply in admission order."""
        chunks = _chunks(small_table, 3)

        def request(op, session, **fields):
            return {"v": PROTOCOL_VERSION, "op": op, "session": session, **fields}

        async def scenario():
            app = ServeApp(tmp_path / "serve", max_sessions=2, queue_depth=8)
            try:
                attributes = list(small_table.attributes)
                refused = [
                    await app.dispatch(
                        request(
                            "create_session", f"bad{index}",
                            attributes=attributes, pairs_per_hit=0,
                        )
                    )
                    for index in range(50)
                ]
                after_refusals = len(app.registry._locks)
                for index in range(5):
                    await app.dispatch(request("create_session", f"s{index}", attributes=attributes))
                    await app.dispatch(
                        request("ingest", f"s{index}", rows=_rows(chunks[0]), entity_ids=_ids(chunks[0]))
                    )
                    await app.dispatch(request("close", f"s{index}"))
                after_closes = len(app.registry._locks)
                await app.dispatch(request("create_session", "busy", attributes=attributes))
                ingests = await asyncio.gather(
                    *(
                        app.dispatch(
                            request("ingest", "busy", rows=_rows(chunk), entity_ids=_ids(chunk))
                        )
                        for chunk in chunks
                    )
                )
                closed = await app.dispatch(request("close", "busy"))
                return refused, after_refusals, after_closes, ingests, closed, len(app.registry._locks)
            finally:
                app.registry.shutdown()

        refused, after_refusals, after_closes, ingests, closed, remaining = run(
            asyncio.wait_for(scenario(), timeout=120)
        )
        assert {response["error"] for response in refused} == {"error"}
        assert (after_refusals, after_closes, remaining) == (0, 0, 0)
        assert [response["batch"] for response in ingests] == [1, 2, 3]
        assert closed["state_sha"] == _direct_sha(small_table, tmp_path, "busy", chunks)

    def test_schema_mismatch_on_attach(self, small_table, tmp_path):
        async def scenario():
            app = ServeApp(tmp_path / "serve")
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    await client.create_session("s", list(ATTRS))
                    with pytest.raises(ServeError, match="schema"):
                        await client.create_session("s", ["just", "two"])

        run(scenario())

    def test_bad_ingests_are_answered_and_leave_no_trace(
        self, small_table, tmp_path
    ):
        """Every refused ingest gets an error response on a connection that
        stays open, and the session ends as if it never saw them."""
        chunks = _chunks(small_table, 2)
        bad_ingests = [
            {"rows": [["short"]], "entity_ids": [1]},
            # Pairs with the first chunk, but carries no ground truth.
            {"rows": [list(chunks[0][0].values)]},
            # A lone surrogate, sent as its JSON escape.
            {"rows": [["\ud800", "rome", "bbq"]], "entity_ids": [1]},
            # Not a row at all, and entity ids that are not a list: refused
            # at the protocol edge, and the connection keeps answering.
            {"rows": [5]},
            {"rows": [list(chunks[1][0].values)], "entity_ids": 5},
        ]

        async def scenario():
            app = ServeApp(tmp_path / "serve")
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    await client.create_session("t", list(small_table.attributes))
                    await client.ingest("t", _rows(chunks[0]), _ids(chunks[0]))
                    refused = [
                        await client.request("ingest", session="t", **fields)
                        for fields in bad_ingests
                    ]
                    report = await client.ingest(
                        "t", _rows(chunks[1]), _ids(chunks[1])
                    )
                    record = await client.checkpoint("t")
                    return refused, report, record["state_sha"]

        refused, report, sha = run(asyncio.wait_for(scenario(), timeout=60))
        assert [response["ok"] for response in refused] == [False] * 5
        assert [response["error"] for response in refused] == [
            "error",
            "error",
            "error",
            "bad_request",
            "bad_request",
        ]
        assert report["batch"] == 2
        assert sha == _direct_sha(small_table, tmp_path, "t", chunks)

    def test_lone_surrogates_in_names_and_ids_poison_no_tenant(
        self, small_table, tmp_path
    ):
        """A create or ingest carrying a lone surrogate in an attribute name
        or a string entity id is refused, so no snapshot ever has to encode
        one: another tenant still creates, ingests, is evicted (its
        checkpoint encodes) and drains with its direct-run state."""
        chunks = _chunks(small_table, 2)
        attributes = list(small_table.attributes)

        async def scenario():
            app = ServeApp(tmp_path / "serve", max_sessions=1)
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    bad_create = await client.request(
                        "create_session",
                        session="a",
                        attributes=["na\ud800me", *attributes[1:]],
                    )
                    await client.create_session("b", attributes)
                    await client.ingest("b", _rows(chunks[0]), _ids(chunks[0]))
                    bad_ingest = await client.request(
                        "ingest",
                        session="b",
                        rows=_rows(chunks[1][:1]),
                        entity_ids=["a\ud800"],
                    )
                    await client.create_session("c", list(ATTRS))  # evicts b
                    await client.ingest("b", _rows(chunks[1]), _ids(chunks[1]))
                    drained = await app.drain()
            assert app.registry.evictions >= 1
            return bad_create, bad_ingest, drained

        bad_create, bad_ingest, drained = run(
            asyncio.wait_for(scenario(), timeout=60)
        )
        assert (bad_create["ok"], bad_create["error"]) == (False, "error")
        assert "surrogate" in bad_create["message"]
        assert (bad_ingest["ok"], bad_ingest["error"]) == (False, "error")
        assert "surrogate" in bad_ingest["message"]
        states = {record["session"]: record["state_sha"] for record in drained}
        assert "a" not in states
        assert states["b"] == _direct_sha(small_table, tmp_path, "b", chunks)

    def test_healthz_and_metrics_over_http(self, tmp_path):
        async def scenario():
            app = ServeApp(tmp_path / "serve")
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    await client.create_session("h", list(ATTRS))
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
                await writer.drain()
                health_raw = await reader.read()
                writer.close()
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                metrics_raw = await reader.read()
                writer.close()
                return health_raw, metrics_raw

        health_raw, metrics_raw = run(scenario())
        head, _, body = health_raw.partition(b"\r\n\r\n")
        assert head.startswith(b"HTTP/1.0 200 OK")
        health = json.loads(body)
        assert health["status"] == "ok"
        assert health["known_sessions"] == 1
        metrics_text = metrics_raw.partition(b"\r\n\r\n")[2].decode()
        assert "repro_serve_requests_total" in metrics_text
        assert "repro_serve_sessions_resident" in metrics_text
        assert "# TYPE repro_serve_request_seconds histogram" in metrics_text


class TestSessionGauges:
    def test_evictions_do_not_scan_the_checkpoint_root(
        self, small_table, tmp_path, monkeypatch
    ):
        """Counting known sessions lists the root and stats every manifest,
        so it happens when metrics are read, not on each create, ingest and
        eviction: with 200 dormant sessions on disk, evicting ingests make
        no such count, and /metrics still reports every session."""
        root = tmp_path / "serve"
        for index in range(200):
            (root / f"dormant{index}").mkdir(parents=True)
            (root / f"dormant{index}" / MANIFEST_NAME).touch()
        chunk = _chunks(small_table, 6)[0]
        scans = []
        original = SessionRegistry.known_sessions

        def counted(self):
            scans.append(1)
            return original(self)

        monkeypatch.setattr(SessionRegistry, "known_sessions", counted)

        async def scenario():
            app = ServeApp(root, max_sessions=1)
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    for name in ("a", "b", "a"):
                        await client.create_session(name, list(ATTRS))
                        await client.ingest(name, _rows(chunk), _ids(chunk))
                    evictions, before_metrics = app.registry.evictions, len(scans)
                reader, writer = await asyncio.open_connection("127.0.0.1", server.port)
                writer.write(b"GET /metrics HTTP/1.0\r\n\r\n")
                await writer.drain()
                metrics_raw = await reader.read()
                writer.close()
            return evictions, before_metrics, metrics_raw

        evictions, before_metrics, metrics_raw = run(scenario())
        assert evictions >= 2
        assert before_metrics == 0
        metrics_text = metrics_raw.partition(b"\r\n\r\n")[2].decode()
        assert "repro_serve_sessions_known 202" in metrics_text
        assert "repro_serve_sessions_resident 1" in metrics_text


class TestTracingServer:
    def test_concurrent_ingests_are_answered_and_traced(self, small_table, tmp_path):
        """Requests interleave on the event loop's thread, so a request's
        span cannot sit on that thread's span stack across an ``await``:
        with tracing on, two concurrent ingests are both answered, and the
        trace holds one finished ``serve.request`` root for each."""
        from repro.obs import Observability

        chunks = _chunks(small_table, 2)
        obs = Observability(tracing=True, metrics=True)

        def request(op, session, **fields):
            return {"v": PROTOCOL_VERSION, "op": op, "session": session, **fields}

        async def scenario():
            app = ServeApp(tmp_path / "serve", obs=obs, crowd_latency=0.05)
            try:
                for name in ("a", "b"):
                    created = await app.dispatch(
                        request("create_session", name, attributes=list(ATTRS))
                    )
                    assert created["ok"], created
                obs.tracer.clear()
                return await asyncio.gather(
                    *(
                        app.dispatch(
                            request("ingest", name, rows=_rows(chunk), entity_ids=_ids(chunk))
                        )
                        for name, chunk in zip(("a", "b"), chunks)
                    ),
                    return_exceptions=True,
                )
            finally:
                await app.drain()

        responses = run(scenario())
        assert [response["ok"] for response in responses] == [True, True], responses
        requests = [span for span in obs.tracer.roots() if span.name == "serve.request"]
        assert [span.attributes for span in requests] == [
            {"op": "ingest", "status": "ok"}
        ] * 2
        # The spans and the latency histogram share their clock reads.
        ingest = {
            dict(histogram.labels)["op"]: histogram
            for histogram in obs.registry.family("repro_serve_request_seconds")
        }["ingest"]
        assert ingest.count == 2
        assert sorted(span.wall_seconds for span in requests) == [ingest.min, ingest.max]


class TestResilience:
    def test_client_disconnect_mid_ingest_keeps_session_consistent(
        self, small_table, tmp_path
    ):
        """A vanished client must not corrupt or abandon admitted work: the
        actor finishes the batch, and the session equals a direct run."""
        chunk = _chunks(small_table, 3)[0]

        async def scenario():
            app = ServeApp(tmp_path / "serve")
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    await client.create_session("d", list(ATTRS))
                # Fire the ingest and slam the connection without reading.
                reader, writer = await asyncio.open_connection(
                    "127.0.0.1", server.port
                )
                writer.write(
                    encode(
                        {
                            "v": PROTOCOL_VERSION,
                            "id": 1,
                            "op": "ingest",
                            "session": "d",
                            "rows": _rows(chunk),
                            "entity_ids": _ids(chunk),
                        }
                    )
                )
                await writer.drain()
                writer.close()
                # A fresh client's query serializes behind the orphaned
                # ingest on the same actor queue: no sleeps needed.
                async with AsyncServeClient(port=server.port) as client:
                    clusters = await client.query_clusters("d")
                    assert clusters["batches"] == 1
                    assert clusters["records"] == len(chunk)
                    record = await client.checkpoint("d")
                    return record["state_sha"]

        sha = run(scenario())
        assert sha == _direct_sha(small_table, tmp_path, "d", [chunk])

    def test_overload_sheds_with_retry_after_then_recovers(
        self, small_table, tmp_path
    ):
        """Past the queue depth, ingests shed (priced refusals, not queue
        collapse); honoring retry_after gets everything through, and the
        final state matches the direct serial run of the admitted batches."""
        chunks = _chunks(small_table, 6)

        async def scenario():
            app = ServeApp(
                tmp_path / "serve",
                max_sessions=2,
                queue_depth=1,
                crowd_latency=0.15,
            )
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    await client.create_session("load", list(ATTRS))
                    results = await asyncio.gather(
                        *(
                            client.request(
                                "ingest",
                                session="load",
                                rows=_rows(chunk),
                                entity_ids=_ids(chunk),
                            )
                            for chunk in chunks
                        )
                    )
                    shed = [r for r in results if not r["ok"]]
                    accepted = [r for r in results if r["ok"]]
                    assert shed, "queue_depth=1 under a 6-deep burst must shed"
                    for refusal in shed:
                        assert refusal["error"] == "overloaded"
                        assert refusal["retry_after"] > 0
                    # Recovery: backing off per retry_after drains through.
                    for refusal in shed:
                        await asyncio.sleep(refusal["retry_after"])
                    health = await client.healthz()
                    assert health["status"] == "ok"
                    batches = (await client.query_clusters("load"))["batches"]
                    assert batches == len(accepted)

        run(scenario())

    def test_drain_sheds_and_checkpoints_every_session(
        self, small_table, tmp_path
    ):
        chunk = _chunks(small_table, 4)[0]

        async def scenario():
            app = ServeApp(tmp_path / "serve", max_sessions=4)
            async with serving(app) as server:
                async with AsyncServeClient(port=server.port) as client:
                    for name in ("d1", "d2"):
                        await client.create_session(name, list(ATTRS))
                        await client.ingest(name, _rows(chunk), _ids(chunk))
                    drained = await app.drain()
                    assert {d["session"] for d in drained} == {"d1", "d2"}
                    with pytest.raises(OverloadedError) as excinfo:
                        await client.ingest("d1", _rows(chunk), _ids(chunk))
                    assert excinfo.value.retry_after > 0
                    health = await client.healthz()
                    assert health["status"] == "draining"
                    return drained

        drained = run(scenario())
        for record in drained:
            # The resolver name is part of the hashed state, so each
            # drained session gets its own same-named reference run.
            expected = _direct_sha(
                small_table, tmp_path, record["session"], [chunk]
            )
            assert record["state_sha"] == expected


class TestDrainRace:
    """A drain that starts while an ingest is restoring its session.

    The session's restore is held on a :class:`threading.Event` until the
    drain has begun, with a second ingest already waiting on the
    session's lock: the first ingest is past the drain check, the second
    is not.
    """

    @pytest.fixture()
    def raced(self, small_table, tmp_path, monkeypatch):
        chunks = _chunks(small_table, 3)
        entered, release = threading.Event(), threading.Event()
        restore = SessionRegistry._restore_resolver

        def held_restore(registry, name):
            entered.set()
            release.wait(timeout=30)
            return restore(registry, name)

        monkeypatch.setattr(SessionRegistry, "_restore_resolver", held_restore)

        def request(op, session, **fields):
            return {"v": PROTOCOL_VERSION, "op": op, "session": session, **fields}

        def ingest(chunk):
            return request("ingest", "a", rows=_rows(chunk), entity_ids=_ids(chunk))

        async def scenario():
            app = ServeApp(tmp_path / "serve", max_sessions=1)
            loop = asyncio.get_running_loop()
            drain = None
            try:
                await app.dispatch(request("create_session", "a", attributes=list(ATTRS)))
                await app.dispatch(ingest(chunks[0]))
                # Creating "b" evicts "a" to its snapshot.
                await app.dispatch(request("create_session", "b", attributes=list(ATTRS)))
                first = loop.create_task(app.dispatch(ingest(chunks[1])))
                while not entered.is_set():
                    await asyncio.sleep(0.01)
                second = loop.create_task(app.dispatch(ingest(chunks[2])))
                while app.registry._locks["a"].users < 2:
                    await asyncio.sleep(0)
                drain = loop.create_task(app.drain())
                while app.healthz()["status"] != "draining":
                    await asyncio.sleep(0)
                release.set()
                responses = await asyncio.gather(first, second)
                drained = await drain
                return responses, drained, app.registry.resident
            finally:
                release.set()
                # The drain under test retires every session; drain here
                # only when the scenario stopped before it began.
                await (app.drain() if drain is None else drain)

        (first, second), drained, resident = run(asyncio.wait_for(scenario(), timeout=120))
        return first, second, drained, resident, chunks

    def test_drain_checkpoints_an_ingest_caught_restoring(self, raced, small_table, tmp_path):
        first, _, drained, resident, chunks = raced
        assert first["ok"], first
        assert first["batch"] == 2
        states = {record["session"]: record["state_sha"] for record in drained}
        assert set(states) == {"a", "b"}
        assert states["a"] == _direct_sha(small_table, tmp_path, "a", chunks[:2])
        assert resident == 0

    def test_drain_sheds_an_ingest_waiting_on_the_lock(self, raced):
        _, second, _, _, _ = raced
        assert (second["ok"], second["error"]) == (False, "overloaded")
        assert second["retry_after"] == DRAIN_RETRY_AFTER
