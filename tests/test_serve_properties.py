"""Property tests: interleaved multi-tenant schedules equal serial runs.

The core isolation claim of the serve subsystem is schedule independence:
no matter how N tenants' operations interleave — and no matter how often
the LRU cap forces evict/restore cycles underneath them — each session's
final ``state_sha`` equals the one from running that session's batches
alone, serially, against a direct :class:`StreamingResolver`.  Hypothesis
generates the interleavings (a random merge of per-session batch
sequences, with queries sprinkled in) and the residency pressure
(``max_resident`` of 1 or 2), and the assertion is bit-exact.
"""

from __future__ import annotations

import asyncio
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import PowerConfig
from repro.serve import PROTOCOL_VERSION, ServeApp
from repro.stream import StreamingResolver

ATTRS = ("name", "city", "cuisine")


def _session_chunks(table, index, batches):
    """Session *index*'s private record slice, split into *batches*."""
    records = list(table)
    span = records[index * 15 :] + records[: index * 15]
    span = span[:30]
    size = max(1, -(-len(span) // batches))
    return [span[start : start + size] for start in range(0, len(span), size)]


def _request(op, session, **fields):
    return {"v": PROTOCOL_VERSION, "id": 0, "op": op, "session": session, **fields}


async def _drive(root, schedule, chunk_lists, max_resident, query_flags):
    """Run one interleaved schedule through a ServeApp; return shas."""
    app = ServeApp(root / "serve", max_sessions=max_resident)
    try:
        for name in chunk_lists:
            response = await app.dispatch(
                _request("create_session", name, attributes=list(ATTRS))
            )
            assert response["ok"], response
        cursors = {name: 0 for name in chunk_lists}
        for step, name in enumerate(schedule):
            chunk = chunk_lists[name][cursors[name]]
            cursors[name] += 1
            response = await app.dispatch(
                _request(
                    "ingest",
                    name,
                    rows=[list(r.values) for r in chunk],
                    entity_ids=[r.entity_id for r in chunk],
                )
            )
            assert response["ok"], response
            if query_flags[step]:
                queried = await app.dispatch(_request("query_clusters", name))
                assert queried["ok"], queried
        shas = {}
        for name in chunk_lists:
            record = await app.dispatch(_request("checkpoint", name))
            assert record["ok"], record
            shas[name] = record["state_sha"]
        return shas, app.registry.evictions
    finally:
        await app.drain()


def _serial_sha(root, table, name, chunks, seed):
    resolver = StreamingResolver(
        ATTRS,
        config=PowerConfig(seed=seed),
        name=name,
        checkpoint_dir=root / f"serial-{name}",
    )
    for chunk in chunks:
        resolver.add_batch(
            [list(r.values) for r in chunk],
            entity_ids=[r.entity_id for r in chunk],
        )
    state_sha = resolver.checkpoint()["state_sha"]
    resolver.close()
    return state_sha


class TestScheduleIndependence:
    @pytest.mark.slow
    @settings(max_examples=6, deadline=None)
    @given(data=st.data())
    def test_interleaved_sessions_match_serial_runs(self, small_table, data):
        n_sessions = data.draw(st.integers(2, 3), label="sessions")
        max_resident = data.draw(st.sampled_from([1, 2]), label="max_resident")
        batch_counts = [
            data.draw(st.integers(1, 3), label=f"batches[{i}]")
            for i in range(n_sessions)
        ]
        names = [f"t{i}" for i in range(n_sessions)]
        chunk_lists = {
            name: _session_chunks(small_table, i, batch_counts[i])
            for i, name in enumerate(names)
        }
        tokens = [name for name in names for _ in chunk_lists[name]]
        schedule = data.draw(st.permutations(tokens), label="schedule")
        query_flags = [
            data.draw(st.booleans(), label=f"query[{i}]")
            for i in range(len(schedule))
        ]

        with tempfile.TemporaryDirectory() as tmp:
            root = Path(tmp)
            shas, evictions = asyncio.run(
                _drive(root, schedule, chunk_lists, max_resident, query_flags)
            )
            if max_resident < n_sessions:
                assert evictions >= 1  # the cap actually exerted pressure
            for name in names:
                expected = _serial_sha(
                    root, small_table, name, chunk_lists[name], seed=0
                )
                assert shas[name] == expected, (
                    f"session {name} diverged from its serial run under "
                    f"schedule {schedule} (max_resident={max_resident})"
                )
