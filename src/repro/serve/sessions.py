"""Session registry: many durable tenants, bounded resident memory.

Each tenant session is one :class:`~repro.stream.StreamingResolver` owned
by a **single-writer actor** — an asyncio task that drains the session's
work queue one item at a time, so per-session operations execute in
exactly the order they were admitted no matter how many connections
submit them.  CPU-heavy batch work runs off the event loop in a shared
thread pool; the loop itself only ever schedules, admits, and sheds.

Resident memory is bounded by LRU eviction: when more than
``max_resident`` sessions are live, the least-recently-touched idle one
is drained, checkpointed to its PR-8 snapshot directory, and dropped from
memory.  The next touch transparently restores it with
:meth:`StreamingResolver.restore` — bit-identically, by the snapshot
contract — so the set of *sessions* is effectively unbounded while the
set of *resolvers in memory* never exceeds the cap.  The
``check_serve_equivalence`` battery step certifies the whole cycle:
ingesting through the registry (evictions included) must reach the same
``state_sha`` as driving a :class:`StreamingResolver` directly.

Deadlock discipline: an operation holds only its own session's lock; the
evictor skips victims whose lock is held or awaited (they are mid-touch
and therefore MRU anyway), so no task ever waits on two locks.  A name's
lock exists only while some operation holds or awaits it, so refused
creates and closed sessions leave nothing behind.

Drain discipline: :meth:`SessionRegistry.drain_all` sets the one
``draining`` flag, which every create, submit and close tests once it
holds its name's lock and before any restore.  An operation past that
check finishes and is checkpointed by the drain; every later one is shed
with :data:`~repro.serve.admission.DRAIN_RETRY_AFTER`.
"""

from __future__ import annotations

import asyncio
import contextlib
import re
from collections import OrderedDict
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from ..core.config import PowerConfig
from ..exceptions import OverloadedError, ProtocolError, ServeError
from ..obs import instrument as obs_instrument
from ..stream.service import StreamingResolver, _decode_config
from ..stream.snapshot import SnapshotStore
from .admission import DRAIN_RETRY_AFTER, AdmissionController

_SESSION_NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9._-]{0,63}$")

#: Actor shutdown sentinel (queued after the last real work item).
_STOP = object()

#: Threads running the sessions' batch work, restores and checkpoints.
_POOL_THREADS = 4


@dataclass
class SessionSpec:
    """Everything needed to build a fresh session's resolver."""

    attributes: tuple[str, ...]
    config: PowerConfig = field(default_factory=PowerConfig)
    worker_band: str | tuple[float, float] = "90"
    pairs_per_hit: int = 10
    cents_per_hit: int = 10

    @classmethod
    def from_request(cls, request: dict[str, Any]) -> "SessionSpec":
        """Decode a ``create_session`` request's optional fields.

        Values are checked by :class:`StreamingResolver` and
        :class:`PowerConfig` themselves; only the types of ``config``, its
        fields and the pricing are checked here, so a malformed one is a
        typed ``bad_request`` rather than a handler exception.
        """
        config = request.get("config")
        if config is not None and not isinstance(config, dict):
            raise ProtocolError(
                "bad_request", f"config must be an object, got {config!r}"
            )
        try:
            config = _decode_config(config) if config else PowerConfig()
        except TypeError as error:
            raise ProtocolError(
                "bad_request", f"config {request['config']!r} does not decode: {error}"
            ) from None
        band = request.get("worker_band", "90")
        if isinstance(band, list):
            band = tuple(band)
        return cls(
            attributes=tuple(request["attributes"]),
            config=config,
            worker_band=band,
            pairs_per_hit=_integer_field(request, "pairs_per_hit", 10),
            cents_per_hit=_integer_field(request, "cents_per_hit", 10),
        )


def _integer_field(request: dict[str, Any], name: str, default: int) -> int:
    value = request.get(name, default)
    if isinstance(value, bool) or not isinstance(value, int):
        raise ProtocolError(
            "bad_request", f"{name} must be an integer, got {value!r}"
        )
    return value


@dataclass
class _NameLock:
    """One session name's lock and the operations holding or awaiting it."""

    lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    users: int = 0


@dataclass
class _WorkItem:
    kind: str
    payload: dict[str, Any]
    future: asyncio.Future


@dataclass
class _Live:
    """One resident session: resolver + queue + actor + admission gate."""

    name: str
    resolver: StreamingResolver
    queue: asyncio.Queue
    admission: AdmissionController
    task: asyncio.Task | None = None


class SessionRegistry:
    """The server's session table: create, route, evict, restore, drain.

    Args:
        checkpoint_root: directory holding one snapshot subdirectory per
            session (the eviction/restore store and the drain target).
        max_resident: LRU cap on concurrently in-memory resolvers.
        queue_depth: per-session ingest queue bound
            (see :class:`~repro.serve.admission.AdmissionController`).
        crowd_latency: simulated crowd round-trip seconds awaited per
            ingested batch (models the human-latency regime real
            crowdsourced ER serves under; ``0`` disables — results are
            identical either way, only timing changes).
        obs: observability handle for ``repro_serve_*`` session metrics
            (defaults to the process-wide handle at call time).
    """

    def __init__(
        self,
        checkpoint_root: str | Path,
        max_resident: int = 8,
        queue_depth: int = 4,
        crowd_latency: float = 0.0,
        obs=None,
    ) -> None:
        if max_resident < 1:
            raise ServeError(f"max_resident must be >= 1, got {max_resident}")
        self.checkpoint_root = Path(checkpoint_root)
        self.checkpoint_root.mkdir(parents=True, exist_ok=True)
        self.max_resident = max_resident
        self.queue_depth = queue_depth
        self.crowd_latency = crowd_latency
        self._pool = ThreadPoolExecutor(
            max_workers=_POOL_THREADS, thread_name_prefix="serve-batch"
        )
        self._obs = obs
        self._live: OrderedDict[str, _Live] = OrderedDict()
        self._locks: dict[str, _NameLock] = {}
        self.draining = False
        self.sessions_opened = 0
        self.evictions = 0
        self.restores = 0

    # ------------------------------------------------------------------ #
    # Introspection
    # ------------------------------------------------------------------ #

    @property
    def resident(self) -> int:
        return len(self._live)

    def resident_names(self) -> list[str]:
        return list(self._live)

    def known_sessions(self) -> list[str]:
        """Every session resident or restorable from the checkpoint root."""
        names = set(self._live)
        if self.checkpoint_root.exists():
            for child in self.checkpoint_root.iterdir():
                if (child / "MANIFEST.jsonl").exists():
                    names.add(child.name)
        return sorted(names)

    def session_dir(self, name: str) -> Path:
        if not _SESSION_NAME.match(name or ""):
            raise ProtocolError(
                "bad_session",
                f"session name {name!r} must match {_SESSION_NAME.pattern}",
            )
        return self.checkpoint_root / name

    @contextlib.asynccontextmanager
    async def _lock(self, name: str):
        """Hold *name*'s lock, which lives only while it is held or awaited."""
        entry = self._locks.get(name)
        if entry is None:
            entry = self._locks[name] = _NameLock()
        entry.users += 1
        try:
            async with entry.lock:
                yield
        finally:
            entry.users -= 1
            if not entry.users:
                del self._locks[name]

    def _observability(self):
        return self._obs or obs_instrument.current()

    def _record_event(self, event: str) -> None:
        obs_instrument.record_serve_event(self._observability(), event)

    def _refuse_if_draining(self) -> None:
        """The one drain check; callers hold the session's name lock."""
        if self.draining:
            raise OverloadedError(
                "server is draining for shutdown; retry against the "
                "restarted server",
                retry_after=DRAIN_RETRY_AFTER,
            )

    # ------------------------------------------------------------------ #
    # Lifecycle
    # ------------------------------------------------------------------ #

    async def create(self, name: str, spec: SessionSpec) -> dict[str, Any]:
        """Create (or attach to) a session; returns its status summary."""
        directory = self.session_dir(name)
        async with self._lock(name):
            self._refuse_if_draining()
            live = self._live.get(name)
            created = False
            if live is None:
                if SnapshotStore(directory).exists():
                    live = await self._restore(name)
                else:
                    resolver = StreamingResolver(
                        spec.attributes,
                        config=spec.config,
                        name=name,
                        checkpoint_dir=directory,
                        worker_band=spec.worker_band,
                        pairs_per_hit=spec.pairs_per_hit,
                        cents_per_hit=spec.cents_per_hit,
                    )
                    live = self._adopt(name, resolver)
                    self.sessions_opened += 1
                    created = True
            else:
                self._live.move_to_end(name)
            resolver = live.resolver
            if tuple(resolver.table.attributes) != tuple(spec.attributes):
                raise ProtocolError(
                    "bad_request",
                    f"session {name!r} has schema "
                    f"{list(resolver.table.attributes)}, request says "
                    f"{list(spec.attributes)}",
                )
        await self._enforce_residency(keep=name)
        return {
            "session": name,
            "created": created,
            "batches": resolver.batches,
            "records": len(resolver.table),
        }

    async def submit(self, name: str, kind: str, payload: dict[str, Any]) -> Any:
        """Admit one work item onto *name*'s actor and await its result.

        ``ingest`` passes through admission control (the queue bound) and
        can raise :class:`OverloadedError`; the cheap read ops queue
        unbounded so health stays observable under load.  While draining,
        every kind is shed.
        """
        async with self._lock(name):
            self._refuse_if_draining()
            live = await self._touch(name)
            if kind == "ingest":
                live.admission.admit(live.queue.qsize())
            future: asyncio.Future = asyncio.get_running_loop().create_future()
            live.queue.put_nowait(_WorkItem(kind, payload, future))
        await self._enforce_residency(keep=name)
        return await future

    async def close(self, name: str) -> dict[str, Any]:
        """Drain, final-checkpoint, and forget *name* (snapshot remains)."""
        async with self._lock(name):
            self._refuse_if_draining()
            live = self._live.pop(name, None)
            if live is None:
                # Not resident: the on-disk snapshot *is* the final state.
                store = SnapshotStore(self.session_dir(name))
                if not store.exists():
                    raise ProtocolError(
                        "unknown_session", f"no session named {name!r}"
                    )
                from ..stream.snapshot import load_snapshot

                _, checkpoint = load_snapshot(store)
                return {
                    "session": name,
                    "batch": checkpoint["batch"],
                    "state_sha": checkpoint["state_sha"],
                }
            record = await self._retire(live)
        return {
            "session": name,
            "batch": record["batch"],
            "state_sha": record["state_sha"],
        }

    async def drain_all(self) -> list[dict[str, Any]]:
        """Shed new work, then checkpoint and retire every session.

        Sets :attr:`draining` and so stops eviction, then takes in turn
        the lock of every name resident or locked at this point.  An
        operation already past the drain check holds that lock or has
        queued its work, so it finishes first, and a session it created
        or restored is retired here with it (the SIGTERM path).
        """
        self.draining = True
        drained = []
        for name in dict.fromkeys([*self._live, *self._locks]):
            async with self._lock(name):
                live = self._live.pop(name, None)
                if live is None:
                    continue
                record = await self._retire(live)
            self._record_event("drain_checkpoints")
            drained.append(
                {
                    "session": name,
                    "batch": record["batch"],
                    "state_sha": record["state_sha"],
                }
            )
        return drained

    def shutdown(self) -> None:
        self._pool.shutdown(wait=True)

    # ------------------------------------------------------------------ #
    # Residency management
    # ------------------------------------------------------------------ #

    def _adopt(self, name: str, resolver: StreamingResolver) -> _Live:
        live = _Live(
            name=name,
            resolver=resolver,
            queue=asyncio.Queue(),
            admission=AdmissionController(queue_depth=self.queue_depth),
        )
        live.task = asyncio.get_running_loop().create_task(self._actor(live))
        self._live[name] = live
        self._live.move_to_end(name)
        return live

    async def _touch(self, name: str) -> _Live:
        """The resident session, restoring it from its snapshot if needed."""
        live = self._live.get(name)
        if live is not None:
            self._live.move_to_end(name)
            return live
        return await self._restore(name)

    async def _restore(self, name: str) -> _Live:
        directory = self.session_dir(name)
        if not SnapshotStore(directory).exists():
            raise ProtocolError("unknown_session", f"no session named {name!r}")
        resolver = await asyncio.get_running_loop().run_in_executor(
            self._pool, self._restore_resolver, name
        )
        self.restores += 1
        self._record_event("restores")
        return self._adopt(name, resolver)

    def _restore_resolver(self, name: str) -> StreamingResolver:
        """Rebuild one session's resolver from its last complete snapshot.

        The seam the ``serve-cross-session-leak`` mutant attacks: handing
        back any resolver other than the one decoded from *this* session's
        snapshot store silently cross-wires tenants.
        """
        return StreamingResolver.restore(self.session_dir(name))

    async def _enforce_residency(self, keep: str) -> None:
        """Evict LRU sessions until at most ``max_resident`` are live.

        Skips *keep* (the session just touched) and any session whose lock
        is currently held or awaited (mid-touch — and therefore about to be
        MRU); holding only one lock at a time keeps the registry
        deadlock-free.  A draining registry evicts nothing: the drain
        retires every session.
        """
        while not self.draining and len(self._live) > self.max_resident:
            victim = next(
                (
                    name
                    for name in self._live
                    if name != keep and name not in self._locks
                ),
                None,
            )
            if victim is None:
                return
            async with self._lock(victim):
                live = self._live.pop(victim, None)
                if live is None:
                    continue
                await self._retire(live)
            self.evictions += 1
            self._record_event("evictions")

    async def _retire(self, live: _Live) -> dict[str, Any]:
        """Stop a session's actor after its queue drains, then checkpoint.

        Queued work is *paid-for* work in flight; eviction and drain both
        complete it before snapshotting, so no admitted batch (and no
        crowd answer it bought) is ever lost to memory management.  The
        resolver is dropped afterwards, so its manifest file is closed.
        """
        live.queue.put_nowait(_STOP)
        await live.task
        try:
            return await asyncio.get_running_loop().run_in_executor(
                self._pool, live.resolver.checkpoint
            )
        finally:
            live.resolver.close()

    # ------------------------------------------------------------------ #
    # The single-writer actor
    # ------------------------------------------------------------------ #

    async def _actor(self, live: _Live) -> None:
        loop = asyncio.get_running_loop()
        clock = self._observability().tracer.clock
        while True:
            item = await live.queue.get()
            try:
                if item is _STOP:
                    return
                started = clock.wall()
                try:
                    result = await self._execute(loop, live, item)
                except Exception as error:  # noqa: BLE001 - forwarded to caller
                    if not item.future.done():
                        item.future.set_exception(error)
                else:
                    if item.kind == "ingest":
                        live.admission.observe_batch_seconds(clock.wall() - started)
                        if self.crowd_latency > 0:
                            # The simulated crowd round trip: wall time only,
                            # never state (the answers are already folded in).
                            await asyncio.sleep(self.crowd_latency)
                    if not item.future.done():
                        item.future.set_result(result)
            finally:
                live.queue.task_done()

    async def _execute(self, loop, live: _Live, item: _WorkItem) -> Any:
        resolver = live.resolver
        if item.kind == "ingest":
            rows = item.payload["rows"]
            entity_ids = item.payload.get("entity_ids")
            report = await loop.run_in_executor(
                self._pool,
                lambda: resolver.add_batch(rows, entity_ids=entity_ids),
            )
            return {
                key: report[key]
                for key in (
                    "batch",
                    "new_records",
                    "new_pairs",
                    "questions",
                    "iterations",
                    "clusters",
                    "batch_token",
                )
            }
        if item.kind == "query_clusters":
            return {
                "clusters": resolver.clusters(),
                "records": len(resolver.table),
                "batches": resolver.batches,
                "questions": resolver.total_questions,
                "cost_cents": resolver.cost_cents,
            }
        if item.kind == "checkpoint":
            record = await loop.run_in_executor(self._pool, resolver.checkpoint)
            return {
                "batch": record["batch"],
                "records": record["records"],
                "questions": record["questions"],
                "cost_cents": record["cost_cents"],
                "state_sha": record["state_sha"],
            }
        raise ServeError(f"unknown work kind {item.kind!r}")


__all__ = ["SessionRegistry", "SessionSpec"]
