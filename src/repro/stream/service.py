"""The durable streaming resolution service.

:class:`StreamingResolver` resolves records as they arrive.  It keeps the
resolved state — clusters plus every pair decision already paid for — and
runs each batch through the one-shot resolver's batch step
(:meth:`~repro.core.resolver.PowerResolver.resolve_batch`: candidate join
→ vectors → partial-order graph → crowd session → selector) over one
resumed :class:`~repro.similarity.batch.PostingJoin`, which probes only
the new records.  So the batches find exactly the pairs the one-shot join
finds, and only new×old and new×new pairs are ever asked.  On top of that
it adds the three things a service needs that a library object does not:

* **durability** — :meth:`checkpoint` writes the full resolver state
  (records, pair labels, crowd transcripts, billing, RNG state, and the
  token-index spec derived from the join) to a versioned,
  content-addressed :class:`~repro.stream.snapshot.SnapshotStore`;
  :meth:`restore` resumes from the last complete checkpoint after a kill,
  bit-identically and without re-asking a single paid pair;
* **pooled billing** — one ledger over the union of asked pairs across
  every batch (the CrowdER-style reuse of paid decisions): ``cost_cents``
  is ``ceil(distinct_asked / pairs_per_hit) × z × cents_per_hit``, the
  exact :class:`~repro.crowd.platform.CrowdSession` formula applied to the
  whole stream, so a single-batch stream bills exactly like a one-shot
  run;
* **observability** — a ``stream.batch`` span and ``repro_stream_*``
  metrics per batch, under the repo-wide transparency contract.

Determinism is the load-bearing wall: worker answers depend only on
``(seed, worker_id, pair)`` and batch tokens come from a checkpointed
``numpy`` generator, so *stream-of-batches ≡ one-shot* and *kill-resume ≡
uninterrupted* are theorems the ``check_stream_equivalence`` battery step
enforces rather than hopes for.
"""

from __future__ import annotations

import hashlib
import itertools
import math
import re
from collections.abc import Sequence
from typing import Any

import numpy as np

from ..core.clustering import clusters_from_matches
from ..core.config import PowerConfig
from ..core.metrics import QualityReport, entity_quality
from ..core.resolver import PowerResolver, stage
from ..crowd.aggregate import VoteOutcome
from ..crowd.platform import CrowdSession, SimulatedCrowd, check_pricing
from ..crowd.worker import accuracy_band
from ..data.ground_truth import Pair
from ..data.table import Record, Table
from ..engine.journal import decode_outcome, encode_outcome
from ..exceptions import ConfigurationError, DataError
from ..obs import instrument as obs_instrument
from ..similarity.batch import PostingJoin
from ..similarity.join import record_tokens
from .snapshot import (
    SNAPSHOT_VERSION,
    SnapshotStore,
    canonical_json,
    encode_index,
    load_snapshot,
)

#: Lone UTF-16 surrogates: a Python ``str`` can hold one (a JSON ``"\ud800"``
#: escape decodes to it), but UTF-8 cannot encode it, so neither can a
#: snapshot.  Record values, attribute names and string entity ids are all
#: refused with one.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


class _RecordingSession(CrowdSession):
    """A crowd session that mirrors every paid answer into the stream.

    The transcript dict keeps insertion order (first-asked order), which
    makes it both the durable audit log the checkpoint persists and the
    stream's pooled-billing universe.
    """

    def __init__(
        self,
        crowd: SimulatedCrowd,
        transcript: dict[Pair, VoteOutcome],
        pairs_per_hit: int = 10,
        cents_per_hit: int = 10,
    ) -> None:
        super().__init__(
            crowd, pairs_per_hit=pairs_per_hit, cents_per_hit=cents_per_hit
        )
        self._transcript = transcript

    def ask_batch(self, pairs):
        answers = super().ask_batch(pairs)
        self._transcript.update(answers)
        return answers


class StreamingResolver:
    """Durable, restartable streaming entity resolution.

    Args:
        attributes: schema of the incoming records.
        config: pipeline configuration (the one-shot resolver's knobs).
        name: dataset name stored on the internal table.
        checkpoint_dir: snapshot directory for :meth:`checkpoint`;
            ``None`` runs in-memory only.  A directory holding an earlier
            stream's manifest is refused — resume it with :meth:`restore`
            instead of silently forking its history.
        crowd: optional shared crowd platform (e.g. a
            :class:`~repro.crowd.platform.PerfectCrowd` over known truth),
            which must cover every candidate pair of a batch.  When
            omitted, each batch builds the one-shot resolver's simulated
            crowd from the records' ground-truth entity ids.
        worker_band: accuracy band for auto-built crowds (an
            :data:`~repro.crowd.worker.ACCURACY_BANDS` label or a
            ``(low, high)`` pair).
        pairs_per_hit / cents_per_hit: the pooled-billing pricing (the
            paper's §7.1 defaults).  Pricing and band are validated here,
            before anything else, with the checks
            :class:`~repro.crowd.platform.CrowdSession` and
            :class:`~repro.crowd.worker.WorkerPool` apply.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        config: PowerConfig | None = None,
        name: str = "stream",
        checkpoint_dir=None,
        crowd: SimulatedCrowd | None = None,
        worker_band: str | tuple[float, float] = "90",
        pairs_per_hit: int = 10,
        cents_per_hit: int = 10,
    ) -> None:
        check_pricing(pairs_per_hit, cents_per_hit)
        accuracy_band(worker_band)
        for attribute in attributes:
            if _LONE_SURROGATE.search(str(attribute)):
                raise DataError(
                    f"attribute name {attribute!r} holds a lone UTF-16 "
                    "surrogate, which a snapshot cannot store"
                )
        self.config = config or PowerConfig()
        self.table = Table(name=name, attributes=tuple(attributes))
        self._resolver = PowerResolver(self.config)
        # A per-attribute similarity tuple must fit the schema now, not
        # when the first batch has pairs to vectorize.
        self._resolver.similarity_config(self.table)
        self._join = PostingJoin(self.config.pruning_threshold)
        self.labels: dict[Pair, bool] = {}
        self.total_questions = 0
        self.total_iterations = 0
        self.total_cost_cents = 0
        self.batches = 0
        self.worker_band = worker_band
        self.pairs_per_hit = pairs_per_hit
        self.cents_per_hit = cents_per_hit
        self._crowd = crowd
        self.transcripts: dict[Pair, VoteOutcome] = {}
        self.reports: list[dict] = []
        self._rng = np.random.default_rng(self.config.seed)
        self._store: SnapshotStore | None = None
        self._header_written = False
        if checkpoint_dir is not None:
            store = SnapshotStore(checkpoint_dir)
            if store.exists():
                raise DataError(
                    f"{store.manifest_path} already holds a stream manifest; "
                    "resume it with StreamingResolver.restore() or point "
                    "checkpoint_dir at a fresh directory"
                )
            self._store = store

    # ------------------------------------------------------------------ #
    # Streaming API
    # ------------------------------------------------------------------ #

    def add_batch(
        self, rows: Sequence[Sequence[str]], entity_ids: Sequence[int] | None = None
    ) -> dict:
        """Ingest a batch of records and resolve the pairs they make.

        The rows join the table, the one-shot resolver's batch step runs
        over them on the stream's join, and a ``resolve.cluster`` region
        folds the answers into the clusters, all in a ``stream.batch``
        span.  A refused batch leaves the stream as it was: rows are
        checked (width, lone surrogates in values or string entity ids)
        before anything changes, and when the step refuses — a candidate
        pair without ground truth for the auto-built crowd, or outside a
        shared crowd's universe, found before anything is asked — the rows
        leave the table and the join again.

        Returns:
            A batch report dict: new candidate pairs, questions, iterations,
            the pairs asked, the candidate join's wall seconds
            (``join_seconds``, the ``resolve.join`` region's), the running
            cluster count, and a ``batch_token`` minted from the
            checkpointed RNG (so resume provably restores its state).
        """
        obs = obs_instrument.current()
        with obs.tracer.span(
            "stream.batch", batch=self.batches + 1, records=len(rows)
        ) as span:
            records = self._new_records(rows, entity_ids)
            first = len(self.table)
            self.table.records.extend(records)
            try:
                step = self._resolver.resolve_batch(self.table, self._session, join=self._join)
            except BaseException:
                del self.table.records[first:]
                self._join.truncate(first)
                raise
            session = step.session
            with stage(obs, "cluster"):
                if session is not None:
                    self.labels.update(step.selection.labels)
                clusters = len(self.clusters())
            report = {
                "batch": self.batches + 1,
                "new_records": len(records),
                "new_pairs": len(step.pairs),
                "questions": session.questions_asked if session else 0,
                "iterations": session.iterations if session else 0,
                "asked_pairs": sorted(session.asked_pairs) if session else [],
                "join_seconds": step.join_seconds,
                "clusters": clusters,
                "batch_token": format(int(self._rng.integers(1 << 62)), "016x"),
            }
            self.batches += 1
            self.total_questions += report["questions"]
            self.total_iterations += report["iterations"]
            self.total_cost_cents += session.cost_cents if session else 0
            span.set_attribute("pairs", report["new_pairs"])
            span.set_attribute("questions", report["questions"])
        obs_instrument.record_stream_batch(obs, report)
        self.reports.append(report)
        return report

    def _session(self, pairs: list[Pair], vectors) -> _RecordingSession:
        """The batch's crowd session, in the step's ``resolve.crowd`` region.

        The crowd is the shared one, which must answer every pair of the
        batch, or the one-shot resolver's simulated crowd over the
        records' entity ids.  Either way a missing answer is refused here,
        before anything is asked.
        """
        crowd = self._crowd
        if crowd is None:
            crowd = self._resolver.simulated_crowd(self.table, pairs, self.worker_band)
        else:
            crowd.canonical_batch(pairs)  # a pair it cannot answer raises CrowdError
        return _RecordingSession(
            crowd,
            self.transcripts,
            pairs_per_hit=self.pairs_per_hit,
            cents_per_hit=self.cents_per_hit,
        )

    def _new_records(
        self, rows: Sequence[Sequence[str]], entity_ids: Sequence[int] | None
    ) -> list[Record]:
        """The batch as the table's next records, or a :class:`DataError`."""
        if not rows:
            raise DataError("a batch must contain at least one record")
        if entity_ids is None:
            entity_ids = [None] * len(rows)
        elif len(entity_ids) != len(rows):
            raise DataError(f"{len(rows)} rows but {len(entity_ids)} entity ids")
        for offset, entity in enumerate(entity_ids):
            if isinstance(entity, str) and _LONE_SURROGATE.search(entity):
                raise DataError(
                    f"entity id {offset} of the batch holds a lone UTF-16 "
                    "surrogate, which a snapshot cannot store"
                )
        width, first = self.table.num_attributes, len(self.table)
        records = []
        for offset, (row, entity) in enumerate(zip(rows, entity_ids)):
            values = tuple(map(str, row))
            if len(values) != width:
                raise DataError(
                    f"record {offset} of the batch has {len(values)} values, "
                    f"expected {width}"
                )
            text = "".join(values)
            if not text.isascii() and _LONE_SURROGATE.search(text):
                raise DataError(
                    f"record {offset} of the batch holds a lone UTF-16 "
                    "surrogate, which a snapshot cannot store"
                )
            records.append(Record(first + offset, values, entity))
        return records

    # ------------------------------------------------------------------ #
    # Results
    # ------------------------------------------------------------------ #

    @property
    def matches(self) -> set[Pair]:
        return {pair for pair, same in self.labels.items() if same}

    def clusters(self) -> list[list[int]]:
        """Current entity clusters over every record seen so far."""
        return clusters_from_matches(len(self.table), self.matches)

    def quality(self) -> QualityReport:
        """Pairwise quality against the accumulated ground truth."""
        if not self.table.has_ground_truth():
            raise DataError("quality needs ground truth on every record")
        return entity_quality(self.matches, self.table)

    # ------------------------------------------------------------------ #
    # Pooled billing
    # ------------------------------------------------------------------ #

    @property
    def asked_pairs(self) -> frozenset[Pair]:
        """Every distinct pair the stream has paid for, across all batches."""
        return frozenset(self.transcripts)

    @property
    def assignments(self) -> int:
        return (
            self._crowd.assignments
            if self._crowd is not None
            else self.config.assignments
        )

    @property
    def hits(self) -> int:
        """Whole-stream pooled HITs, the :class:`CrowdSession` formula."""
        if not self.transcripts:
            return 0
        return (
            math.ceil(len(self.transcripts) / self.pairs_per_hit)
            * self.assignments
        )

    @property
    def cost_cents(self) -> int:
        """Pooled cost over the union of asked pairs (re-asks are free)."""
        return self.hits * self.cents_per_hit

    # ------------------------------------------------------------------ #
    # Checkpoint / restore
    # ------------------------------------------------------------------ #

    def _state_payload(self) -> dict[str, Any]:
        """The JSON-safe resolver state (timings stripped: they are the
        one nondeterministic field, and resume equality is on semantics)."""
        reports = []
        for report in self.reports:
            encoded = {
                key: value
                for key, value in report.items()
                if key != "join_seconds"
            }
            encoded["asked_pairs"] = [
                [int(a), int(b)] for a, b in report["asked_pairs"]
            ]
            reports.append(encoded)
        return {
            "version": SNAPSHOT_VERSION,
            "name": self.table.name,
            "attributes": list(self.table.attributes),
            "config": _encode_config(self.config),
            "worker_band": _encode_band(self.worker_band),
            "pairs_per_hit": self.pairs_per_hit,
            "cents_per_hit": self.cents_per_hit,
            **_RETIRED_STATE_FIELDS,
            "batches": self.batches,
            "total_questions": self.total_questions,
            "total_iterations": self.total_iterations,
            "total_cost_cents": self.total_cost_cents,
            "rows": [list(record.values) for record in self.table],
            "entity_ids": [record.entity_id for record in self.table],
            "labels": _encode_labels(self.labels),
            "transcripts": [
                [int(a), int(b), encode_outcome(outcome)]
                for (a, b), outcome in self.transcripts.items()
            ],
            "reports": reports,
            "rng_state": _encode_rng_state(self._rng.bit_generator.state),
        }

    def close(self) -> None:
        """Close the snapshot journal's file; a later checkpoint reopens it."""
        if self._store is not None:
            self._store.close()

    def checkpoint(self) -> dict[str, Any]:
        """Write one complete, recoverable snapshot; returns its record.

        Objects first, manifest line last — the ordering that makes a kill
        at any instant recoverable (see :mod:`repro.stream.snapshot`).
        """
        store = self._store
        if store is None:
            raise ConfigurationError(
                "checkpoint() needs a checkpoint_dir (or restore())"
            )
        obs = obs_instrument.current()
        with obs.tracer.span("stream.checkpoint", batch=self.batches):
            if not self._header_written:
                store.append_header(
                    {
                        "name": self.table.name,
                        "attributes": list(self.table.attributes),
                        "seed": self.config.seed,
                    }
                )
                self._header_written = True
            objects = {"state": store.put_json(self._state_payload())}
            index_spec = self._index_spec(self._texts(), store)
            record = {
                "batch": self.batches,
                "records": len(self.table),
                "questions": self.total_questions,
                "cost_cents": self.cost_cents,
                "objects": objects,
                "index": index_spec,
                "state_sha": hashlib.sha256(
                    canonical_json({"objects": objects, "index": index_spec})
                ).hexdigest(),
            }
            store.append_checkpoint(record)
        return record

    @classmethod
    def restore(
        cls,
        checkpoint_dir,
        crowd: SimulatedCrowd | None = None,
        repair: bool = True,
    ) -> "StreamingResolver":
        """Resume from the last complete checkpoint in *checkpoint_dir*.

        A torn manifest tail (kill mid-append) is truncated away first;
        the stream then continues from the last completed batch with every
        paid answer, the billing ledger, the RNG, and the candidate join
        exactly as the uninterrupted process would have them.  The join is
        rebuilt from the snapshot's rows without probing them (their pairs
        were decided before), and a snapshot whose stored index spec is
        not the one those rows derive is refused.
        """
        store = SnapshotStore(checkpoint_dir)
        _header, checkpoint = load_snapshot(store, repair=repair)
        state = store.get_json(checkpoint["objects"]["state"])
        try:
            config = _decode_config(state["config"])
        except TypeError as error:
            raise DataError(f"snapshot config does not decode: {error}") from None
        self = cls(
            state["attributes"],
            config=config,
            name=state["name"],
            crowd=crowd,
            worker_band=_decode_band(state["worker_band"]),
            pairs_per_hit=state["pairs_per_hit"],
            cents_per_hit=state["cents_per_hit"],
        )
        self._store = store
        self._header_written = True
        for values, entity_id in zip(state["rows"], state["entity_ids"]):
            self.table.append(tuple(values), entity_id=entity_id)
        self.labels = {
            (int(a), int(b)): bool(value) for a, b, value in state["labels"]
        }
        self.transcripts = {
            (int(a), int(b)): decode_outcome(outcome)
            for a, b, outcome in state["transcripts"]
        }
        self.batches = int(state["batches"])
        self.total_questions = int(state["total_questions"])
        self.total_iterations = int(state["total_iterations"])
        self.total_cost_cents = int(state["total_cost_cents"])
        self.reports = [
            {
                **report,
                "asked_pairs": [
                    (int(a), int(b)) for a, b in report["asked_pairs"]
                ],
            }
            for report in state["reports"]
        ]
        self._rng.bit_generator.state = _decode_rng_state(state["rng_state"])
        self._join.extend(record_tokens(self.table, self.config.join_tokens), probe=False)
        stored, derived = checkpoint.get("index") or {}, self._index_spec(self._texts()) or {}
        differ = sorted(
            key
            for key in stored.keys() | derived.keys()
            if stored.get(key) != derived.get(key)
        )
        if differ:
            raise DataError(
                f"snapshot index at {store.directory} is inconsistent with "
                f"its {len(self.table)} rows: {', '.join(differ)} differ"
            )
        return self

    def _texts(self) -> list[str]:
        return [self.table.record_text(row) for row in range(len(self.table))]

    def _index_spec(
        self, texts: list[str], store: SnapshotStore | None = None
    ) -> dict | None:
        """The token-index spec of the records' *texts* (``None`` before
        any record), written into *store* when one is given."""
        if not texts:
            return None
        return encode_index(self._join, texts, self.config.join_tokens, store)

    def summary(self) -> str:
        """The stream so far: records, decisions, per-batch and pooled cost."""
        lines = [
            f"records seen     : {len(self.table)} in {self.batches} batches",
            f"pairs decided    : {len(self.labels)}",
            f"questions asked  : {self.total_questions}",
            f"crowd iterations : {self.total_iterations}",
            f"cost             : ${self.total_cost_cents / 100:.2f}",
            f"clusters         : {len(self.clusters())}",
        ]
        if self.table.has_ground_truth():
            lines.append(f"quality          : {self.quality()}")
        lines.append(
            f"pooled cost      : ${self.cost_cents / 100:.2f} "
            f"({len(self.transcripts)} paid pairs)"
        )
        return "\n".join(lines)


def stream_in_batches(
    table: Table,
    batch_size: int,
    config: PowerConfig | None = None,
    worker_band: str | tuple[float, float] = "90",
) -> StreamingResolver:
    """Feed a labeled *table* through a :class:`StreamingResolver` in
    batches of *batch_size* records, for comparing streamed against
    one-shot resolution."""
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    resolver = StreamingResolver(
        table.attributes, config=config, name=table.name, worker_band=worker_band
    )
    for start in range(0, len(table), batch_size):
        records = table.records[start : start + batch_size]
        resolver.add_batch(
            [record.values for record in records],
            entity_ids=[record.entity_id for record in records],
        )
    return resolver


# --------------------------------------------------------------------------- #
# Codec helpers
# --------------------------------------------------------------------------- #


#: Config fields the snapshot schema keeps after the knob itself was
#: retired, pinned at the knob's old default.  Writing them keeps snapshot
#: bytes — and so every ``state_sha`` — unchanged, and lets snapshots
#: written before the retirement restore.  No retired knob changed what a
#: run computes, so a snapshot that recorded another value restores too.
_RETIRED_CONFIG_FIELDS = {
    "join_method": "auto",
    "use_batch_similarity": True,
    "use_incremental_selection": True,
    "reachability_index": "auto",
    "plan": "off",
    "shards": None,
    "shard_max_pairs": None,
    "shard_retries": 2,
}

#: State fields of the retired stream routing and token-index maintenance
#: knob, written at their old defaults for the same reason;
#: :meth:`StreamingResolver.restore` ignores them (each mode was
#: bit-identical, so no recorded value changes a result).
_RETIRED_STATE_FIELDS = {
    "shard_threshold": None,
    "shard_workers": 0,
    "index_mode": "extend",
}


def _encode_config(config: PowerConfig) -> dict[str, Any]:
    from dataclasses import asdict

    payload = {**asdict(config), **_RETIRED_CONFIG_FIELDS}
    if isinstance(payload["similarity"], tuple):
        payload["similarity"] = list(payload["similarity"])
    return payload


def _decode_config(payload: dict[str, Any]) -> PowerConfig:
    """The :class:`PowerConfig` an encoded config describes.

    Raises :class:`TypeError` for an unknown field or a value of the wrong
    type, and :class:`ConfigurationError` for a value out of range; a
    restore reports the first as a :class:`DataError` about the snapshot,
    and a server as a ``bad_request`` about the request.
    """
    decoded = {
        key: value
        for key, value in payload.items()
        if key not in _RETIRED_CONFIG_FIELDS
    }
    if isinstance(decoded.get("similarity"), list):
        decoded["similarity"] = tuple(decoded["similarity"])
    return PowerConfig(**decoded)


def _encode_labels(labels: dict[Pair, bool]) -> list[list]:
    """``[[a, b, same], ...]`` in pair order, ordered by one integer
    ``np.lexsort`` over the pair keys.  It must equal the encoding of
    ``sorted(labels.items())`` exactly: snapshot bytes, and so every
    ``state_sha``, depend on it."""
    count = len(labels)
    keys = np.fromiter(
        itertools.chain.from_iterable(labels), dtype=np.int64, count=2 * count
    ).reshape(count, 2)
    order = np.lexsort((keys[:, 1], keys[:, 0]))
    same = np.fromiter(labels.values(), dtype=bool, count=count)[order]
    first, second = keys[order].T
    return list(map(list, zip(first.tolist(), second.tolist(), same.tolist())))


def _encode_band(band):
    return list(band) if isinstance(band, tuple) else band


def _decode_band(band):
    return tuple(band) if isinstance(band, list) else band


def _encode_rng_state(state: dict) -> dict:
    # PCG64 state is a nested dict of (big) ints and strings; JSON keeps
    # Python ints exact at any width, so the round trip is lossless.
    return {
        "bit_generator": state["bit_generator"],
        "state": {key: int(value) for key, value in state["state"].items()},
        "has_uint32": int(state["has_uint32"]),
        "uinteger": int(state["uinteger"]),
    }


def _decode_rng_state(payload: dict) -> dict:
    return {
        "bit_generator": payload["bit_generator"],
        "state": {key: int(value) for key, value in payload["state"].items()},
        "has_uint32": int(payload["has_uint32"]),
        "uinteger": int(payload["uinteger"]),
    }


__all__ = ["StreamingResolver", "stream_in_batches"]
