"""Incremental (streaming) entity resolution on top of Power.

An extension beyond the paper: records often arrive over time, and
re-resolving the whole table on every arrival wastes both computation and
crowd money.  :class:`IncrementalResolver` keeps the resolved state —
clusters plus every pair decision already paid for — and, per batch of new
records, builds a partial-order graph over *only the new candidate pairs*
(new×old and new×new), asks the crowd through the configured selector, and
folds the answers into the clustering.

Candidate generation is the one-shot pruning join, resumed: the resolver
holds one :class:`~repro.similarity.batch.PostingJoin` and extends it with
each batch's token sets, which probes only the new records against the
posting lists of every earlier one.  A stream's batches therefore find
exactly the pairs the one-shot join finds over the same records.
Per-batch similarity vectors likewise flow through
:func:`~repro.similarity.batch.batch_similarity_matrix`, exactly like the
one-shot resolver.

What carries over from the paper unchanged: the similarity vectors, the
grouping, the selector, and the error tolerance all operate per batch; the
cost advantage compounds because the old×old pairs are never revisited.
"""

from __future__ import annotations

import re
from collections.abc import Sequence

import numpy as np

from ..crowd.platform import SimulatedCrowd
from ..crowd.worker import WorkerPool
from ..data.ground_truth import Pair
from ..data.table import Table
from ..exceptions import ConfigurationError, DataError
from ..graph.grouped_graph import build_graph
from ..obs import instrument as obs_instrument
from ..similarity.batch import PostingJoin
from ..similarity.tokenize import qgram_tokens, word_tokens
from .clustering import clusters_from_matches
from .config import PowerConfig
from .metrics import QualityReport, entity_quality
from .resolver import PowerResolver


#: Lone UTF-16 surrogates: a Python ``str`` can hold one (a JSON ``"\ud800"``
#: escape decodes to it), but UTF-8 cannot encode it, so neither can a
#: snapshot.  Record values, attribute names and string entity ids are all
#: refused with one.
_LONE_SURROGATE = re.compile("[\ud800-\udfff]")


class IncrementalResolver:
    """Streaming entity resolution with persistent state.

    Args:
        attributes: the schema of the incoming records.
        config: pipeline configuration (same knobs as
            :class:`~repro.core.resolver.PowerResolver`).
        name: dataset name stored on the internal table.
    """

    def __init__(
        self,
        attributes: Sequence[str],
        config: PowerConfig | None = None,
        name: str = "stream",
    ) -> None:
        for attribute in attributes:
            if _LONE_SURROGATE.search(str(attribute)):
                raise DataError(
                    f"attribute name {attribute!r} holds a lone UTF-16 "
                    "surrogate, which a snapshot cannot store"
                )
        self.config = config or PowerConfig()
        self.table = Table(name=name, attributes=tuple(attributes))
        self._resolver = PowerResolver(self.config)
        self._join = PostingJoin(self.config.pruning_threshold)
        self.labels: dict[Pair, bool] = {}
        self.total_questions = 0
        self.total_iterations = 0
        self.total_cost_cents = 0
        self.batches = 0

    def _token_sets(self, texts: Sequence[str]) -> list[frozenset[str]]:
        """The join's token sets of record *texts* (per ``join_tokens``)."""
        tokenize = qgram_tokens if self.config.join_tokens == "qgram" else word_tokens
        return [tokenize(text) for text in texts]

    # ------------------------------------------------------------------ #
    # Streaming API
    # ------------------------------------------------------------------ #

    def add_batch(
        self,
        rows: Sequence[Sequence[str]],
        entity_ids: Sequence[int] | None = None,
        session=None,
        worker_band: str | tuple[float, float] = "90",
    ) -> dict:
        """Ingest a batch of records and resolve their pairs.

        A refused batch leaves the resolver exactly as it was: the checks
        of row shape and lone surrogates (in values or string entity ids)
        run before anything changes, and when an auto-built crowd lacks
        ground truth for a new pair, the join forgets the batch again
        before the table changes.

        Args:
            rows: new records' attribute values.
            entity_ids: ground truth for the new records (needed when no
                *session* is given, to build the simulated crowd).
            session: a crowd session covering the batch's candidate pairs;
                auto-built from ground truth when omitted.
            worker_band: accuracy band for the auto-built crowd.

        Returns:
            A batch report dict: new candidate pairs, questions, iterations,
            the candidate join's wall seconds (``join_seconds``, the
            ``stream.join`` region's), and the running cluster count.
        """
        values = self._checked_rows(rows, entity_ids)
        entities = (
            list(entity_ids) if entity_ids is not None else [None] * len(values)
        )
        first = len(self.table)
        histogram = ("repro_pipeline_stage_seconds", {"stage": "stream.join"})
        with obs_instrument.timed(obs_instrument.current(), "stream.join", histogram) as join:
            pairs = self._join.extend(self._token_sets([" ".join(row) for row in values]))
        if pairs and session is None:
            try:
                session = self._auto_session(pairs, worker_band, entities)
            except BaseException:
                self._join.truncate(first)
                raise
        # Nothing below refuses the batch: commit it.
        for row, entity in zip(values, entities):
            self.table.append(row, entity_id=entity)
        report = {
            "batch": self.batches + 1,
            "new_records": len(values),
            "new_pairs": len(pairs),
            "questions": 0,
            "iterations": 0,
            "asked_pairs": [],
            "join_seconds": join.seconds,
        }
        if pairs:
            vectors = self._batch_vectors(pairs)
            graph = build_graph(
                pairs,
                vectors,
                epsilon=self.config.epsilon,
                grouping_algorithm=self.config.grouping_algorithm,
            )
            # Deltas, not totals: a long-lived session carries its asked set
            # and pooled bill across batches, so per-batch numbers are the
            # difference the batch made, and the accumulated totals equal
            # the session's own ledger.
            asked_before = session.asked_pairs
            iterations_before = session.iterations
            cost_before = session.cost_cents
            selector = self._resolver.make_selector()
            result = selector.run(graph, session)
            batch_asked = sorted(session.asked_pairs - asked_before)
            self.labels.update(result.labels)
            self.total_questions += len(batch_asked)
            self.total_iterations += session.iterations - iterations_before
            self.total_cost_cents += session.cost_cents - cost_before
            report["questions"] = len(batch_asked)
            report["iterations"] = session.iterations - iterations_before
            report["asked_pairs"] = batch_asked
        self.batches += 1
        report["clusters"] = len(self.clusters())
        return report

    def _checked_rows(
        self, rows: Sequence[Sequence[str]], entity_ids: Sequence[int] | None
    ) -> list[tuple[str, ...]]:
        """The batch's records as value tuples, or a :class:`DataError`."""
        if not rows:
            raise DataError("a batch must contain at least one record")
        if entity_ids is not None:
            if len(entity_ids) != len(rows):
                raise DataError(
                    f"{len(rows)} rows but {len(entity_ids)} entity ids"
                )
            for offset, entity in enumerate(entity_ids):
                if isinstance(entity, str) and _LONE_SURROGATE.search(entity):
                    raise DataError(
                        f"entity id {offset} of the batch holds a lone UTF-16 "
                        "surrogate, which a snapshot cannot store"
                    )
        width = self.table.num_attributes
        values = []
        for offset, row in enumerate(rows):
            record = tuple(str(value) for value in row)
            if len(record) != width:
                raise DataError(
                    f"record {offset} of the batch has {len(record)} values, "
                    f"expected {width}"
                )
            if _LONE_SURROGATE.search("".join(record)):
                raise DataError(
                    f"record {offset} of the batch holds a lone UTF-16 "
                    "surrogate, which a snapshot cannot store"
                )
            values.append(record)
        return values

    def _batch_vectors(self, pairs: Sequence[Pair]) -> np.ndarray:
        """Similarity vectors for one batch's candidate pairs.

        Computed by ``batch_similarity_matrix``, like the one-shot
        resolver.  A method of its own so tests can swap in the scalar
        reference path.
        """
        return self._resolver.similarity_vectors(self.table, pairs)

    def _auto_session(
        self,
        pairs: Sequence[Pair],
        worker_band,
        entities: Sequence[int | None],
    ):
        """A fresh simulated-crowd session over the batch's ground truth.

        Runs before the batch commits, so the new records' entity ids come
        in as *entities* rather than from the table.
        """
        entity = [record.entity_id for record in self.table] + list(entities)
        if any(entity[i] is None for pair in pairs for i in pair):
            raise ConfigurationError(
                "no session given and the batch lacks ground truth; "
                "provide a crowd session"
            )
        crowd = SimulatedCrowd(
            {(a, b): entity[a] == entity[b] for a, b in pairs},
            pool=WorkerPool(
                accuracy_range=worker_band, seed=self.config.seed
            ),
            assignments=self.config.assignments,
        )
        return crowd.session()

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

    def summary(self) -> str:
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
        return "\n".join(lines)


def stream_in_batches(
    table: Table,
    batch_size: int,
    config: PowerConfig | None = None,
    worker_band: str | tuple[float, float] = "90",
) -> IncrementalResolver:
    """Convenience: feed an existing labeled table through the streaming API.

    Useful for experiments comparing one-shot and incremental resolution.
    """
    if batch_size < 1:
        raise ConfigurationError(f"batch_size must be >= 1, got {batch_size}")
    resolver = IncrementalResolver(table.attributes, config=config, name=table.name)
    for start in range(0, len(table), batch_size):
        records = table.records[start : start + batch_size]
        resolver.add_batch(
            [record.values for record in records],
            entity_ids=[record.entity_id for record in records],
            worker_band=worker_band,
        )
    return resolver
