"""The end-to-end Power/Power+ pipeline (the paper's full system).

:class:`PowerResolver` chains every stage the paper describes:

1. **Prune** — record-level similarity join keeps the candidate pairs
   (§7.1's pruning step).
2. **Vectorise** — per-attribute similarity vectors (§3.1).
3. **Group** — optional ε-grouping to shrink the graph (§4.2).
4. **Select & ask** — a question-selection algorithm colors the graph
   through a (simulated) crowd session (§5).
5. **Tolerate errors** — Power+ settles low-confidence answers with the
   histogram step (§6).
6. **Cluster** — matched pairs become entity clusters, and quality is
   scored when ground truth is available.

Stages 1–5 are one batch step, :meth:`PowerResolver.resolve_batch`, each
in a ``resolve.<stage>`` region (:func:`stage`; crowd set-up is the
``crowd`` region).  :meth:`PowerResolver.resolve` runs it over a fresh
join, a :class:`~repro.stream.StreamingResolver` over the join it resumes
batch after batch; either caller then closes a ``resolve.cluster`` region.

Example:
    >>> from repro import PowerResolver, PowerConfig, restaurant
    >>> result = PowerResolver(PowerConfig(seed=1)).resolve(restaurant())
    >>> result.quality.f_measure > 0.8
    True
"""

from __future__ import annotations

from collections.abc import Callable
from dataclasses import dataclass, field
from typing import TYPE_CHECKING, NamedTuple

import numpy as np

from ..crowd.platform import CrowdSession, SimulatedCrowd

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.runtime import CrowdEngine
from ..crowd.worker import WorkerPool
from ..data.ground_truth import Pair
from ..data.table import Table
from ..exceptions import ConfigurationError, DataError
from ..graph.dag import OrderedGraph
from ..graph.grouped_graph import build_graph
from ..obs import instrument as obs_instrument
from ..selection import SELECTORS
from ..selection.base import SelectionResult
from ..similarity.batch import PostingJoin, batch_similarity_matrix
from ..similarity.join import record_tokens
from ..similarity.vectors import SimilarityConfig
from .clustering import clusters_from_matches
from .config import PowerConfig
from .metrics import QualityReport, entity_quality

# benchmarks/e2e/tracing.py wraps this module's ``pairwise_quality`` by name.
from .metrics import pairwise_quality  # noqa: F401


@dataclass
class ResolutionResult:
    """Everything produced by one end-to-end resolution run.

    Attributes:
        table_name: which dataset was resolved.
        candidate_pairs: pairs that survived pruning.
        selection: the selector's run report (questions, iterations, ...).
        matches: pairs decided to refer to the same entity.
        clusters: the induced entity clusters (connected components).
        quality: pairwise P/R/F against ground truth (None if unavailable).
    """

    table_name: str
    candidate_pairs: list[Pair]
    selection: SelectionResult
    matches: set[Pair] = field(default_factory=set)
    clusters: list[list[int]] = field(default_factory=list)
    quality: QualityReport | None = None

    @property
    def questions(self) -> int:
        return self.selection.questions

    @property
    def iterations(self) -> int:
        return self.selection.iterations

    @property
    def cost_cents(self) -> int:
        return self.selection.cost_cents

    def summary(self) -> str:
        """A human-readable report of the run, for logs and notebooks."""
        duplicate_clusters = sum(1 for cluster in self.clusters if len(cluster) > 1)
        lines = [
            f"dataset          : {self.table_name}",
            f"candidate pairs  : {len(self.candidate_pairs)}",
            f"selector         : {self.selection.name}",
            f"questions asked  : {self.questions}",
            f"crowd iterations : {self.iterations}",
            f"cost             : ${self.cost_cents / 100:.2f}",
            f"clusters         : {len(self.clusters)} "
            f"({duplicate_clusters} with duplicates)",
        ]
        if self.quality is not None:
            lines.append(f"quality          : {self.quality}")
        return "\n".join(lines)


def stage(obs: obs_instrument.Observability, name: str, **attributes) -> obs_instrument.timed:
    """The ``resolve.<name>`` region of one pipeline stage, observed into
    ``repro_pipeline_stage_seconds{stage=<name>}``."""
    histogram = ("repro_pipeline_stage_seconds", {"stage": name})
    return obs_instrument.timed(obs, f"resolve.{name}", histogram, **attributes)


class BatchStep(NamedTuple):
    """What :meth:`PowerResolver.resolve_batch` did for one batch.

    ``session`` and ``selection`` are ``None`` when the batch made no
    candidate pair; ``join_seconds`` is its ``resolve.join`` region's.
    """

    pairs: list[Pair]
    session: CrowdSession | None
    selection: SelectionResult | None
    join_seconds: float


class PowerResolver:
    """The partial-order crowdsourced entity-resolution system.

    Args:
        config: pipeline configuration; defaults to the paper's setup
            (bigram similarity, split grouping with ε=0.1, topological
            question selection, error tolerance on).
    """

    def __init__(self, config: PowerConfig | None = None) -> None:
        self.config = config or PowerConfig()

    # ------------------------------------------------------------------ #
    # Pipeline stages (each usable on its own)
    # ------------------------------------------------------------------ #

    def candidate_pairs(self, table: Table, join: PostingJoin | None = None) -> list[Pair]:
        """Stage 1: record-level similarity pruning (§7.1).

        The pairs, sorted, that the records of *table* which *join* has not
        indexed yet make with every record before them; *join* indexes
        them as it goes.  Without a join, a fresh one joins the whole table.
        """
        if join is None:
            join = PostingJoin(self.config.pruning_threshold)
        return join.extend(record_tokens(table, self.config.join_tokens, first=len(join)))

    def similarity_config(self, table: Table) -> SimilarityConfig:
        similarity = self.config.similarity
        if isinstance(similarity, str):
            return SimilarityConfig.uniform(
                table.num_attributes,
                function=similarity,
                attribute_threshold=self.config.attribute_threshold,
            )
        return SimilarityConfig(
            functions=tuple(similarity),
            attribute_threshold=self.config.attribute_threshold,
        ).for_table(table)

    def similarity_vectors(self, table: Table, pairs: list[Pair]):
        """Stage 2: per-attribute similarity vectors for *pairs*.

        Computed by the vectorized batch substrate, which is bit-identical to
        the scalar reference :func:`~repro.similarity.vectors.similarity_matrix`
        (the battery's ``batch-similarity`` step checks it).
        """
        return batch_similarity_matrix(table, pairs, self.similarity_config(table))

    def build_graph(
        self, table: Table, pairs: list[Pair], vectors=None
    ) -> OrderedGraph:
        """Stages 2-3: similarity vectors and the (grouped) graph.

        Args:
            vectors: precomputed output of :meth:`similarity_vectors`;
                computed on demand when omitted.
        """
        if vectors is None:
            vectors = self.similarity_vectors(table, pairs)
        return build_graph(
            pairs,
            vectors,
            epsilon=self.config.epsilon,
            grouping_algorithm=self.config.grouping_algorithm,
        )

    def make_selector(self):
        return SELECTORS[self.config.selector](
            error_policy=self.config.error_policy(),
            seed=self.config.seed,
        )

    def simulated_crowd(
        self, table: Table, pairs: list[Pair], worker_band: str | tuple[float, float] = "90"
    ) -> SimulatedCrowd:
        """A simulated crowd over *pairs*, answering from the entity ids of
        their records; a pair whose records lack one raises
        :class:`DataError`."""
        entity = [record.entity_id for record in table]
        if None in entity and any(entity[a] is None or entity[b] is None for a, b in pairs):
            raise DataError(
                f"table {table.name!r} has no ground truth for some candidate "
                "pairs; pass a crowd backed by real answers instead"
            )
        return SimulatedCrowd(
            {pair: entity[pair[0]] == entity[pair[1]] for pair in pairs},
            pool=WorkerPool(accuracy_range=worker_band, seed=self.config.seed),
            assignments=self.config.assignments,
        )

    def resolve_batch(
        self,
        table: Table,
        open_session: Callable[[list[Pair], np.ndarray], CrowdSession],
        join: PostingJoin | None = None,
        budget: int | None = None,
    ) -> BatchStep:
        """Stages 1–5 over the records of *table* that *join* has not indexed.

        Probes them (*join* indexes them; a fresh join, the default, is one
        over the whole table), vectorizes the pairs they make, builds the
        graph, opens the crowd session with ``open_session(pairs, vectors)``
        and runs the selector, each in its own :func:`stage` region.  A
        batch without candidate pairs stops after the join.
        """
        obs = obs_instrument.current()
        with stage(obs, "join") as join_region:
            pairs = self.candidate_pairs(table, join)
        if not pairs:
            return BatchStep(pairs, None, None, join_region.seconds)
        with stage(obs, "vectorize", pairs=len(pairs)):
            vectors = self.similarity_vectors(table, pairs)
        with stage(obs, "construct") as construct_span:
            graph = self.build_graph(table, pairs, vectors=vectors)
            construct_span.set_attribute("vertices", len(graph))
        with stage(obs, "crowd"):
            session = open_session(pairs, vectors)
        with stage(obs, "select"):
            selection = self.make_selector().run(graph, session, budget=budget)
        return BatchStep(pairs, session, selection, join_region.seconds)

    # ------------------------------------------------------------------ #
    # End to end
    # ------------------------------------------------------------------ #

    def resolve(
        self,
        table: Table,
        session: CrowdSession | None = None,
        worker_band: str | tuple[float, float] = "90",
        engine: "CrowdEngine | None" = None,
        budget: int | None = None,
    ) -> ResolutionResult:
        """Run the full pipeline on *table*.

        Args:
            table: records to resolve.
            session: a crowd session to ask; when omitted, a simulated crowd
                is built from the table's ground truth.
            worker_band: accuracy band for the auto-built simulated crowd
                (ignored when *session* is given).
            engine: a :class:`repro.engine.CrowdEngine`; when given (and no
                explicit *session*), selection rounds are posted through the
                engine's event-driven platform — faults, retries, budget
                guardrails, journaling and simulated wall clock included.
                With a fault-free profile and no budget caps this path is
                byte-identical to the synchronous one.
            budget: optional cap on distinct crowd questions, handed to
                :meth:`~repro.selection.base.QuestionSelector.run`.
        """
        if engine is not None and session is not None:
            raise ConfigurationError(
                "pass either an explicit session or an engine, not both "
                "(build the session via engine.session(...) yourself instead)"
            )
        obs = obs_instrument.current()

        def open_session(pairs: list[Pair], vectors: np.ndarray) -> CrowdSession:
            if session is not None:
                return session
            crowd = self.simulated_crowd(table, pairs, worker_band)
            if engine is None:
                return crowd.session()
            scores = vectors.mean(axis=1)
            return engine.session(
                crowd,
                machine_scores={pair: float(score) for pair, score in zip(pairs, scores)},
            )

        with obs.tracer.span(
            "resolve", dataset=table.name, selector=self.config.selector
        ) as resolve_span:
            step = self.resolve_batch(table, open_session, budget=budget)
            pairs, selection = step.pairs, step.selection
            if not pairs:
                raise DataError(
                    f"no candidate pairs survive pruning at threshold "
                    f"{self.config.pruning_threshold} on table {table.name!r}"
                )
            if engine is not None:
                engine.finalize(step.session)
                selection.extras["telemetry"] = engine.telemetry.as_dict()
                selection.extras["wall_clock_seconds"] = engine.wall_clock_seconds
                selection.extras["batch_sizes"] = list(step.session.batch_sizes)
            with stage(obs, "cluster"):
                matches = selection.matches
                clusters = clusters_from_matches(len(table), matches)
                quality = None
                if table.has_ground_truth():
                    quality = entity_quality(matches, table)
            if obs.metrics:
                registry = obs.registry
                registry.counter(
                    "repro_resolve_runs_total",
                    "end-to-end resolution runs",
                    dataset=table.name,
                ).inc()
                registry.gauge(
                    "repro_resolve_candidate_pairs",
                    "pairs surviving the pruning join in the last run",
                    dataset=table.name,
                ).set(len(pairs))
                registry.gauge(
                    "repro_resolve_questions",
                    "crowd questions asked in the last run",
                    dataset=table.name,
                ).set(selection.questions)
                registry.gauge(
                    "repro_resolve_cost_cents",
                    "crowd cost of the last run",
                    dataset=table.name,
                ).set(selection.cost_cents)
            resolve_span.set_attribute("questions", selection.questions)
            resolve_span.set_attribute("clusters", len(clusters))
        return ResolutionResult(
            table_name=table.name,
            candidate_pairs=pairs,
            selection=selection,
            matches=matches,
            clusters=clusters,
            quality=quality,
        )
