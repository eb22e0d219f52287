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

Example:
    >>> from repro import PowerResolver, PowerConfig, restaurant
    >>> result = PowerResolver(PowerConfig(seed=1)).resolve(restaurant())
    >>> result.quality.f_measure > 0.8
    True
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..crowd.platform import CrowdSession, SimulatedCrowd

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.runtime import CrowdEngine
from ..crowd.worker import WorkerPool
from ..data.ground_truth import Pair, pair_truth
from ..data.table import Table
from ..exceptions import ConfigurationError, DataError
from ..graph.dag import OrderedGraph
from ..graph.grouped_graph import build_graph
from ..obs import instrument as obs_instrument
from ..selection import SELECTORS
from ..selection.base import SelectionResult
from ..similarity.batch import batch_similarity_matrix
from ..similarity.join import similar_pairs
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

    def candidate_pairs(self, table: Table) -> list[Pair]:
        """Stage 1: record-level similarity pruning (§7.1)."""
        return similar_pairs(
            table,
            self.config.pruning_threshold,
            tokens=self.config.join_tokens,
        )

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
        try:
            selector_class = SELECTORS[self.config.selector]
        except KeyError:
            known = ", ".join(sorted(SELECTORS))
            raise ConfigurationError(
                f"unknown selector {self.config.selector!r}; known: {known}"
            ) from None
        return selector_class(
            error_policy=self.config.error_policy(),
            seed=self.config.seed,
        )

    def simulated_crowd(
        self, table: Table, pairs: list[Pair], worker_band: str | tuple[float, float] = "90"
    ) -> SimulatedCrowd:
        """Build a simulated crowd from the table's ground truth."""
        if not table.has_ground_truth():
            raise DataError(
                f"table {table.name!r} has no ground truth; pass a crowd session "
                "backed by real answers instead"
            )
        return SimulatedCrowd(
            pair_truth(table, pairs),
            pool=WorkerPool(accuracy_range=worker_band, seed=self.config.seed),
            assignments=self.config.assignments,
        )

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
        tracer = obs.tracer

        def stage(name: str, **attributes):
            histogram = ("repro_pipeline_stage_seconds", {"stage": name, "dataset": table.name})
            return obs_instrument.timed(obs, f"resolve.{name}", histogram, **attributes)

        with tracer.span(
            "resolve", dataset=table.name, selector=self.config.selector
        ) as resolve_span:
            with stage("join"):
                pairs = self.candidate_pairs(table)
            if not pairs:
                raise DataError(
                    f"no candidate pairs survive pruning at threshold "
                    f"{self.config.pruning_threshold} on table {table.name!r}"
                )
            with stage("vectorize", pairs=len(pairs)):
                vectors = self.similarity_vectors(table, pairs)
            with stage("construct") as construct_span:
                graph = self.build_graph(table, pairs, vectors=vectors)
                construct_span.set_attribute("vertices", len(graph))
            if session is None:
                crowd = self.simulated_crowd(table, pairs, worker_band)
                if engine is not None:
                    scores = vectors.mean(axis=1)
                    session = engine.session(
                        crowd,
                        machine_scores={
                            pair: float(score) for pair, score in zip(pairs, scores)
                        },
                    )
                else:
                    session = crowd.session()
            with stage("select"):
                selection = self.make_selector().run(graph, session, budget=budget)
            if engine is not None:
                engine.finalize(session)
                selection.extras["telemetry"] = engine.telemetry.as_dict()
                selection.extras["wall_clock_seconds"] = engine.wall_clock_seconds
                selection.extras["batch_sizes"] = list(session.batch_sizes)
            with stage("cluster"):
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
