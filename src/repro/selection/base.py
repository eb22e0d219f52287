"""Question-selection framework (paper §5).

A :class:`QuestionSelector` decides *which* uncolored vertices to ask next;
the shared :meth:`QuestionSelector.run` loop asks them through a
:class:`~repro.crowd.platform.CrowdSession`, feeds the answers to the
coloring engine, and keeps going until every vertex is colored.  Each call
to :meth:`QuestionSelector.select` is one *iteration* — the paper's latency
unit — and the time spent inside ``select`` is the "assignment time" of
Fig. 30: the sum of the run's ``selection.cover`` regions, read from the
tracer's clock like every other span (:class:`repro.obs.instrument.timed`).

Selectors are written against :class:`~repro.graph.dag.OrderedGraph`, so
the same code serves grouped and non-grouped graphs, and read its one
dominance relation, ``graph.reachability``: the run's first read builds the
packed reachability index inside a ``selection.build_reachability`` span,
and the path-cover selectors take their engine from it
(``relation.path_cover()``).
"""

from __future__ import annotations

from abc import ABC, abstractmethod
from dataclasses import dataclass, field

import numpy as np

from ..crowd.platform import CrowdSession
from ..data.ground_truth import Pair
from ..exceptions import SelectionError
from ..graph.coloring import ColoringState
from ..graph.dag import OrderedGraph
from ..graph.reachability import ReachabilityIndex
from ..obs import instrument as obs_instrument
from .error_tolerant import (
    ErrorPolicy,
    resolve_blue_pairs,
    resolve_undecided_vertices,
)


@dataclass
class SelectionResult:
    """Everything an experiment needs from one selector run.

    Attributes:
        name: selector name (``"single-path"``, ``"power"``, ...).
        labels: final match decision per record pair.
        questions: distinct pairs sent to the crowd.
        iterations: crowd round trips (the latency proxy).
        assignment_time: seconds spent choosing questions (Fig. 30 metric):
            the sum of the run's ``selection.cover`` regions.
        state: the final coloring, for inspection (None for baselines that
            do not use the partial-order graph).
        cost_cents: monetary cost under the session's HIT pricing.
        extras: counts for telemetry; a selector run's ``"selection"``
            entry holds ``rounds``, ``incremental`` (whether the graph's
            relation was the reachability index) and, for the path-cover
            selectors, their engine's ``engine`` counts.  Per-round times
            are spans.
    """

    name: str
    labels: dict[Pair, bool]
    questions: int
    iterations: int
    assignment_time: float
    state: ColoringState | None
    cost_cents: int = 0
    extras: dict = field(default_factory=dict)

    @property
    def matches(self) -> set[Pair]:
        """Pairs the run declared to refer to the same entity."""
        return {pair for pair, same in self.labels.items() if same}


class QuestionSelector(ABC):
    """Base class: the ask/color loop shared by every selection strategy.

    Args:
        error_policy: when given, runs in the paper's Power+ mode — answers
            below the confidence threshold color the vertex BLUE (no
            inference), and BLUE pairs are settled by the §6 histogram step
            after the loop.
        seed: seed for tie-breaking randomness (representative pairs,
            random selection).

    ``run`` reads the graph's relation up front, inside a
    ``selection.build_reachability`` span: that first read builds the
    packed-bitset reachability index, from which color propagation, the
    Kahn layers and, for the path-cover selectors, the warm-start path
    cover all read.  ``repro.verify`` hands some graphs a reference
    relation with the same read interface instead; the loop runs it
    unchanged, to the same questions in the same order and the same
    coloring.
    """

    name: str = "selector"

    def __init__(
        self,
        error_policy: ErrorPolicy | None = None,
        seed: int = 0,
    ) -> None:
        self.error_policy = error_policy
        self.seed = seed

    @abstractmethod
    def select(
        self, graph: OrderedGraph, state: ColoringState, rng: np.random.Generator
    ) -> list[int]:
        """Choose the uncolored vertices to ask in this iteration."""

    def reset(self) -> None:
        """Clear any per-run internal state; called at the top of ``run``."""

    def _selection_stats(self) -> dict | None:
        """Per-run engine counters for telemetry (selector-specific)."""
        return None

    def run(
        self,
        graph: OrderedGraph,
        session: CrowdSession,
        budget: int | None = None,
    ) -> SelectionResult:
        """Color the whole graph, asking the crowd through *session*.

        Args:
            graph: the (grouped) partial-order graph.
            session: the crowd ledger for this run.
            budget: optional cap on questions.  When it runs out before the
                graph is fully colored, the remaining vertices are settled
                with the §6 histogram over whatever was colored so far —
                turning the selector into an anytime algorithm with an
                explicit cost/quality dial.
        """
        if budget is not None and budget < 0:
            raise SelectionError(f"budget must be >= 0, got {budget}")
        obs = obs_instrument.current()
        tracer = obs.tracer
        self.reset()
        with tracer.span("selection.build_reachability", selector=self.name):
            relation = graph.reachability
        rng = np.random.default_rng(self.seed)
        state = ColoringState(graph)
        assignment_time = 0.0
        rounds = 0
        guard = 0
        threshold = self.error_policy.confidence_threshold if self.error_policy else None
        cover_histogram = ("repro_selection_cover_seconds", {"selector": self.name})
        propagate_histogram = ("repro_selection_propagate_seconds", {"selector": self.name})
        with tracer.span(
            "selection.run", selector=self.name, vertices=len(graph)
        ) as run_span:
            while not state.is_complete():
                remaining = (
                    None if budget is None else budget - session.questions_asked
                )
                if remaining is not None and remaining <= 0:
                    break
                guard += 1
                if guard > 10 * len(graph) + 10:
                    raise SelectionError(
                        f"{self.name}: no progress after {guard} iterations"
                    )
                with tracer.span("selection.round", round=rounds) as round_span:
                    colored_before = len(state.uncolored())
                    with obs_instrument.timed(obs, "selection.cover", cover_histogram) as cover:
                        vertices = self.select(graph, state, rng)
                    assignment_time += cover.seconds
                    vertices = [v for v in vertices if state.colors[v] == 0]
                    if not vertices:
                        raise SelectionError(
                            f"{self.name}: selected no uncolored vertices while "
                            f"{len(state.uncolored())} remain"
                        )
                    if remaining is not None:
                        vertices = vertices[:remaining]
                    vertices = obs_instrument.observe_round(
                        obs, self.name, rounds, vertices
                    )
                    pairs = [graph.representative_pair(v, rng) for v in vertices]
                    # ``new`` counts the distinct pairs this round pays for.
                    with tracer.span("selection.ask", asked=len(pairs)) as ask:
                        before = session.questions_asked
                        outcomes = session.ask_batch(pairs)
                        ask.set_attribute("new", session.questions_asked - before)
                    # Power+: an answer below the confidence threshold is BLUE.
                    answers = [
                        None
                        if threshold is not None and outcomes[pair].confidence < threshold
                        else bool(outcomes[pair].answer)
                        for pair in pairs
                    ]
                    with obs_instrument.timed(
                        obs, "selection.propagate", propagate_histogram
                    ):
                        state.apply_round(vertices, answers)
                    round_span.set_attribute("asked", len(vertices))
                    round_span.set_attribute(
                        "colored", colored_before - len(state.uncolored())
                    )
                rounds += 1
            with tracer.span("selection.settle"):
                labels = state.pair_labels()
                fallback_policy = self.error_policy or ErrorPolicy()
                if self.error_policy is not None:
                    labels.update(
                        resolve_blue_pairs(graph, state, self.error_policy)
                    )
                uncolored = state.uncolored()
                if uncolored.size:
                    labels.update(
                        resolve_undecided_vertices(
                            graph, state, uncolored, fallback_policy
                        )
                    )
            run_span.set_attribute("rounds", rounds)
            run_span.set_attribute("questions", session.questions_asked)
        telemetry = {
            "rounds": rounds,
            "incremental": isinstance(relation, ReachabilityIndex),
        }
        engine_stats = self._selection_stats()
        if engine_stats is not None:
            telemetry["engine"] = engine_stats
        obs_instrument.record_selection_metrics(obs, self.name, telemetry)
        return SelectionResult(
            name=self.name,
            labels=labels,
            questions=session.questions_asked,
            iterations=session.iterations,
            assignment_time=assignment_time,
            state=state,
            cost_cents=session.cost_cents,
            extras={"selection": telemetry},
        )
