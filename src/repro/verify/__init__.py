"""Correctness verification for the Power/Power+ reproduction.

Three complementary pillars, all raising
:class:`~repro.exceptions.VerificationError` with a counterexample:

* **differential oracles** (:mod:`.oracles`) — brute-force twins of every
  optimized path: dominance construction, Split grouping, batch similarity,
  similarity joins, crowd aggregation, the batched crowd-draw kernel vs
  numpy's own generators, a naive graph pair that any selector must treat
  identically to the production graphs, a coloring replay, the round
  update vs the one-answer-at-a-time engine, the incremental selection
  engine vs the reference paths, and a monotone ground truth under which
  a perfect crowd must recover the truth exactly;
* **the reference relation** (:mod:`.relation`) — every form of the
  dominance relation production no longer reads (Eqs. 3-4 as functions
  and broadcast masks, the dominance tiles and their lists, the
  from-scratch Hopcroft-Karp path cover) behind the reachability index's
  read interface; :func:`decline_reachability` gives a fresh graph that
  relation, which runs any selector on the reference paths;
* **invariant checkers** (:mod:`.invariants`) — partial-order laws, DAG
  acyclicity, topological layering vs naive Kahn peeling, path-cover
  validity, reachability-index packing, grouped-partition arithmetic,
  union-find vs BFS clustering, and crowd-session billing coherence, plus
  the opt-in :class:`VerifyingSession` sanitizer that audits a live
  session at every answer;
* **metamorphic properties** (:mod:`.metamorphic`) — record-permutation
  invariance, duplicate idempotence, and cost monotonicity under budget
  growth.

:mod:`.mutation` proves the suite has teeth by seeding known bugs and
demanding every one is detected; :mod:`.battery` packages everything as the
``repro verify`` command.
"""

from .battery import (
    BatteryConfig,
    empty_token_table,
    float_sum_tie_instance,
    nan_instance,
    overlap_floor_instance,
    quarter_grid_vectors,
    random_instance,
    run_battery,
    signed_zero_instance,
    subsample_table,
    vote_tie_instance,
)
from .invariants import (
    VerifyingSession,
    check_acyclicity,
    check_cluster_union_find,
    check_coloring_state,
    check_grouped_partition,
    check_partial_order,
    check_path_cover,
    check_reachability_index,
    check_session_coherence,
    check_topo_layers,
    naive_kahn_layers,
)
from .metamorphic import (
    check_cost_monotonicity,
    check_duplicate_idempotence,
    check_permutation_invariance,
)
from .mutation import MUTANTS, run_detection_battery, run_mutation_selftest
from .oracles import (
    GreedyReferenceSelector,
    NaiveGroupedGraph,
    NaivePairGraph,
    ReferenceColoring,
    check_batch_similarity,
    check_coloring_replay,
    check_crowd_aggregation,
    check_crowd_draws,
    check_dominance_construction,
    check_entity_quality,
    check_join_methods,
    check_linear_extension,
    check_round_replay,
    check_round_update,
    check_selection_incremental,
    check_selector_differential,
    check_selector_monotone_oracle,
    check_serve_equivalence,
    check_split_grouping,
    check_stream_equivalence,
    check_transitive_closure,
    monotone_truth,
    naive_dominance_edges,
    naive_join,
    naive_transitive_closure,
    prefix_join,
    reference_split_grouping,
)
from .relation import ReferenceRelation, decline_reachability, reference_relation
from .report import CheckResult, VerificationReport, run_check

__all__ = [
    "BatteryConfig",
    "CheckResult",
    "GreedyReferenceSelector",
    "MUTANTS",
    "NaiveGroupedGraph",
    "NaivePairGraph",
    "ReferenceColoring",
    "ReferenceRelation",
    "VerificationReport",
    "VerifyingSession",
    "check_acyclicity",
    "check_batch_similarity",
    "check_cluster_union_find",
    "check_coloring_replay",
    "check_coloring_state",
    "check_cost_monotonicity",
    "check_crowd_aggregation",
    "check_crowd_draws",
    "check_dominance_construction",
    "check_duplicate_idempotence",
    "check_entity_quality",
    "check_grouped_partition",
    "check_join_methods",
    "check_linear_extension",
    "check_round_replay",
    "check_round_update",
    "check_partial_order",
    "check_path_cover",
    "check_permutation_invariance",
    "check_reachability_index",
    "check_selection_incremental",
    "check_selector_differential",
    "check_selector_monotone_oracle",
    "check_serve_equivalence",
    "check_session_coherence",
    "check_split_grouping",
    "check_stream_equivalence",
    "check_topo_layers",
    "check_transitive_closure",
    "decline_reachability",
    "empty_token_table",
    "float_sum_tie_instance",
    "monotone_truth",
    "naive_dominance_edges",
    "naive_join",
    "naive_kahn_layers",
    "naive_transitive_closure",
    "nan_instance",
    "overlap_floor_instance",
    "prefix_join",
    "quarter_grid_vectors",
    "random_instance",
    "reference_relation",
    "reference_split_grouping",
    "run_battery",
    "run_check",
    "run_detection_battery",
    "run_mutation_selftest",
    "signed_zero_instance",
    "subsample_table",
    "vote_tie_instance",
]
