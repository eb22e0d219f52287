"""End-to-end tests for PowerResolver."""

import pytest

from repro import PowerConfig, PowerResolver
from repro.crowd import PerfectCrowd
from repro.data import Table
from repro.data.ground_truth import pair_truth
from repro.exceptions import ConfigurationError, DataError


class TestPowerConfig:
    def test_defaults(self):
        config = PowerConfig()
        assert config.selector == "power"
        assert config.epsilon == 0.1
        assert config.error_tolerant

    def test_error_policy_construction(self):
        assert PowerConfig(error_tolerant=False).error_policy() is None
        policy = PowerConfig(confidence_threshold=0.9).error_policy()
        assert policy.confidence_threshold == 0.9

    def test_validation(self):
        """Out-of-range values and unknown names are ConfigurationErrors."""
        for fields in [
            {"pruning_threshold": 0.0},
            {"epsilon": -0.1},
            {"assignments": 0},
            {"selector": "nope"},
            {"grouping_algorithm": "nope"},
            {"binning": "nope"},
            {"similarity": ("bigram", "nope")},
            {"similarity": ()},
            {"attribute_threshold": 1.5},
            {"confidence_threshold": 2.0},
            {"num_bins": 0},
            {"seed": -1},
        ]:
            with pytest.raises(ConfigurationError):
                PowerConfig(**fields)

    def test_wrong_types_are_type_errors(self):
        """A bool where a number is expected is a wrong type too."""
        for fields in [
            {"assignments": 2.5},
            {"num_bins": 2.5},
            {"seed": "x"},
            {"seed": 1.5},
            {"assignments": True},
            {"epsilon": "x"},
            {"similarity": ["bigram"]},
            {"selector": 5},
            {"error_tolerant": 1},
        ]:
            with pytest.raises(TypeError):
                PowerConfig(**fields)


class TestResolver:
    def test_end_to_end_with_oracle(self, small_table, small_bundle):
        _, pairs, _, truth = small_bundle
        resolver = PowerResolver(PowerConfig(error_tolerant=False, seed=1))
        result = resolver.resolve(
            small_table, session=PerfectCrowd(truth).session()
        )
        assert result.quality.f_measure >= 0.95
        assert result.questions < len(pairs)
        assert result.candidate_pairs == pairs
        assert sum(len(c) for c in result.clusters) == len(small_table)

    def test_auto_built_crowd(self, small_table):
        result = PowerResolver(PowerConfig(seed=2)).resolve(
            small_table, worker_band="90"
        )
        assert result.quality is not None
        assert result.quality.f_measure > 0.5

    def test_non_grouped_configuration(self, small_table, small_bundle):
        _, _, _, truth = small_bundle
        resolver = PowerResolver(PowerConfig(epsilon=None, error_tolerant=False))
        result = resolver.resolve(small_table, session=PerfectCrowd(truth).session())
        # One genuine partial-order violation exists in this table.
        assert result.quality.f_measure >= 0.93

    def test_per_attribute_similarity_tuple(self, small_table):
        config = PowerConfig(similarity=("edit", "jaccard", "bigram"), seed=0)
        resolver = PowerResolver(config)
        pairs = resolver.candidate_pairs(small_table)
        assert pairs  # pipeline is at least constructible

    def test_unknown_selector(self, small_table):
        with pytest.raises(ConfigurationError):
            PowerResolver(PowerConfig(selector="magic")).resolve(small_table)

    def test_no_ground_truth_needs_session(self):
        table = Table.from_rows("t", ("a",), [("x",), ("x",)])
        with pytest.raises(DataError):
            PowerResolver().resolve(table)

    def test_pruning_everything_raises(self):
        table = Table.from_rows(
            "distinct", ("a",), [("alpha",), ("omega",)], entity_ids=[0, 1]
        )
        resolver = PowerResolver(PowerConfig(pruning_threshold=1.0))
        with pytest.raises(DataError):
            resolver.resolve(table)

    def test_all_selectors_work_end_to_end(self, small_table, small_bundle):
        _, _, _, truth = small_bundle
        for selector in ("random", "single-path", "multi-path", "power"):
            config = PowerConfig(selector=selector, error_tolerant=False, seed=3)
            result = PowerResolver(config).resolve(
                small_table, session=PerfectCrowd(truth).session()
            )
            assert result.quality.f_measure >= 0.9, selector

    def test_result_properties(self, small_table, small_bundle):
        _, _, _, truth = small_bundle
        result = PowerResolver(PowerConfig(seed=1)).resolve(
            small_table, session=PerfectCrowd(truth).session()
        )
        assert result.iterations == result.selection.iterations
        assert result.cost_cents == result.selection.cost_cents
        assert result.table_name == "small"


class TestSummary:
    def test_summary_contains_key_facts(self, small_table, small_bundle):
        _, _, _, truth = small_bundle
        result = PowerResolver(PowerConfig(seed=1)).resolve(
            small_table, session=PerfectCrowd(truth).session()
        )
        text = result.summary()
        assert "questions asked" in text
        assert f"candidate pairs  : {len(result.candidate_pairs)}" in text
        assert "F1=" in text

    def test_summary_without_ground_truth(self, small_table, small_bundle):
        _, pairs, _, truth = small_bundle
        stripped = Table.from_rows(
            "anon", small_table.attributes, [r.values for r in small_table]
        )
        resolver = PowerResolver(PowerConfig(seed=1))
        result = resolver.resolve(stripped, session=PerfectCrowd(truth).session())
        assert result.quality is None
        assert "quality" not in result.summary()
