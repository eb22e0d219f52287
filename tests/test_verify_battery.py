"""The verification battery and its CLI wiring."""

from __future__ import annotations

import pytest

from repro.cli import main
from repro.data.generators import load_dataset
from repro.exceptions import DataError
from repro.verify import BatteryConfig, run_battery, subsample_table


class TestSubsample:
    def test_full_scale_is_identity(self):
        table = load_dataset("restaurant")
        assert subsample_table(table, 1.0) is table

    def test_prefix_subsample(self):
        table = load_dataset("restaurant")
        small = subsample_table(table, 0.05)
        keep = max(20, round(0.05 * len(table)))
        assert len(small) == keep
        for index in range(keep):
            assert small[index].values == table[index].values
            assert small[index].entity_id == table[index].entity_id

    def test_minimum_floor(self):
        table = load_dataset("restaurant")
        tiny = subsample_table(table, 0.001)
        assert len(tiny) == 20

    def test_bad_scale_rejected(self):
        table = load_dataset("restaurant")
        with pytest.raises(DataError):
            subsample_table(table, 0.0)
        with pytest.raises(DataError):
            subsample_table(table, 1.5)


class TestBattery:
    def test_small_battery_passes(self):
        report = run_battery(
            BatteryConfig(
                dataset="restaurant",
                scale=0.03,
                seeds=2,
                include_mutation=False,
                include_metamorphic=False,
            )
        )
        assert report.passed, report.summary()
        names = {result.name for result in report.results}
        assert any(name.startswith("dominance-construction") for name in names)
        assert any(name.startswith("selector-differential") for name in names)
        assert any(name.startswith("verified-resolution") for name in names)

    def test_selector_names_default(self):
        names = BatteryConfig().selector_names()
        assert "power" in names
        assert "greedy-reference" in names

    def test_selector_names_override(self):
        assert BatteryConfig(selectors=("power",)).selector_names() == ("power",)


class TestVerifyCli:
    def test_verify_command_passes(self, capsys):
        code = main(
            [
                "verify",
                "--dataset", "restaurant",
                "--scale", "0.03",
                "--seeds", "2",
                "--skip-mutation",
                "--skip-metamorphic",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 0
        assert "all passed" in out

    def test_verify_command_reports_failures(self, capsys, monkeypatch):
        from repro.verify import relation

        original = relation.blocked_dominance_lists

        def mutated(dominant, dominated, *args, **kwargs):
            lists = original(dominant, dominated, *args, **kwargs)
            for index, children in enumerate(lists):
                if len(children):
                    lists[index] = children[:-1]
                    break
            return lists

        monkeypatch.setattr(relation, "blocked_dominance_lists", mutated)
        code = main(
            [
                "verify",
                "--dataset", "restaurant",
                "--scale", "0.03",
                "--seeds", "1",
                "--skip-mutation",
                "--skip-metamorphic",
                "--quiet",
            ]
        )
        out = capsys.readouterr().out
        assert code == 1
        assert "FAILED" in out
