"""Golden transcripts for the ``repro plan`` CLI subcommand."""

from __future__ import annotations

import json

import pytest

from repro.cli import main
from repro.plan.calibrate import load_profile
from repro.plan.model import STAGES


@pytest.fixture(autouse=True)
def isolated_profile_env(tmp_path, monkeypatch):
    """Keep the CLI away from any real ~/.cache profile."""
    monkeypatch.setenv("REPRO_PLAN_PROFILE", str(tmp_path / "env-profile.json"))
    from repro.plan import hooks

    hooks.clear_cache()
    yield
    hooks.clear_cache()


class TestCalibrate:
    def test_writes_a_loadable_versioned_profile(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        code = main(["plan", "--calibrate", "--fast", "--profile", str(path)])
        assert code == 0
        out = capsys.readouterr().out
        assert f"calibrated {len(STAGES)} stages (fast workloads)" in out
        assert f"profile -> {path}" in out
        profile = load_profile(path)
        assert profile.calibrated is True
        assert sorted(profile.coefficients) == sorted(STAGES)
        assert json.loads(path.read_text())["version"] == 2

    def test_calibrate_then_explain_in_one_invocation(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        code = main([
            "plan", "--calibrate", "--fast", "--explain",
            "--dataset", "restaurant", "--scale", "0.05",
            "--profile", str(path),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "[profile: calibrated]" in out


class TestExplain:
    def test_plan_tree_golden_shape(self, capsys):
        code = main([
            "plan", "--explain", "--dataset", "restaurant", "--scale", "0.05",
        ])
        assert code == 0
        out = capsys.readouterr().out
        # No profile on disk: the tree must say it planned from defaults.
        assert "[profile: defaults]" in out
        assert "plan for 43 rows x 4 attrs" in out
        for knob in (
            "use_batch_similarity",
            "use_incremental_selection",
            "reachability_index",
            "shards",
            "stream_batch_size",
        ):
            assert knob in out, f"plan tree is missing knob {knob}"
        assert "rejected:" in out
        assert "why:" in out
        assert "predicted planner-visible total:" in out

    def test_explain_with_explicit_profile(self, tmp_path, capsys):
        path = tmp_path / "profile.json"
        assert main(["plan", "--calibrate", "--fast", "--profile", str(path)]) == 0
        capsys.readouterr()
        code = main([
            "plan", "--explain", "--dataset", "restaurant", "--scale", "0.05",
            "--profile", str(path),
        ])
        assert code == 0
        assert "[profile: calibrated]" in capsys.readouterr().out

    def test_missing_explicit_profile_fails_cleanly(self, tmp_path, capsys):
        code = main([
            "plan", "--explain", "--profile", str(tmp_path / "nope.json"),
        ])
        assert code == 1
        assert "error:" in capsys.readouterr().err


class TestUsage:
    def test_no_action_is_an_error(self, capsys):
        assert main(["plan"]) == 2
        assert "--calibrate" in capsys.readouterr().err
