"""Calibration-profile codec: golden schema and rejection paths.

The profile JSON is a versioned on-disk contract (other tools and future
schema migrations depend on it), so the golden test pins the exact
top-level shape, and the rejection tests prove unknown versions and
corrupt files fail loudly with :class:`~repro.exceptions.DataError`
instead of silently planning from garbage coefficients.
"""

from __future__ import annotations

import json

import pytest

from repro.exceptions import ConfigurationError, DataError
from repro.plan.calibrate import (
    PROFILE_VERSION,
    CalibrationProfile,
    default_profile,
    default_profile_path,
    load_profile,
    resolve_profile,
)
from repro.plan.model import STAGES


class TestGoldenSchema:
    def test_payload_shape(self):
        payload = default_profile().to_payload()
        assert sorted(payload) == [
            "calibrated",
            "coefficients",
            "host",
            "meta",
            "version",
        ]
        assert payload["version"] == PROFILE_VERSION == 2
        assert payload["calibrated"] is False
        assert sorted(payload["coefficients"]) == sorted(STAGES)
        for coeffs in payload["coefficients"].values():
            assert sorted(coeffs) == ["c0", "c1"]
            assert coeffs["c0"] >= 0.0
            assert coeffs["c1"] >= 0.0

    def test_roundtrip_through_disk(self, tmp_path):
        path = tmp_path / "profile.json"
        profile = default_profile()
        profile.save(path)
        loaded = load_profile(path)
        assert loaded.to_payload() == profile.to_payload()

    def test_saved_json_is_deterministic(self, tmp_path):
        a, b = tmp_path / "a.json", tmp_path / "b.json"
        default_profile().save(a)
        default_profile().save(b)
        assert a.read_text() == b.read_text()


class TestRejection:
    def test_unknown_version_rejected(self, tmp_path):
        # 1 is the retired schema that still priced three candidate joins.
        for version in (1, 99):
            payload = default_profile().to_payload()
            payload["version"] = version
            path = tmp_path / f"v{version}.json"
            path.write_text(json.dumps(payload))
            with pytest.raises(DataError, match="version"):
                load_profile(path)

    def test_corrupt_json_rejected(self, tmp_path):
        path = tmp_path / "corrupt.json"
        path.write_text('{"version": 2, "coefficients": {')
        with pytest.raises(DataError):
            load_profile(path)

    def test_non_object_payload_rejected(self, tmp_path):
        path = tmp_path / "list.json"
        path.write_text("[1, 2, 3]")
        with pytest.raises(DataError):
            load_profile(path)

    def test_missing_file_rejected(self, tmp_path):
        with pytest.raises(DataError):
            load_profile(tmp_path / "nowhere.json")

    def test_missing_stage_rejected(self):
        payload = default_profile().to_payload()
        del payload["coefficients"]["construct"]
        with pytest.raises(DataError, match="construct"):
            CalibrationProfile.from_payload(payload)

    def test_unknown_stage_rejected(self):
        payload = default_profile().to_payload()
        payload["coefficients"]["warp_drive"] = {"c0": 0.0, "c1": 0.0}
        with pytest.raises(DataError):
            CalibrationProfile.from_payload(payload)


class TestResolveProfile:
    def test_off_is_not_a_profile(self):
        with pytest.raises(ConfigurationError):
            resolve_profile("off")

    def test_auto_without_file_falls_back_to_defaults(self, tmp_path, monkeypatch):
        monkeypatch.setenv(
            "REPRO_PLAN_PROFILE", str(tmp_path / "missing.json")
        )
        profile = resolve_profile("auto")
        assert profile.calibrated is False

    def test_auto_with_file_loads_it(self, tmp_path, monkeypatch):
        path = tmp_path / "profile.json"
        default_profile().save(path)
        monkeypatch.setenv("REPRO_PLAN_PROFILE", str(path))
        assert default_profile_path() == path
        profile = resolve_profile("auto")
        assert profile.to_payload() == default_profile().to_payload()

    def test_explicit_path_must_exist(self, tmp_path):
        with pytest.raises(DataError):
            resolve_profile(str(tmp_path / "missing.json"))
