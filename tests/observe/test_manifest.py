"""Tests for run-manifest build/validate/load and the CI gate."""

import json

import pytest

import repro.observe.manifest as manifest_mod
from repro.observe.manifest import (
    REQUIRED_KEYS,
    ManifestError,
    build_manifest,
    environment_info,
    load_manifest,
    phase_total_seconds,
    validate_manifest,
    write_manifest,
)


def _manifest(**over):
    kwargs = dict(
        run_id="test-run",
        config={"n": 10},
        phases={"formation": {"count": 2, "total": 1.5, "self": 1.0}},
        metrics={"formation.terms": {"type": "counter", "value": 100.0}},
        wall_seconds=2.0,
        cpu_seconds=1.8,
        started_unix=1e9,
    )
    kwargs.update(over)
    return build_manifest(**kwargs)


class TestBuild:
    def test_has_all_required_keys(self):
        manifest = _manifest()
        for key in REQUIRED_KEYS:
            assert key in manifest

    def test_phase_normalization(self):
        manifest = _manifest()
        entry = manifest["phases"]["formation"]
        assert entry == {
            "count": 2,
            "total_seconds": 1.5,
            "self_seconds": 1.0,
        }

    def test_memory_and_extra_optional(self):
        manifest = _manifest(memory={"peak": 1.0}, extra={"note": "x"})
        assert manifest["memory"] == {"peak": 1.0}
        assert manifest["extra"] == {"note": "x"}
        assert "memory" not in _manifest()

    def test_environment_info_shape(self):
        env = environment_info()
        for key in ("host", "platform", "python", "numpy", "blas", "git"):
            assert isinstance(env[key], str) and env[key]

    def test_git_describe_runs_once_per_process(self, monkeypatch):
        calls = []
        real_run = manifest_mod.subprocess.run

        def counting_run(*args, **kwargs):
            calls.append(args)
            return real_run(*args, **kwargs)

        monkeypatch.setattr(manifest_mod.subprocess, "run", counting_run)
        manifest_mod._git_describe.cache_clear()
        try:
            first = environment_info()
            second = environment_info()
        finally:
            manifest_mod._git_describe.cache_clear()
        assert len(calls) == 1
        assert first["git"] == second["git"]

    def test_json_serializable(self):
        json.dumps(_manifest())


class TestValidate:
    def test_accepts_complete(self):
        validate_manifest(_manifest())

    @pytest.mark.parametrize("key", REQUIRED_KEYS)
    def test_rejects_missing_key(self, key):
        manifest = _manifest()
        del manifest[key]
        with pytest.raises(ManifestError, match=key):
            validate_manifest(manifest)

    def test_rejects_non_dict(self):
        with pytest.raises(ManifestError, match="JSON object"):
            validate_manifest([1, 2])

    def test_rejects_wrong_kind(self):
        manifest = _manifest()
        manifest["kind"] = "campaign-checkpoint"
        with pytest.raises(ManifestError, match="kind"):
            validate_manifest(manifest)

    @pytest.mark.parametrize("version", [0, 2, 99, "two"])
    def test_rejects_unknown_schema_version(self, version):
        manifest = _manifest()
        manifest["schema_version"] = version
        with pytest.raises(
            ManifestError, match=f"schema version {version!r}"
        ):
            validate_manifest(manifest)

    def test_schema_gate_beats_missing_key_error(self):
        # A future manifest should fail by version, not by whichever
        # renamed key happens to be missing.
        manifest = _manifest()
        manifest["schema_version"] = 7
        del manifest["phases"]
        with pytest.raises(ManifestError, match="schema version"):
            validate_manifest(manifest)

    def test_load_rejects_unknown_version(self, tmp_path):
        from repro.observe.manifest import write_manifest

        path = tmp_path / "manifest.json"
        write_manifest(path, _manifest())
        bumped = json.loads(path.read_text())
        bumped["schema_version"] = 99
        path.write_text(json.dumps(bumped))
        with pytest.raises(ManifestError, match="written by a different"):
            load_manifest(path)


class TestIo:
    def test_write_load_round_trip(self, tmp_path):
        path = tmp_path / "manifest.json"
        manifest = _manifest()
        write_manifest(path, manifest)
        assert load_manifest(path) == json.loads(json.dumps(manifest))

    def test_write_refuses_invalid(self, tmp_path):
        manifest = _manifest()
        del manifest["phases"]
        with pytest.raises(ManifestError):
            write_manifest(tmp_path / "manifest.json", manifest)
        assert not (tmp_path / "manifest.json").exists()

    def test_load_unreadable(self, tmp_path):
        bad = tmp_path / "manifest.json"
        bad.write_text("{not json")
        with pytest.raises(ManifestError, match="unreadable"):
            load_manifest(bad)


class TestCoverage:
    def test_phase_total_sums_self(self):
        manifest = _manifest(
            phases={
                "a": {"count": 1, "total": 2.0, "self": 1.5},
                "b": {"count": 1, "total": 0.5, "self": 0.5},
            }
        )
        assert phase_total_seconds(manifest) == pytest.approx(2.0)
        assert phase_total_seconds(
            manifest, top_level_only=False
        ) == pytest.approx(2.5)
