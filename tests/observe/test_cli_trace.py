"""CLI observability: --trace/--metrics flags and `parma trace summarize`."""

import json

import pytest

from repro.cli import main
from repro.observe import NULL_OBSERVER, get_observer


@pytest.fixture()
def campaign_file(tmp_path):
    path = tmp_path / "campaign.txt"
    code = main([
        "simulate", "--n", "8", "--seed", "3", "--noise", "0.0",
        "--out", str(path),
    ])
    assert code == 0
    return path


class TestSolveTrace:
    def test_trace_writes_artifacts(self, campaign_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        code = main([
            "solve", str(campaign_file), "--strategy", "single",
            "--trace", str(run_dir), "--equations-dir", str(tmp_path / "eq"),
        ])
        assert code == 0
        for name in ("trace.jsonl", "trace.chrome.json", "manifest.json"):
            assert (run_dir / name).exists()
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["command"] == "solve"
        assert manifest["config"]["n"] == 8
        assert "formation" in manifest["phases"]
        assert "memory" in manifest
        out = capsys.readouterr().out
        assert "trace:" in out and "manifest:" in out

    def test_formation_phase_absent_without_equations_dir(
        self, campaign_file, tmp_path, capsys
    ):
        run_dir = tmp_path / "run"
        code = main([
            "solve", str(campaign_file), "--trace", str(run_dir),
        ])
        assert code == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert "formation" not in manifest["phases"]
        assert "solve" in manifest["phases"]
        assert "no equations formed" in capsys.readouterr().out

    def test_metrics_flag_prints_table(self, campaign_file, tmp_path, capsys):
        code = main([
            "solve", str(campaign_file), "--strategy", "single", "--metrics",
            "--equations-dir", str(tmp_path / "eq"),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "== metrics ==" in out
        assert "formation.terms" in out

    def test_observer_uninstalled_after_run(self, campaign_file, tmp_path):
        code = main([
            "solve", str(campaign_file), "--strategy", "single",
            "--trace", str(tmp_path / "r"),
        ])
        assert code == 0
        assert get_observer() is NULL_OBSERVER

    def test_injected_fault_lands_on_event_stream(
        self, campaign_file, tmp_path
    ):
        run_dir = tmp_path / "run"
        code = main([
            "solve", str(campaign_file), "--strategy", "single",
            "--inject-fail-rungs", "primary", "--trace", str(run_dir),
        ])
        assert code == 0
        from repro.observe.tracing import read_jsonl

        spans = read_jsonl(run_dir / "trace.jsonl")
        events = [s for s in spans if s.kind == "event"]
        assert any(
            e.name == "degrade.rung_failed" and e.attrs["rung"] == "primary"
            for e in events
        )


class TestMonitorTrace:
    def test_monitor_trace_and_checkpoint_events(
        self, campaign_file, tmp_path
    ):
        run_dir = tmp_path / "run"
        code = main([
            "monitor", str(campaign_file),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--trace", str(run_dir),
        ])
        assert code == 0
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["config"]["command"] == "monitor"
        assert manifest["metrics"]["checkpoint.writes"]["value"] == 4.0
        # a second run resumes; its trace shows the resume events
        run2 = tmp_path / "run2"
        code = main([
            "monitor", str(campaign_file),
            "--checkpoint-dir", str(tmp_path / "ckpt"),
            "--trace", str(run2),
        ])
        assert code == 0
        manifest2 = json.loads((run2 / "manifest.json").read_text())
        assert manifest2["metrics"]["checkpoint.resumes"]["value"] == 4.0


class TestTraceSummarize:
    def test_summarize_renders_digest(self, campaign_file, tmp_path, capsys):
        run_dir = tmp_path / "run"
        assert main([
            "solve", str(campaign_file), "--strategy", "single",
            "--trace", str(run_dir),
        ]) == 0
        capsys.readouterr()
        code = main(["trace", "summarize", str(run_dir), "--tree"])
        assert code == 0
        out = capsys.readouterr().out
        assert "run " in out
        assert "trace phases" in out
        assert "== metrics ==" in out
        assert "span tree:" in out
        assert "phase coverage:" in out

    def test_summarize_missing_dir(self, tmp_path, capsys):
        code = main(["trace", "summarize", str(tmp_path / "nope")])
        assert code == 2
        assert "manifest.json" in capsys.readouterr().err

    def test_summarize_json_matches_catalog_serializer(
        self, campaign_file, tmp_path, capsys
    ):
        from repro.observe.catalog import flatten_manifest

        run_dir = tmp_path / "run"
        assert main([
            "solve", str(campaign_file), "--strategy", "single",
            "--trace", str(run_dir),
        ]) == 0
        capsys.readouterr()
        assert main(["trace", "summarize", str(run_dir), "--json"]) == 0
        digest = json.loads(capsys.readouterr().out)
        manifest = json.loads((run_dir / "manifest.json").read_text())
        expected = flatten_manifest(
            manifest, source_path=str(run_dir / "manifest.json")
        )
        assert digest["run"] == json.loads(json.dumps(expected, default=str))
        assert digest["run"]["kind"] == "solve"
        assert digest["run"]["status"] == "ok"
        assert digest["phases"] == manifest["phases"]
