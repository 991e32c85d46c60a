"""The resilience surface of the parma CLI: exit codes and reporting."""

import pytest

from repro.cli import main


@pytest.fixture()
def campaign_file(tmp_path):
    path = tmp_path / "campaign.txt"
    code = main([
        "simulate", "--n", "6", "--seed", "3", "--noise", "0.0",
        "--out", str(path),
    ])
    assert code == 0
    return path


class TestSolveDegradation:
    def test_injected_rung_failures_degrade_and_report(
        self, campaign_file, capsys
    ):
        code = main([
            "solve", str(campaign_file),
            "--inject-fail-rungs", "primary,regularized",
        ])
        out = capsys.readouterr().out
        assert code == 0, "bounded rung converges on clean data"
        assert "rung=bounded" in out
        assert "degradation:" in out

    def test_exhausted_ladder_exits_nonzero_saying_why(
        self, campaign_file, capsys
    ):
        code = main([
            "solve", str(campaign_file),
            "--inject-fail-rungs", "primary,cold-start,regularized,bounded",
        ])
        captured = capsys.readouterr()
        assert code == 1
        assert "every degradation rung" in captured.err

    def test_clean_solve_unaffected(self, campaign_file, capsys):
        assert main(["solve", str(campaign_file)]) == 0
        assert "rung=primary" in capsys.readouterr().out


class TestMonitorCheckpoint:
    def test_monitor_writes_and_resumes_checkpoint(
        self, campaign_file, tmp_path, capsys
    ):
        ck = tmp_path / "ck"
        assert main([
            "monitor", str(campaign_file),
            "--checkpoint-dir", str(ck),
        ]) == 0
        capsys.readouterr()
        assert (ck / "manifest.json").exists()

        assert main([
            "monitor", str(campaign_file),
            "--checkpoint-dir", str(ck),
        ]) == 0
        out = capsys.readouterr().out
        assert "restored from checkpoint" in out

    def test_no_resume_recomputes(self, campaign_file, tmp_path, capsys):
        ck = tmp_path / "ck"
        main([
            "monitor", str(campaign_file),
            "--checkpoint-dir", str(ck),
        ])
        capsys.readouterr()
        assert main([
            "monitor", str(campaign_file),
            "--checkpoint-dir", str(ck), "--no-resume",
        ]) == 0
        assert "restored from checkpoint" not in capsys.readouterr().out


class TestChaosCommand:
    def test_chaos_smoke_passes(self, capsys):
        from repro.resilience.chaos import CHAOS_CHECKS

        assert main(["chaos", "--n", "6", "--seed", "7"]) == 0
        out = capsys.readouterr().out
        assert "[FAIL]" not in out
        for name in CHAOS_CHECKS:
            assert f"  [PASS] {name}: " in out, name

    def test_unknown_check_exits_2_naming_the_known_ones(self, capsys):
        from repro.resilience.chaos import CHAOS_CHECKS

        assert main(["chaos", "--include", "dirty,bogus"]) == 2
        captured = capsys.readouterr()
        assert "[PASS]" not in captured.out
        assert "unknown chaos check(s) bogus" in captured.err
        assert f"(known: {', '.join(CHAOS_CHECKS)})" in captured.err
