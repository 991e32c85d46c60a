"""Tests for the parma command-line interface."""

import numpy as np
import pytest

from repro.cli import main


@pytest.fixture()
def campaign_file(tmp_path):
    path = tmp_path / "campaign.txt"
    truth = tmp_path / "truth.npy"
    code = main([
        "simulate", "--n", "8", "--seed", "3", "--noise", "0.0",
        "--out", str(path), "--truth-out", str(truth),
    ])
    assert code == 0
    return path, truth


class TestSimulate:
    def test_writes_campaign_and_truth(self, campaign_file, capsys):
        path, truth = campaign_file
        assert path.exists() and truth.exists()
        fields = np.load(truth)
        assert fields.shape == (4, 8, 8)

    def test_campaign_is_loadable(self, campaign_file):
        from repro.io.textformat import load_campaign

        campaign = load_campaign(campaign_file[0])
        assert campaign.hours == (0.0, 6.0, 12.0, 24.0)


class TestSolve:
    def test_solve_prints_summary(self, campaign_file, capsys, tmp_path):
        path, truth = campaign_file
        field_out = tmp_path / "field.npy"
        code = main([
            "solve", str(path), "--hour", "0", "--strategy", "single",
            "--field-out", str(field_out),
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert "Parma 8x8" in out and "converged=True" in out
        recovered = np.load(field_out)
        expected = np.load(truth)[0]
        np.testing.assert_allclose(recovered, expected, rtol=1e-6)

    def test_solve_persists_equations(self, campaign_file, tmp_path, capsys):
        path, _ = campaign_file
        eqdir = tmp_path / "eqs"
        code = main([
            "solve", str(path), "--strategy", "pymp", "--workers", "2",
            "--equations-dir", str(eqdir),
        ])
        assert code == 0
        assert len(list(eqdir.iterdir())) == 2

    def test_missing_hour_fails_cleanly(self, campaign_file, capsys):
        path, _ = campaign_file
        code = main(["solve", str(path), "--hour", "99"])
        assert code == 2
        assert "error" in capsys.readouterr().err

    def test_missing_file_fails_cleanly(self, tmp_path, capsys):
        code = main(["solve", str(tmp_path / "nope.txt")])
        assert code == 2


class TestMonitor:
    def test_monitor_reports_drift(self, campaign_file, capsys):
        path, _ = campaign_file
        code = main([
            "monitor", str(path), "--growth", "0.1",
        ])
        assert code == 0
        out = capsys.readouterr().out
        assert out.count("Parma 8x8") == 4
        assert "drift" in out

    def test_warm_start_flag(self, campaign_file, capsys):
        path, _ = campaign_file
        assert main([
            "monitor", str(path), "--no-warm-start",
        ]) == 0


class TestInfo:
    def test_info_facts(self, capsys):
        assert main(["info", "--n", "10"]) == 0
        out = capsys.readouterr().out
        assert "beta_1 = 81" in out
        assert "equations: 2000" in out
        assert "unknowns:  1900" in out

    def test_info_large_n_scientific(self, capsys):
        assert main(["info", "--n", "50"]) == 0
        out = capsys.readouterr().out
        assert "e+" in out  # path count in scientific notation


class TestParser:
    def test_missing_subcommand_exits(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_strategy_rejected(self, campaign_file):
        path, _ = campaign_file
        with pytest.raises(SystemExit):
            main(["solve", str(path), "--strategy", "gpu"])


class TestShow:
    def test_solve_show_renders_heatmap(self, campaign_file, capsys):
        path, _ = campaign_file
        assert main([
            "solve", str(path), "--strategy", "single", "--show",
        ]) == 0
        out = capsys.readouterr().out
        assert "+--------+" in out  # 8-column bordered heatmap

    def test_monitor_show_renders_comparison(self, campaign_file, capsys):
        path, _ = campaign_file
        assert main([
            "monitor", str(path), "--show",
        ]) == 0
        out = capsys.readouterr().out
        assert "shared scale" in out


class TestScreen:
    def test_healthy_device_exits_zero(self, campaign_file, capsys):
        path, _ = campaign_file
        assert main(["screen", str(path)]) == 0
        out = capsys.readouterr().out
        assert "0 open(s), 0 short(s)" in out

    def test_defective_device_flagged(self, tmp_path, capsys):
        import numpy as np

        from repro.io.textformat import save_measurement
        from repro.kirchhoff.forward import measure
        from repro.mea.dataset import Measurement
        from repro.mea.defects import (
            CROSSING_OPEN,
            DefectMap,
            apply_defects,
        )

        field = np.full((5, 5), 4000.0)
        codes = np.zeros((5, 5), dtype=np.int8)
        codes[1, 3] = CROSSING_OPEN
        defective = apply_defects(field, DefectMap(codes=codes))
        meas = Measurement(z_kohm=measure(defective))
        path = tmp_path / "bad.txt"
        save_measurement(meas, path)
        assert main(["screen", str(path)]) == 1
        out = capsys.readouterr().out
        assert "OPEN  at crossing (1, 3)" in out

    def test_missing_hour(self, campaign_file, capsys):
        path, _ = campaign_file
        assert main(["screen", str(path), "--hour", "42"]) == 2


class TestConvert:
    def test_workbook_conversion(self, tmp_path, capsys):
        from repro.io.workbook import export_workbook
        from repro.mea.synthetic import paper_like_spec
        from repro.mea.wetlab import WetLabConfig, run_campaign

        spec = paper_like_spec(5, seed=71)
        run = run_campaign(spec, WetLabConfig(noise_rel=0.0), seed=71)
        root = export_workbook(run.campaign, tmp_path / "dev")
        out = tmp_path / "dev.txt"
        assert main(["convert", str(root), "--out", str(out)]) == 0
        assert out.exists()
        assert "4 timepoints" in capsys.readouterr().out

    def test_bad_workbook(self, tmp_path, capsys):
        assert main([
            "convert", str(tmp_path / "missing"), "--out",
            str(tmp_path / "o.txt"),
        ]) == 2


class TestRegularizedSolver:
    def test_solve_regularized_option(self, tmp_path, capsys):
        path = tmp_path / "noisy.txt"
        assert main([
            "simulate", "--n", "6", "--seed", "9", "--noise", "0.01",
            "--out", str(path),
        ]) == 0
        assert main([
            "solve", str(path), "--strategy", "single",
            "--solver", "regularized", "--lam", "0.001",
        ]) == 0
        out = capsys.readouterr().out
        assert "solve regularized" in out


class TestScale:
    def test_scale_writes_bench_shape(self, tmp_path, capsys):
        """``--out`` has the committed BENCH_scaling.json's key set, and
        the regression gate reads it as a trajectory."""
        import json
        from pathlib import Path

        from repro.observe.catalog import load_bench_trajectory
        from repro.parallel.pymp import fork_available

        out = tmp_path / "scaling.json"
        assert main([
            "scale", "--n", "8", "--ranks", "16", "--chunk-items", "32",
            "--out", str(out),
        ]) == 0
        assert "simulated strong scaling" in capsys.readouterr().out
        payload = json.loads(out.read_text())
        committed = Path(__file__).resolve().parents[1] / "BENCH_scaling.json"
        assert set(payload) == set(json.loads(committed.read_text()))
        assert payload["benchmark"] == "elastic_scaling"
        assert (payload["sweep_n"], payload["max_ranks"]) == (8, 16)
        curves = payload["sweep"]["curves"]
        assert set(curves) >= {"contiguous", "balanced", "betti"}
        for curve in curves.values():
            assert curve["rank_counts"][-1] <= 16
            assert len(curve["speedup"]) == len(curve["rank_counts"])
        if fork_available():
            (row,) = payload["sizes"]
            assert row["n"] == 8 and row["part_files_identical"] is True
            assert row["elastic_formation_seconds"] > 0
            tag, column, baselines = load_bench_trajectory(out)
            assert (tag, column) == ("scaling", "formation_seconds")
            assert baselines == {8: row["elastic_formation_seconds"]}

    def test_scale_divergence_exits_1(self, monkeypatch, capsys):
        from repro.parallel import elastic
        from repro.parallel.pymp import fork_available

        if not fork_available():
            pytest.skip("requires os.fork")
        monkeypatch.setattr(
            elastic, "part_files_identical", lambda a, b: (False, "differs")
        )
        assert main(["scale", "--n", "6", "--ranks", "4"]) == 1
        assert "churn campaign diverged" in capsys.readouterr().err

    def test_scale_traced_run_is_regressable(self, tmp_path, capsys):
        """scale --trace --catalog --bench-tag scaling feeds the gate."""
        from repro.parallel.pymp import fork_available

        if not fork_available():
            pytest.skip("requires os.fork")
        bench = tmp_path / "BENCH_scaling.json"
        trace = tmp_path / "trace"
        db = tmp_path / "cat.db"
        assert main([
            "scale", "--n", "8", "--ranks", "4",
            "--out", str(bench),
            "--trace", str(trace), "--catalog", str(db),
            "--bench-tag", "scaling",
        ]) == 0
        capsys.readouterr()
        assert main([
            "runs", "regress", "--db", str(db),
            "--bench", str(bench), "--threshold", "25",
        ]) == 0
        out = capsys.readouterr().out
        assert "scaling" in out
