"""Tests for the SQLite run catalog (repro.observe.catalog)."""

import json
import sqlite3
import subprocess
import sys
from pathlib import Path

import pytest

from repro.observe.catalog import (
    BENCH_KINDS,
    CATALOG_SCHEMA_VERSION,
    Catalog,
    CatalogError,
    _LADDER_RUNGS,
    flatten_manifest,
    load_bench_trajectory,
    manifest_content_hash,
    parse_since,
    summarize_run,
    write_bench_manifests,
)
from repro.observe.manifest import (
    build_manifest,
    load_manifest,
    write_manifest,
)


def make_manifest(
    run_id="run-1",
    command="solve",
    n=10,
    status=None,
    metrics=None,
    extra=None,
    phases=None,
    started=1_000_000.0,
    **config_over,
):
    config = {"n": n, "command": command, "backend": "numpy", **config_over}
    if status is not None:
        config["status"] = status
    return build_manifest(
        run_id=run_id,
        config=config,
        phases=phases
        if phases is not None
        else {"solve": {"count": 1, "total": 0.5, "self": 0.4}},
        metrics=metrics or {},
        wall_seconds=2.0,
        cpu_seconds=1.8,
        started_unix=started,
        extra=extra,
    )


def write_manifest_dir(root, name, manifest):
    directory = Path(root) / name
    directory.mkdir(parents=True, exist_ok=True)
    write_manifest(directory / "manifest.json", manifest)
    return directory


class TestFlatten:
    def test_basic_columns(self):
        row = flatten_manifest(
            make_manifest(n=12, solver="nested", strategy="single")
        )
        assert row["run_id"] == "run-1"
        assert row["kind"] == "solve"
        assert row["n"] == 12
        assert row["solver"] == "nested"
        assert row["strategy"] == "single"
        assert row["solve_seconds"] == pytest.approx(0.5)
        assert row["status"] == "ok"
        assert row["degradation_rung"] == 0
        assert row["rung_name"] == "primary"

    def test_serve_request_kind(self):
        row = flatten_manifest(
            make_manifest(command="serve", request_id="abc123")
        )
        assert row["kind"] == "serve-request"
        # the service's own manifest has no request_id and stays "serve"
        assert flatten_manifest(make_manifest(command="serve"))["kind"] == "serve"

    def test_explicit_status_wins(self):
        row = flatten_manifest(make_manifest(status="deadline"))
        assert row["status"] == "deadline"

    def test_exhausted_fallback(self):
        row = flatten_manifest(
            make_manifest(
                metrics={
                    "degrade.exhausted": {"type": "counter", "value": 1.0}
                }
            )
        )
        assert row["status"] == "exhausted"

    def test_deepest_rung_wins(self):
        row = flatten_manifest(
            make_manifest(
                metrics={
                    "degrade.rung.cold-start": {
                        "type": "counter", "value": 1.0
                    },
                    "degrade.rung.regularized": {
                        "type": "counter", "value": 1.0
                    },
                }
            )
        )
        assert row["degradation_rung"] == 2
        assert row["rung_name"] == "regularized"

    def test_ladder_matches_resilience_layer(self):
        # The catalog mirrors the ladder as a literal (no upward import);
        # this is the cross-check that keeps the two in lock step.
        from repro.resilience.degrade import LADDER_RUNGS

        assert _LADDER_RUNGS == LADDER_RUNGS

    def test_cache_hit_rates(self):
        row = flatten_manifest(
            make_manifest(
                metrics={
                    "cache.pair-template.hits": {"type": "gauge", "value": 3},
                    "cache.pair-template.misses": {"type": "gauge", "value": 1},
                }
            )
        )
        assert row["template_hit_rate"] == pytest.approx(0.75)
        assert row["laplacian_hit_rate"] is None

    def test_bench_tag(self):
        row = flatten_manifest(make_manifest(extra={"bench": "solver"}))
        assert row["bench"] == "solver"
        assert flatten_manifest(make_manifest())["bench"] == ""

    def test_summarize_run_shape(self):
        manifest = make_manifest()
        digest = summarize_run(manifest, source_path="/x/manifest.json")
        assert digest["run"]["source_path"] == "/x/manifest.json"
        assert digest["phases"] == manifest["phases"]
        json.dumps(digest)  # machine-readable end to end

    def test_content_hash_stable_and_distinct(self):
        a = make_manifest(run_id="a")
        assert manifest_content_hash(a) == manifest_content_hash(dict(a))
        assert manifest_content_hash(a) != manifest_content_hash(
            make_manifest(run_id="b")
        )


class TestIngest:
    def test_ingest_and_reingest_is_noop(self, tmp_path):
        runs = tmp_path / "runs"
        for i in range(3):
            write_manifest_dir(
                runs, f"r{i}", make_manifest(run_id=f"run-{i}", started=i)
            )
        with Catalog(tmp_path / "cat.db") as catalog:
            report = catalog.ingest([runs])
            assert (report.scanned, report.ingested) == (3, 3)
            assert catalog.count() == 3
            again = catalog.ingest([runs])
            assert again.ingested == 0
            assert again.duplicates == 3
            assert catalog.count() == 3  # row count unchanged: a no-op

    def test_invalid_manifest_recorded_not_fatal(self, tmp_path):
        runs = tmp_path / "runs"
        write_manifest_dir(runs, "good", make_manifest())
        bad = runs / "bad"
        bad.mkdir()
        (bad / "manifest.json").write_text('{"kind": "nope"}')
        with Catalog(tmp_path / "cat.db") as catalog:
            report = catalog.ingest([runs])
        assert report.ingested == 1
        assert len(report.errors) == 1
        assert "bad" in report.errors[0][0]

    def test_phases_and_metrics_rows(self, tmp_path):
        directory = write_manifest_dir(
            tmp_path,
            "r",
            make_manifest(
                metrics={
                    "formation.terms": {"type": "counter", "value": 100.0},
                    "solver.iteration.seconds": {
                        "type": "histogram",
                        "buckets": [0.1],
                        "counts": [2, 0],
                        "sum": 0.05,
                        "count": 2,
                    },
                }
            ),
        )
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([directory])
            _, phase_rows = catalog.query(
                "SELECT name, total_seconds FROM phases"
            )
            _, metric_rows = catalog.query(
                "SELECT name, type, value, sum, count FROM metrics "
                "ORDER BY name"
            )
        assert phase_rows == [("solve", 0.5)]
        assert metric_rows[0] == ("formation.terms", "counter", 100.0, None, None)
        assert metric_rows[1][1] == "histogram"
        assert metric_rows[1][3] == pytest.approx(0.05)

    def test_search_filter(self, tmp_path):
        runs = tmp_path / "runs"
        write_manifest_dir(
            runs, "a", make_manifest(run_id="a", solver="nested")
        )
        write_manifest_dir(
            runs, "b", make_manifest(run_id="b", solver="regularized")
        )
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([runs])
            rows = catalog.list_runs(search="regularized")
        assert [r["run_id"] for r in rows] == ["b"]

    def test_filters(self, tmp_path):
        runs = tmp_path / "runs"
        write_manifest_dir(
            runs, "old", make_manifest(run_id="old", started=100.0)
        )
        write_manifest_dir(
            runs,
            "deg",
            make_manifest(
                run_id="deg",
                started=200.0,
                metrics={
                    "degrade.rung.bounded": {"type": "counter", "value": 1.0}
                },
            ),
        )
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([runs])
            assert [
                r["run_id"]
                for r in catalog.list_runs(since=150.0)
            ] == ["deg"]
            rungy = catalog.list_runs(min_rung=1)
            assert [r["run_id"] for r in rungy] == ["deg"]
            assert rungy[0]["rung_name"] == "bounded"
            assert [
                r["run_id"] for r in catalog.list_runs(where="started_unix < 150")
            ] == ["old"]

    def test_get_run_prefix_and_ambiguity(self, tmp_path):
        runs = tmp_path / "runs"
        write_manifest_dir(runs, "a", make_manifest(run_id="20260101-aaaa"))
        write_manifest_dir(runs, "b", make_manifest(run_id="20260101-bbbb"))
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([runs])
            run, phases, metrics = catalog.get_run("20260101-a")
            assert run["run_id"] == "20260101-aaaa"
            assert phases[0]["name"] == "solve"
            with pytest.raises(CatalogError, match="ambiguous"):
                catalog.get_run("20260101")
            with pytest.raises(CatalogError, match="no cataloged run"):
                catalog.get_run("zzz")


class TestConcurrency:
    def test_two_processes_ingest_same_dir_once(self, tmp_path):
        runs = tmp_path / "runs"
        for i in range(5):
            write_manifest_dir(
                runs, f"r{i}", make_manifest(run_id=f"run-{i}", started=i)
            )
        db = tmp_path / "cat.db"
        src = Path(__file__).resolve().parents[2] / "src"
        script = (
            "import sys; sys.path.insert(0, sys.argv[1])\n"
            "from repro.observe.catalog import Catalog\n"
            "with Catalog(sys.argv[2]) as c: c.ingest([sys.argv[3]])\n"
        )
        procs = [
            subprocess.Popen(
                [sys.executable, "-c", script, str(src), str(db), str(runs)],
                stdout=subprocess.PIPE,
                stderr=subprocess.PIPE,
            )
            for _ in range(2)
        ]
        for proc in procs:
            _, err = proc.communicate(timeout=120)
            assert proc.returncode == 0, err.decode()
        with Catalog(db, readonly=True) as catalog:
            assert catalog.count() == 5  # exactly one row per run
            _, rows = catalog.query(
                "SELECT run_id, COUNT(*) FROM runs GROUP BY run_id "
                "HAVING COUNT(*) > 1"
            )
            assert rows == []

    def test_threaded_shared_instance(self, tmp_path):
        import threading

        runs = tmp_path / "runs"
        for i in range(8):
            write_manifest_dir(
                runs, f"r{i}", make_manifest(run_id=f"run-{i}", started=i)
            )
        with Catalog(tmp_path / "cat.db") as catalog:
            threads = [
                threading.Thread(target=catalog.ingest, args=([runs],))
                for _ in range(4)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join()
            assert catalog.count() == 8


class TestQuery:
    @pytest.fixture()
    def catalog(self, tmp_path):
        directory = write_manifest_dir(tmp_path, "r", make_manifest())
        with Catalog(tmp_path / "cat.db") as cat:
            cat.ingest([directory])
            yield cat

    def test_select_allowed(self, catalog):
        columns, rows = catalog.query("SELECT run_id, n FROM runs")
        assert columns == ["run_id", "n"]
        assert rows == [("run-1", 10)]

    def test_with_select_allowed(self, catalog):
        _, rows = catalog.query(
            "WITH t AS (SELECT n FROM runs) SELECT COUNT(*) FROM t"
        )
        assert rows == [(1,)]

    def test_leading_comment_allowed(self, catalog):
        _, rows = catalog.query("-- a comment\nSELECT COUNT(*) FROM runs")
        assert rows == [(1,)]

    @pytest.mark.parametrize(
        "sql",
        [
            "DELETE FROM runs",
            "UPDATE runs SET status = 'ok'",
            "INSERT INTO runs (run_id) VALUES ('x')",
            "DROP TABLE runs",
            "PRAGMA user_version = 99",
            "ATTACH DATABASE ':memory:' AS x",
        ],
    )
    def test_non_select_rejected(self, catalog, sql):
        with pytest.raises(CatalogError, match="only SELECT"):
            catalog.query(sql)
        assert catalog.count() == 1

    def test_writing_cte_cannot_modify(self, catalog):
        # Slips past the WITH gate, but the ro connection stops it.
        with pytest.raises(CatalogError):
            catalog.query(
                "WITH t AS (SELECT 1) INSERT INTO runs (run_id) SELECT 'x'"
            )
        assert catalog.count() == 1

    def test_bad_sql_wrapped(self, catalog):
        with pytest.raises(CatalogError, match="query failed"):
            catalog.query("SELECT nope FROM nothing")


class TestStats:
    def test_percentiles_by_group(self, tmp_path):
        runs = tmp_path / "runs"
        for i, solve_s in enumerate([0.1, 0.2, 0.3, 0.4]):
            write_manifest_dir(
                runs,
                f"r{i}",
                make_manifest(
                    run_id=f"run-{i}",
                    started=i,
                    phases={
                        "solve": {
                            "count": 1, "total": solve_s, "self": solve_s
                        }
                    },
                ),
            )
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([runs])
            entries = catalog.stats(group_by=("n", "backend"))
        assert len(entries) == 1
        entry = entries[0]
        assert (entry["n"], entry["backend"]) == (10, "numpy")
        assert entry["count"] == 4
        assert entry["p50"] == pytest.approx(0.25)
        assert entry["p95"] == pytest.approx(0.385)
        assert entry["mean"] == pytest.approx(0.25)
        assert entry["max"] == pytest.approx(0.4)

    def test_rejects_unknown_column(self, tmp_path):
        with Catalog(tmp_path / "cat.db") as catalog:
            with pytest.raises(CatalogError, match="not a runs column"):
                catalog.stats(metric="evil; DROP TABLE runs")
            with pytest.raises(CatalogError, match="not a runs column"):
                catalog.stats(group_by=("nope",))


class TestRegress:
    def _bench_file(self, tmp_path, n=10, baseline=0.5):
        path = tmp_path / "BENCH_solver.json"
        path.write_text(json.dumps({
            "benchmark": "solver_fastpath",
            "sizes": [{"n": n, "fast_cold_seconds": baseline}],
        }))
        return path

    def _tagged(self, solve_s, run_id="bench-run", started=1000.0):
        return make_manifest(
            run_id=run_id,
            started=started,
            extra={"bench": "solver"},
            phases={"solve": {"count": 1, "total": solve_s, "self": solve_s}},
        )

    def test_within_threshold_passes(self, tmp_path):
        bench = self._bench_file(tmp_path, baseline=0.5)
        directory = write_manifest_dir(tmp_path, "r", self._tagged(0.6))
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([directory])
            report = catalog.regress([bench], threshold=1.5)
        assert report.ok
        assert report.checks[0].ratio == pytest.approx(1.2)

    def test_2x_inflation_fails(self, tmp_path):
        # The acceptance scenario: doubled solve time must trip the gate.
        bench = self._bench_file(tmp_path, baseline=0.5)
        directory = write_manifest_dir(tmp_path, "r", self._tagged(1.0))
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([directory])
            report = catalog.regress([bench], threshold=1.5)
        assert not report.ok
        assert "FAIL" in report.render()

    def test_latest_run_judged(self, tmp_path):
        bench = self._bench_file(tmp_path, baseline=0.5)
        runs = tmp_path / "runs"
        write_manifest_dir(
            runs, "old", self._tagged(5.0, run_id="old", started=100.0)
        )
        write_manifest_dir(
            runs, "new", self._tagged(0.5, run_id="new", started=200.0)
        )
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([runs])
            report = catalog.regress([bench], threshold=1.5)
        assert report.ok
        assert report.checks[0].run_id == "new"

    def test_missing_sizes_noted(self, tmp_path):
        bench = tmp_path / "BENCH_solver.json"
        bench.write_text(json.dumps({
            "benchmark": "solver_fastpath",
            "sizes": [
                {"n": 10, "fast_cold_seconds": 0.5},
                {"n": 60, "fast_cold_seconds": 5.0},
            ],
        }))
        directory = write_manifest_dir(tmp_path, "r", self._tagged(0.5))
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([directory])
            report = catalog.regress([bench])
        assert report.ok
        assert len(report.checks) == 1
        assert any("n=60" in note for note in report.notes)

    def test_trajectory_kinds(self, tmp_path):
        tag, column, baselines = load_bench_trajectory(
            self._bench_file(tmp_path)
        )
        assert (tag, column) == ("solver", "solve_seconds")
        assert baselines == {10: 0.5}
        formation = tmp_path / "BENCH_formation.json"
        formation.write_text(json.dumps({
            "benchmark": "formation_cache",
            "sizes": [{"n": 10, "cached_seconds": 0.1}],
        }))
        assert load_bench_trajectory(formation)[0:2] == (
            "formation", "formation_seconds"
        )
        junk = tmp_path / "junk.json"
        junk.write_text("{}")
        with pytest.raises(CatalogError, match="unknown benchmark"):
            load_bench_trajectory(junk)

    def test_elastic_scaling_kind(self, tmp_path):
        scaling = tmp_path / "BENCH_scaling.json"
        scaling.write_text(json.dumps({
            "benchmark": "elastic_scaling",
            "sizes": [{"n": 20, "elastic_formation_seconds": 0.6}],
        }))
        assert load_bench_trajectory(scaling) == (
            "scaling", "formation_seconds", {20: 0.6}
        )

    def test_elastic_scaling_run_gated(self, tmp_path):
        """A scaling-tagged run's formation phase is judged against
        ``elastic_formation_seconds`` (the ``parma scale`` loop)."""
        scaling = tmp_path / "BENCH_scaling.json"
        scaling.write_text(json.dumps({
            "benchmark": "elastic_scaling",
            "sizes": [{"n": 20, "elastic_formation_seconds": 0.5}],
        }))
        good = make_manifest(
            run_id="scale-ok",
            started=100.0,
            command="scale",
            n=20,
            extra={"bench": "scaling"},
            phases={"formation": {"count": 1, "total": 0.6, "self": 0.6}},
        )
        directory = write_manifest_dir(tmp_path, "scale-ok", good)
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([directory])
            report = catalog.regress([scaling], threshold=1.5)
        assert report.ok
        assert report.checks[0].bench == "scaling"
        assert report.checks[0].ratio == pytest.approx(1.2)
        slow = make_manifest(
            run_id="scale-slow",
            started=200.0,
            command="scale",
            n=20,
            extra={"bench": "scaling"},
            phases={"formation": {"count": 1, "total": 2.0, "self": 2.0}},
        )
        directory = write_manifest_dir(tmp_path, "scale-slow", slow)
        with Catalog(tmp_path / "cat.db") as catalog:
            catalog.ingest([directory])
            report = catalog.regress([scaling], threshold=1.5)
        assert not report.ok


class TestBenchManifests:
    """Every bench kind round-trips: manifests -> catalog -> regress."""

    @pytest.mark.parametrize("name", sorted(BENCH_KINDS))
    def test_round_trip_passes_the_gate(self, name, tmp_path, capsys):
        kind = BENCH_KINDS[name]
        rows = [
            {"n": n, kind.key: seconds}
            | ({kind.gauge: 3.0} if kind.gauge else {})
            for n, seconds in ((8, 0.02), (12, 0.05))
        ]
        report = {"benchmark": name, "sizes": rows}
        bench = tmp_path / kind.file
        bench.write_text(json.dumps(report))
        db = tmp_path / "cat.db"
        write_bench_manifests(
            report, tmp_path / "manifests", catalog_db=db,
            config=lambda row: {"solver": "nested", "status": "ok"},
        )
        assert "ingested" in capsys.readouterr().out
        manifest = load_manifest(
            tmp_path / "manifests" / f"bench-{kind.tag}-n12" / "manifest.json"
        )
        assert manifest["config"] == {
            "command": f"bench-{kind.tag}", "n": 12,
            "solver": "nested", "status": "ok",
        }
        assert manifest["extra"]["bench"] == kind.tag
        assert manifest["phases"][kind.phase]["total_seconds"] == pytest.approx(
            0.05
        )
        with Catalog(db) as catalog:
            gate = catalog.regress([bench], threshold=1.01)
        assert gate.ok
        assert sorted(c.n for c in gate.checks) == [8, 12]
        assert {c.bench for c in gate.checks} == {kind.tag}
        for check in gate.checks:
            assert check.observed_seconds == pytest.approx(
                check.baseline_seconds
            )

    def test_unknown_kind_refused(self, tmp_path):
        with pytest.raises(CatalogError, match="unknown benchmark kind"):
            write_bench_manifests(
                {"benchmark": "nope", "sizes": []}, tmp_path / "m"
            )


class TestSchema:
    def test_version_and_migration_audit(self, tmp_path):
        with Catalog(tmp_path / "cat.db") as catalog:
            assert catalog.schema_version() == CATALOG_SCHEMA_VERSION
            _, rows = catalog.query("SELECT version FROM catalog_migrations")
            assert rows == [(CATALOG_SCHEMA_VERSION,)]

    def test_newer_schema_refused(self, tmp_path):
        db = tmp_path / "cat.db"
        with Catalog(db):
            pass
        conn = sqlite3.connect(db)
        conn.execute(f"PRAGMA user_version = {CATALOG_SCHEMA_VERSION + 1}")
        conn.close()
        with pytest.raises(CatalogError, match="newer"):
            Catalog(db)

    def test_reopen_is_idempotent(self, tmp_path):
        db = tmp_path / "cat.db"
        directory = write_manifest_dir(tmp_path, "r", make_manifest())
        with Catalog(db) as catalog:
            catalog.ingest([directory])
        with Catalog(db) as catalog:  # re-running migrations must not wipe
            assert catalog.count() == 1

    def test_readonly_missing_file(self, tmp_path):
        with pytest.raises(CatalogError, match="no run catalog"):
            Catalog(tmp_path / "absent.db", readonly=True)

    def test_readonly_cannot_ingest(self, tmp_path):
        db = tmp_path / "cat.db"
        with Catalog(db):
            pass
        with Catalog(db, readonly=True) as catalog:
            with pytest.raises(CatalogError, match="read-only"):
                catalog.ingest_manifest(make_manifest())


class TestSince:
    def test_relative(self):
        assert parse_since("12h", now=100_000.0) == pytest.approx(
            100_000.0 - 12 * 3600
        )
        assert parse_since("7d", now=1e6) == pytest.approx(1e6 - 7 * 86400)

    def test_iso(self):
        from datetime import datetime

        expected = datetime.fromisoformat("2026-08-01").timestamp()
        assert parse_since("2026-08-01") == pytest.approx(expected)

    def test_garbage(self):
        with pytest.raises(CatalogError, match="cannot parse"):
            parse_since("next tuesday")
