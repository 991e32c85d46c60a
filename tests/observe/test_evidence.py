"""The evidence log: one record per served request, read by locator."""

import json
import os
import sys
import threading
from pathlib import Path

import pytest

from repro.cli import main
from repro.observe import Observer, load_manifest
from repro.observe.catalog import Catalog
from repro.observe.evidence import (
    EvidenceLog,
    iter_log,
    parse_locator,
    read_record,
    record_spans,
)
from repro.observe.manifest import ManifestError


def _append(log: EvidenceLog, request_id: str) -> str:
    obs = Observer()
    with obs.span("run", command="serve"):
        with obs.span("solve"):
            obs.count("serve.test", 1.0)
    config = {"command": "serve", "request_id": request_id, "status": "ok"}
    return log.append(obs.build_manifest(config=config), obs.spans)


class TestLocator:
    def test_round_trips_through_load_manifest_and_catalog(self, tmp_path):
        log = EvidenceLog(tmp_path / "results")
        locators = [_append(log, f"r{i}") for i in range(3)]
        path, offset = parse_locator(locators[1])
        assert path == log.path and offset > 0
        assert load_manifest(locators[1])["config"]["request_id"] == "r1"
        record = read_record(locators[1])
        assert [s.name for s in record_spans(record)] == ["solve", "run"]
        with Catalog(tmp_path / "cat.db") as catalog:
            one = catalog.ingest([locators[1]])
            assert (one.scanned, one.ingested, one.errors) == (1, 1, [])
            rest = catalog.ingest([tmp_path / "results"])
            assert (rest.ingested, rest.duplicates) == (2, 1)
            again = catalog.ingest([tmp_path / "results"])
            assert (again.ingested, again.duplicates) == (0, 3)
            assert "0 ingested" in again.summary()
            sources = {row["source_path"] for row in catalog.list_runs()}
        assert sources == set(locators)

    def test_plain_paths_are_not_locators(self, tmp_path):
        assert parse_locator(str(tmp_path / "manifest.json")) is None
        assert parse_locator(str(tmp_path / "evidence-x.jsonl")) is None
        assert parse_locator("a/log.jsonl#12") == (Path("a/log.jsonl"), 12)

    def test_record_matches_the_directory_manifest(self, tmp_path):
        # The CLI's manifest.json and a served record share one builder.
        config = {"command": "serve", "request_id": "same"}
        obs = Observer(trace_dir=tmp_path / "run")
        with obs.span("run"):
            pass
        written = obs.finalize(config=config)
        locator = EvidenceLog(tmp_path / "results").append(
            Observer().build_manifest(config=config), ()
        )
        appended = load_manifest(locator)
        assert sorted(appended) == sorted(written)
        assert appended["config"] == written["config"]

    def test_summarize_reads_a_locator_and_renders_chrome(
        self, tmp_path, capsys
    ):
        locator = _append(EvidenceLog(tmp_path / "results"), "cli")
        chrome = tmp_path / "one.chrome.json"
        code = main(
            ["trace", "summarize", locator, "--tree", "--chrome", str(chrome)]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert "request_id=cli" in out and "span tree:" in out
        events = json.loads(chrome.read_text())["traceEvents"]
        assert {e["name"] for e in events if e["ph"] == "X"} == {"run", "solve"}


class TestConcurrentAppends:
    def test_threads_never_interleave_or_lose_a_record(self, tmp_path):
        log = EvidenceLog(tmp_path / "results")
        locators = []
        lock = threading.Lock()

        def writer(t):
            for i in range(25):
                locator = _append(log, f"w{t}-{i}")
                with lock:
                    locators.append(locator)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [threading.Thread(target=writer, args=(t,)) for t in range(8)]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(t.is_alive() for t in threads)
        entries = list(iter_log(log.path))
        assert all(isinstance(record, dict) for _, record in entries)
        assert sorted(loc for loc, _ in entries) == sorted(locators)
        assert len(set(locators)) == 8 * 25


class TestTornTail:
    def test_whole_lines_ingest_and_the_torn_one_is_an_error(self, tmp_path):
        log = EvidenceLog(tmp_path / "results")
        locators = [_append(log, f"r{i}") for i in range(3)]
        size = log.path.stat().st_size
        _, last = parse_locator(locators[-1])
        os.truncate(log.path, last + (size - last) // 2)  # killed mid-write
        entries = list(iter_log(log.path))
        assert [loc for loc, _ in entries] == locators
        assert [isinstance(r, ManifestError) for _, r in entries] == [
            False, False, True,
        ]
        with pytest.raises(ManifestError, match="torn"):
            read_record(locators[-1])
        with Catalog(tmp_path / "cat.db") as catalog:
            report = catalog.ingest([tmp_path / "results"])
        assert (report.scanned, report.ingested) == (3, 2)
        assert [source for source, _ in report.errors] == [locators[-1]]

    def test_failed_write_abandons_the_log(self, tmp_path, monkeypatch):
        log = EvidenceLog(tmp_path / "results")
        first = _append(log, "before")

        def broken_fsync(fd):
            raise OSError(28, "No space left on device")

        monkeypatch.setattr(os, "fsync", broken_fsync)
        with pytest.raises(OSError):
            _append(log, "lost")
        monkeypatch.undo()
        after = _append(log, "after")
        assert parse_locator(after)[0] != parse_locator(first)[0]
        assert parse_locator(after)[1] == 0
        assert load_manifest(after)["config"]["request_id"] == "after"
