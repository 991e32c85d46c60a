""":class:`RequestRunner` tests: every outcome leaves one evidence record."""

import time

import numpy as np

from repro.observe.evidence import iter_log, parse_locator
from repro.observe.manifest import load_manifest, validate_manifest
from repro.serve.protocol import STATUS_FAILED, Request
from repro.serve.runner import RequestRunner


def test_failed_request_writes_failed_manifest(tmp_path):
    z = np.full((6, 6), 5000.0)
    z[2, 3] = float("nan")
    runner = RequestRunner(tmp_path / "results")
    response = runner.run(
        Request(z=z.tolist(), validate="strict", id="bad"),
        batch_size=1,
        warm=False,
        queue_seconds=0.0,
    )
    assert response.status == STATUS_FAILED
    assert "z_kohm[" in response.error
    log, offset = parse_locator(response.manifest_path)
    assert log.is_file() and offset == 0
    manifest = load_manifest(response.manifest_path)
    validate_manifest(manifest)
    assert manifest["config"]["status"] == "failed"
    assert manifest["config"]["request_id"] == "bad"


def test_warm_label_is_owned_by_the_runner(tmp_path):
    """Warm means this runner already ran a request of the same n."""
    from repro.mea.wetlab import quick_device_data
    from repro.observe import Observer

    runner = RequestRunner(tmp_path / "results", observer=Observer())

    def run(n: int, rid: str, **kwargs):
        _, z = quick_device_data(n, seed=3)
        return runner.run(
            Request(z=z.tolist(), id=rid),
            batch_size=1,
            queue_seconds=0.0,
            **kwargs,
        )

    assert not run(6, "a").cache_warm
    warm = run(6, "b")
    assert warm.cache_warm
    assert not run(7, "c").cache_warm
    # An explicit label is honoured as given.
    assert not run(6, "d", warm=False).cache_warm
    assert run(8, "e", warm=True).cache_warm
    snapshot = runner.observer.metrics.snapshot()
    assert snapshot["serve.latency.cold_seconds"]["count"] == 3
    assert snapshot["serve.latency.warm_seconds"]["count"] == 2
    manifest = load_manifest(warm.manifest_path)
    assert manifest["config"]["request_id"] == "b"
    assert manifest["config"]["cache_warm"] is True
    assert "formation" not in manifest["config"]
    assert not any(key.startswith("formation.") for key in manifest["metrics"])


def test_every_outcome_commits_one_record_before_its_response(tmp_path):
    from repro.mea.wetlab import quick_device_data

    runner = RequestRunner(tmp_path / "results")
    _, z = quick_device_data(6, seed=3)
    dirty = np.full((6, 6), 5000.0)
    dirty[2, 3] = float("nan")
    requests = [
        Request(z=z.tolist(), id="ok"),
        Request(z=dirty.tolist(), validate="strict", id="failed"),
        Request(z=z.tolist(), deadline=1e-9, id="deadline"),
    ]
    responses = [
        runner.run(r, warm=False, queue_seconds=0.0) for r in requests
    ]
    assert [r.status for r in responses] == [
        "ok", "failed", "deadline-exceeded",
    ]
    log = parse_locator(responses[0].manifest_path)[0]
    assert [p.name for p in (tmp_path / "results").iterdir()] == [log.name]
    records = list(iter_log(log))
    assert [loc for loc, _ in records] == [r.manifest_path for r in responses]
    assert [rec["manifest"]["config"]["status"] for _, rec in records] == [
        "ok", "failed", "deadline",
    ]


def test_unexpected_engine_error_still_leaves_a_record(tmp_path, monkeypatch):
    from repro.core.engine import ParmaEngine

    def boom(self, *args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(ParmaEngine, "parametrize", boom)
    runner = RequestRunner(tmp_path / "results")
    response = runner.run(
        Request(z=np.full((6, 6), 5000.0).tolist(), id="odd"),
        queue_seconds=0.0,
    )
    assert response.status == STATUS_FAILED
    assert response.error == "RuntimeError: boom"
    manifest = load_manifest(response.manifest_path)
    assert manifest["config"]["status"] == "failed"
    assert manifest["config"]["request_id"] == "odd"


def test_elapsed_covers_the_committed_record(tmp_path, monkeypatch):
    from repro.mea.wetlab import quick_device_data
    from repro.observe import Observer

    runner = RequestRunner(tmp_path / "results", observer=Observer())
    append = runner.evidence.append
    committed = []

    def slow_append(manifest, spans):
        time.sleep(0.05)
        committed.append(time.perf_counter())
        return append(manifest, spans)

    monkeypatch.setattr(runner.evidence, "append", slow_append)
    _, z = quick_device_data(6, seed=3)
    response = runner.run(Request(z=z.tolist(), id="slow"), queue_seconds=0.0)
    assert response.ok and committed
    assert response.elapsed_seconds >= 0.05
    latency = runner.observer.metrics.snapshot()["serve.latency.cold_seconds"]
    assert latency["sum"] >= 0.05

