"""Acceptance tests for the persistent solve service (``repro.serve``).

Covers the serving pillars end to end:

- many concurrent submissions across two grid sizes, batching on,
  every request answered with a valid run manifest;
- served results bit-identical to a standalone
  ``ParmaEngine.parametrize`` of the same measurement;
- warm-cache speedup: a later same-``n`` request is measurably faster
  than the cold first one (shared per-``n`` template cache);
- SIGTERM under load drains cleanly: in-flight requests finish,
  queued ones are rejected with a retriable status, the server
  process exits 0;
- the shipped ``examples/serve_client.py`` runs green.
"""

import os
import signal
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.engine import ParmaEngine
from repro.kirchhoff.forward import clear_laplacian_cache
from repro.mea.synthetic import paper_like_spec
from repro.mea.wetlab import run_campaign
from repro.observe import Observer
from repro.observe.evidence import iter_log, parse_locator
from repro.observe.manifest import load_manifest, validate_manifest
from repro.serve import (
    RETRIABLE_STATUSES,
    STATUS_OK,
    Request,
    ServiceConfig,
    SolveClient,
    SolveService,
)

REPO_ROOT = Path(__file__).resolve().parents[2]
SRC_DIR = REPO_ROOT / "src"


def _measurements(n: int, seed: int):
    return run_campaign(paper_like_spec(n, seed=seed), seed=seed).campaign.measurements


@pytest.fixture()
def service(tmp_path):
    obs = Observer()
    config = ServiceConfig(
        socket_path=tmp_path / "parma.sock",
        results_dir=tmp_path / "results",
        max_queue_depth=32,
        observer=obs,
    )
    svc = SolveService(config)
    svc.start()
    client = SolveClient(config.socket_path, timeout=120.0)
    assert client.wait_ready(timeout=10.0)
    yield svc, client, obs
    svc.stop()


class TestConcurrentBatching:
    def test_eight_concurrent_requests_two_sizes(self, service):
        """Acceptance: >=8 concurrent submissions across two n values."""
        svc, client, obs = service
        small = _measurements(10, seed=3)
        large = _measurements(13, seed=4)
        jobs = [(f"s{i}", small[i]) for i in range(4)] + [
            (f"l{i}", large[i]) for i in range(4)
        ]

        responses: dict[str, object] = {}
        lock = threading.Lock()

        def submit(name, meas):
            r = client.solve(
                meas.z_kohm, voltage=meas.voltage, hour=meas.hour, id=name
            )
            with lock:
                responses[name] = r

        threads = [threading.Thread(target=submit, args=j) for j in jobs]
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=300.0)

        assert len(responses) == 8
        for name, meas in jobs:
            r = responses[name]
            assert r.status == STATUS_OK, f"{name}: {r.error}"
            # Every request carries a valid manifest of its own run,
            # one record in its executor child's evidence log.
            assert parse_locator(r.manifest_path)[0].parent == svc.config.results_dir
            manifest = validate_manifest(load_manifest(r.manifest_path))
            assert manifest["config"]["request_id"] == name
            assert manifest["config"]["n"] == meas.z_kohm.shape[0]
            # Served requests never run the formation stage.
            assert not any(
                key.startswith("formation.") for key in manifest["metrics"]
            )
            assert "formation" not in manifest["phases"]
            # Bit-identical to a standalone engine run on the same input.
            reference = ParmaEngine(
                strategy="single", threshold_sigmas=3.0
            ).parametrize(meas)
            assert np.array_equal(r.resistance_array(), reference.resistance)
            assert r.num_regions == reference.detection.num_regions
            # One request per dispatch: nothing shares a batch.
            assert r.batch_size == 1
        snapshot = obs.metrics.snapshot()
        assert snapshot["serve.requests"]["value"] == 8
        # The logs hold exactly these eight records and nothing else.
        locators = [
            loc
            for log in svc.config.results_dir.glob("evidence-*.jsonl")
            for loc, _ in iter_log(log)
        ]
        assert sorted(locators) == sorted(r.manifest_path for r in responses.values())

    def test_second_same_n_request_is_faster_warm(self, service):
        """The first request of an n is labelled cold, later ones warm.

        Warm means the executing host already served that ``n``.  No
        timing is asserted: the per-n template build the cold request
        used to pay is no longer on the serve path.
        """
        svc, client, obs = service
        # Unusual n so no other test has served this size here.
        clear_laplacian_cache()
        meas = _measurements(14, seed=5)

        cold = client.solve(meas[0].z_kohm, hour=meas[0].hour, id="cold")
        assert cold.ok and not cold.cache_warm
        for i in range(3):
            warm = client.solve(
                meas[1 + i % 3].z_kohm, hour=float(i), id=f"warm{i}"
            )
            assert warm.ok and warm.cache_warm
        snapshot = obs.metrics.snapshot()
        assert snapshot["serve.latency.cold_seconds"]["count"] >= 1
        assert snapshot["serve.latency.warm_seconds"]["count"] >= 3

    def test_example_client_runs_green(self):
        """The shipped serving example must stay runnable."""
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run(
            [sys.executable, str(REPO_ROOT / "examples" / "serve_client.py")],
            capture_output=True,
            text=True,
            timeout=300,
            env=env,
            cwd=REPO_ROOT,
        )
        assert proc.returncode == 0, proc.stderr
        assert proc.stdout.count("manifest: ") == 3
        assert "service drained and stopped." in proc.stdout


class TestSigtermDrain:
    def test_sigterm_under_load_drains_cleanly(self, tmp_path):
        """Acceptance: SIGTERM finishes in-flight work, rejects queued
        requests with a retriable status, and exits 0."""
        socket_path = tmp_path / "daemon.sock"
        results_dir = tmp_path / "results"
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.Popen(
            [
                sys.executable,
                "-m",
                "repro.cli",
                "serve",
                "--socket",
                str(socket_path),
                "--results",
                str(results_dir),
            ],
            stdout=subprocess.PIPE,
            stderr=subprocess.STDOUT,
            text=True,
            env=env,
            cwd=REPO_ROOT,
        )
        try:
            client = SolveClient(socket_path, timeout=120.0)
            assert client.wait_ready(timeout=30.0)

            meas = _measurements(16, seed=6)
            responses = []
            lock = threading.Lock()
            first_done = threading.Event()

            def submit(index):
                r = client.submit(
                    Request(
                        z=meas[index % len(meas)].z_kohm.tolist(),
                        hour=float(index),
                        id=f"load{index}",
                    )
                )
                with lock:
                    responses.append(r)
                first_done.set()

            threads = [
                threading.Thread(target=submit, args=(i,)) for i in range(8)
            ]
            for t in threads:
                t.start()
            # Let at least one request complete, then drain mid-load.
            assert first_done.wait(timeout=120.0)
            proc.send_signal(signal.SIGTERM)
            for t in threads:
                t.join(timeout=300.0)
            out, _ = proc.communicate(timeout=120)
        finally:
            if proc.poll() is None:
                proc.kill()
                proc.communicate()

        assert proc.returncode == 0, out
        assert "drained; all in-flight requests completed" in out
        assert len(responses) == 8
        statuses = {r.status for r in responses}
        assert statuses <= {STATUS_OK} | RETRIABLE_STATUSES
        assert STATUS_OK in statuses
        for r in responses:
            if r.status in RETRIABLE_STATUSES:
                # Retriable rejections map to the resubmit exit code.
                assert r.retriable and r.exit_status == 75
                assert r.manifest_path is None
            else:
                # Committed before the reply, so it survives the drain.
                log, _ = parse_locator(r.manifest_path)
                assert log.parent == results_dir
                manifest = validate_manifest(load_manifest(r.manifest_path))
                assert manifest["config"]["request_id"] == r.id

    def test_post_drain_submission_is_rejected_retriable(self, service):
        svc, client, obs = service
        meas = _measurements(8, seed=9)
        svc.request_drain()
        response = client.solve(meas[0].z_kohm)
        assert response.status in RETRIABLE_STATUSES
        assert response.retriable
