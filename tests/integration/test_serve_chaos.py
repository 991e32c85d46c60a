"""Acceptance: the service survives executor death without wrong answers.

The contract under test (the crash-isolation tentpole): SIGKILL an
executor worker mid-batch while clients are submitting concurrently,
and (a) the service stays up, (b) every request either completes via
salvage onto a respawned worker or comes back as retriable
``worker-lost``, (c) a client configured with retries ends with a
successful solve, and (d) every successful solve is bit-identical to a
standalone :class:`repro.core.engine.ParmaEngine` run.
"""

import os
import signal
import threading
import time

import numpy as np
import pytest

from repro.core.engine import ParmaEngine
from repro.kirchhoff import forward
from repro.observe import Observer
from repro.parallel.pymp import fork_available
from repro.resilience.faults import FaultPlan
from repro.serve import (
    RETRIABLE_STATUSES,
    STATUS_OK,
    ServiceConfig,
    SolveClient,
    SolveService,
)

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="subprocess executors require os.fork"
)

N = 10


def _z(seed: int) -> np.ndarray:
    # A consistent measurement of a random field, so every solve
    # converges on the primary rung: these tests are about executor
    # death, not about the degradation ladder (uniform noise as Z has
    # no consistent field and walks the ladder for seconds).
    rng = np.random.default_rng(seed)
    return forward.measure(rng.uniform(2000.0, 11000.0, size=(N, N)))


def _expected(seed: int) -> np.ndarray:
    engine = ParmaEngine(strategy="single", threshold_sigmas=3.0)
    return engine.parametrize(_z(seed)).resistance


def _service(tmp_path, obs, **overrides):
    overrides.setdefault("serve_workers", 1)  # deterministic slot routing
    config = ServiceConfig(
        socket_path=tmp_path / "chaos.sock",
        results_dir=tmp_path / "results",
        executor="subprocess",
        term_grace=0.2,
        observer=obs,
        **overrides,
    )
    svc = SolveService(config)
    svc.start()
    assert svc.executor_mode == "subprocess"
    client = SolveClient(config.socket_path, timeout=120.0)
    assert client.wait_ready(timeout=10.0)
    return svc, client


class TestWorkerDeathUnderLoad:
    def test_injected_kill_mid_batch_salvages_every_request(self, tmp_path):
        # Generation 0 dies at its second request; the request it was
        # running must be salvaged onto the respawn.
        obs = Observer()
        svc, client = _service(
            tmp_path, obs, faults=FaultPlan(serve_kill_requests=(1,))
        )
        try:
            results: dict[int, object] = {}
            lock = threading.Lock()

            def submit(seed: int) -> None:
                response = client.solve(_z(seed), id=f"chaos-{seed}")
                with lock:
                    results[seed] = response

            threads = [
                threading.Thread(target=submit, args=(seed,))
                for seed in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            assert len(results) == 6
            for seed, response in results.items():
                assert response.status == STATUS_OK, response.error
                assert np.array_equal(
                    response.resistance_array(), _expected(seed)
                )
            assert svc.pool.respawns >= 1
            assert svc.pool.salvaged >= 1
            stats = client.stats()
            assert stats["worker_respawns"] >= 1
            assert stats["requests_salvaged"] >= 1
        finally:
            svc.stop()

    def test_external_sigkill_mid_batch_keeps_service_up(self, tmp_path):
        # No fault plan at all: murder the executor child from outside
        # while its batch runs, like the OOM killer would.
        obs = Observer()
        svc, client = _service(tmp_path, obs, max_salvage=2)
        try:
            victim = svc.pool._children[0]
            assert victim is not None

            def assassin() -> None:
                time.sleep(0.3)  # let the batch reach the child
                try:
                    os.kill(victim.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass

            killer = threading.Thread(target=assassin)
            results: dict[int, object] = {}
            lock = threading.Lock()

            def submit(seed: int) -> None:
                response = client.solve(_z(seed), id=f"sigkill-{seed}")
                with lock:
                    results[seed] = response

            threads = [
                threading.Thread(target=submit, args=(seed,))
                for seed in range(6)
            ]
            killer.start()
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=120.0)
            killer.join(timeout=10.0)

            assert len(results) == 6
            for seed, response in results.items():
                assert (
                    response.status == STATUS_OK
                    or response.status in RETRIABLE_STATUSES
                )
                if response.status == STATUS_OK:
                    assert np.array_equal(
                        response.resistance_array(), _expected(seed)
                    )
            # The service is alive and still solving after the murder.
            assert client.ping()["kind"] == "pong"
            fresh = client.solve(_z(99), id="post-mortem")
            assert fresh.status == STATUS_OK
            assert np.array_equal(fresh.resistance_array(), _expected(99))
        finally:
            svc.stop()

    def test_client_retry_rides_out_worker_lost(self, tmp_path):
        # max_salvage=0: the first generation's death answers the
        # victim with retriable worker-lost immediately.  A client with
        # retries then resubmits the same id and generation 1 (kills
        # gated off) completes it — bit-identical to standalone.
        obs = Observer()
        svc, client = _service(
            tmp_path,
            obs,
            max_salvage=0,
            faults=FaultPlan(
                serve_kill_requests=(0,), serve_kill_generations=1
            ),
        )
        try:
            retry_client = SolveClient(
                svc.config.socket_path, timeout=120.0, retries=3, backoff=0.05
            )
            response = retry_client.solve(_z(5), id="ride-out")
            assert response.status == STATUS_OK
            assert np.array_equal(response.resistance_array(), _expected(5))
            assert svc.pool.respawns >= 1
            snapshot = obs.metrics.snapshot()
            assert snapshot["serve.responses.worker_lost"]["value"] >= 1.0
        finally:
            svc.stop()

    def test_hung_worker_is_reclaimed(self, tmp_path):
        obs = Observer()
        svc, client = _service(
            tmp_path,
            obs,
            stall_timeout=1.0,
            faults=FaultPlan(serve_hang_requests=(0,)),
        )
        try:
            response = client.solve(_z(1), id="hung")
            assert response.status == STATUS_OK
            assert np.array_equal(response.resistance_array(), _expected(1))
            assert svc.pool.respawns >= 1
        finally:
            svc.stop()

    def test_corrupt_frame_recovers(self, tmp_path):
        obs = Observer()
        svc, client = _service(
            tmp_path, obs, faults=FaultPlan(serve_corrupt_frames=(0,))
        )
        try:
            response = client.solve(_z(2), id="corrupted")
            assert response.status == STATUS_OK
            assert np.array_equal(response.resistance_array(), _expected(2))
            assert svc.pool.respawns >= 1
        finally:
            svc.stop()
