"""Executor-pool unit tests: forked workers, supervision, salvage.

These run real forks and real (tiny) solves, but no service socket:
tickets go straight into :meth:`ExecutorPool.run_batch`, one at a time,
which is the exact path the service dispatchers use.
"""

import os
import time

import numpy as np
import pytest

from repro.core.engine import ParmaEngine
from repro.observe import Observer
from repro.parallel.pymp import fork_available
from repro.resilience.faults import FaultPlan
from repro.serve.executor import ExecutorPool
from repro.serve.protocol import STATUS_OK, STATUS_WORKER_LOST, Request
from repro.serve.queue import Ticket

pytestmark = pytest.mark.skipif(
    not fork_available(), reason="executor pool requires os.fork"
)


def _z(n: int, seed: int = 7) -> np.ndarray:
    rng = np.random.default_rng(seed)
    return rng.uniform(2000.0, 11000.0, size=(n, n))


def _tickets(count: int, n: int = 6) -> list[Ticket]:
    return [
        Ticket(Request(z=_z(n, seed=i).tolist(), id=f"req-{i}"))
        for i in range(count)
    ]


def _run(pool: ExecutorPool, tickets: list[Ticket]) -> None:
    """Dispatch tickets one after another, as a service dispatcher does."""
    for ticket in tickets:
        pool.run_batch(0, ticket)


def _pool(tmp_path, **kwargs) -> ExecutorPool:
    kwargs.setdefault("observer", Observer())
    kwargs.setdefault("stall_timeout", 10.0)
    kwargs.setdefault("term_grace", 0.2)
    return ExecutorPool(1, tmp_path / "results", **kwargs)


class TestChannelHygiene:
    def test_closing_one_slot_channel_retires_only_its_child(self, tmp_path):
        # A child that inherited a sibling's parent socket would keep
        # that channel open, and the sibling would never see EOF.
        pool = ExecutorPool(
            2, tmp_path / "results", observer=Observer(), term_grace=0.2
        )
        pool.start()
        try:
            first = pool._children[0]
            first.sock.close()
            code = None
            t_end = time.monotonic() + 2.0
            while code is None and time.monotonic() < t_end:
                pid, status = os.waitpid(first.pid, os.WNOHANG)
                if pid:
                    code = os.waitstatus_to_exitcode(status)
                    pool._children[0] = None  # reaped here
                else:
                    time.sleep(0.01)
            assert code == 0
            ticket = _tickets(1)[0]
            pool.run_batch(1, ticket)  # the sibling still serves
            assert ticket.wait(timeout=1.0).status == STATUS_OK
        finally:
            pool.stop()


class TestHappyPath:
    def test_batch_resolves_bit_identical_to_standalone(self, tmp_path):
        pool = _pool(tmp_path)
        pool.start()
        try:
            tickets = _tickets(3)
            _run(pool, tickets)
        finally:
            pool.stop()
        engine = ParmaEngine(strategy="single", threshold_sigmas=3.0)
        for i, ticket in enumerate(tickets):
            response = ticket.wait(timeout=1.0)
            assert response is not None and response.status == STATUS_OK
            expected = engine.parametrize(_z(6, seed=i)).resistance
            assert np.array_equal(response.resistance_array(), expected)
        assert pool.respawns == 0 and pool.salvaged == 0

    def test_manifests_land_in_results_dir(self, tmp_path):
        pool = _pool(tmp_path)
        pool.start()
        try:
            tickets = _tickets(1)
            _run(pool, tickets)
        finally:
            pool.stop()
        response = tickets[0].wait(timeout=1.0)
        assert response.manifest_path is not None
        assert (tmp_path / "results" / "req-req-0" / "manifest.json").exists()

    def test_metrics_snapshot_back_to_parent(self, tmp_path):
        observer = Observer()
        pool = _pool(tmp_path, observer=observer)
        pool.start()
        try:
            _run(pool, _tickets(2))
        finally:
            pool.stop()
        snapshot = observer.metrics.snapshot()
        assert snapshot["serve.responses.ok"]["value"] == 2.0


class TestWorkerLoss:
    def test_kill_mid_batch_salvages_onto_respawn(self, tmp_path):
        observer = Observer()
        pool = _pool(
            tmp_path,
            observer=observer,
            faults=FaultPlan(serve_kill_requests=(1,)),
        )
        pool.start()
        try:
            tickets = _tickets(3)
            _run(pool, tickets)
        finally:
            pool.stop()
        engine = ParmaEngine(strategy="single", threshold_sigmas=3.0)
        for i, ticket in enumerate(tickets):
            response = ticket.wait(timeout=1.0)
            assert response is not None and response.status == STATUS_OK
            expected = engine.parametrize(_z(6, seed=i)).resistance
            assert np.array_equal(response.resistance_array(), expected)
        assert pool.respawns == 1
        # The child died at its second request: only that request was
        # in flight, so it alone is salvaged.
        assert pool.salvaged == 1
        snapshot = observer.metrics.snapshot()
        assert snapshot["serve.worker_respawns"]["value"] == 1.0
        assert snapshot["serve.requests_salvaged"]["value"] == 1.0
        assert snapshot["serve.worker_lost"]["value"] == 1.0

    def test_salvage_exhaustion_answers_worker_lost(self, tmp_path):
        pool = _pool(
            tmp_path,
            max_salvage=1,
            faults=FaultPlan(
                serve_kill_requests=(0,), serve_kill_generations=99
            ),
        )
        pool.start()
        try:
            tickets = _tickets(1)
            _run(pool, tickets)
        finally:
            pool.stop()
        response = tickets[0].wait(timeout=1.0)
        assert response is not None
        assert response.status == STATUS_WORKER_LOST
        assert response.retriable
        assert pool.respawns >= 1

    def test_hang_is_reclaimed_by_stall_watchdog(self, tmp_path):
        pool = _pool(
            tmp_path,
            stall_timeout=1.0,
            faults=FaultPlan(serve_hang_requests=(0,)),
        )
        pool.start()
        try:
            tickets = _tickets(1)
            _run(pool, tickets)
        finally:
            pool.stop()
        response = tickets[0].wait(timeout=1.0)
        assert response is not None and response.status == STATUS_OK
        assert pool.respawns == 1 and pool.salvaged == 1

    def test_corrupt_frame_treated_as_loss(self, tmp_path):
        pool = _pool(tmp_path, faults=FaultPlan(serve_corrupt_frames=(0,)))
        pool.start()
        try:
            tickets = _tickets(1)
            _run(pool, tickets)
        finally:
            pool.stop()
        response = tickets[0].wait(timeout=1.0)
        assert response is not None and response.status == STATUS_OK
        assert pool.respawns == 1

    def test_dropped_connection_treated_as_loss(self, tmp_path):
        pool = _pool(tmp_path, faults=FaultPlan(serve_drop_connections=(0,)))
        pool.start()
        try:
            tickets = _tickets(1)
            _run(pool, tickets)
        finally:
            pool.stop()
        response = tickets[0].wait(timeout=1.0)
        assert response is not None and response.status == STATUS_OK
        assert pool.respawns == 1

    def test_deadline_answered_inside_child(self, tmp_path):
        # A tight-but-nonzero budget: the child's own engine raises
        # DeadlineExceeded and answers status deadline-exceeded — the
        # worker is NOT killed for it.
        pool = _pool(tmp_path)
        pool.start()
        try:
            ticket = Ticket(
                Request(z=_z(12).tolist(), id="dl", deadline=1e-9)
            )
            pool.run_batch(0, ticket)
        finally:
            pool.stop()
        response = ticket.wait(timeout=1.0)
        assert response is not None
        assert response.status == "deadline-exceeded"
        assert pool.respawns == 0
