"""BLAS thread budget: arithmetic, the skipped setter call, forked children.

The unit tests swap in fake OpenBLAS images; the fork checks read the
real count back inside an executor child and a fleet shard, through
the ``blas_threads`` field each child writes into its manifests.
"""

import os

import numpy as np
import pytest

from repro.observe import Observer, load_manifest
from repro.parallel import blas
from repro.parallel.pymp import fork_available
from repro.serve import FleetConfig, ServiceConfig, SolveClient, SolveFleet
from repro.serve.executor import ExecutorPool
from repro.serve.protocol import STATUS_OK, Request, format_address
from repro.serve.queue import Ticket


class _FakeOpenblas:
    """Records setter calls; reports ``threads`` until set."""

    def __init__(self, threads: int) -> None:
        self.threads = threads
        self.calls: list[int] = []

    def set(self, count: int) -> None:
        self.calls.append(count)
        self.threads = count

    def get(self) -> int:
        return self.threads


@pytest.fixture()
def fake(monkeypatch):
    lib = _FakeOpenblas(2)
    monkeypatch.setattr(blas, "_loaded", (blas._Openblas(lib.set, lib.get),))
    monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
    return lib


class TestBudget:
    @pytest.mark.parametrize(
        "base, slots, expected",
        [(2, 1, 2), (2, 2, 1), (8, 3, 2), (2, 4, 1), (1, 2, 1)],
    )
    def test_floor_division_with_a_floor_of_one(
        self, monkeypatch, base, slots, expected
    ):
        monkeypatch.setattr(blas, "threads", lambda: base)
        assert blas.budget(slots) == expected

    def test_nests_inside_a_budgeted_child(self, fake):
        fake.threads = blas.budget(2)  # a shard capped at 2 // 2
        assert blas.budget(2) == 1  # its own 2 executor children

    def test_falls_back_to_usable_cpus_without_openblas(self, monkeypatch):
        monkeypatch.setattr(blas, "_loaded", ())
        monkeypatch.setattr(blas, "usable_cpus", lambda: 4)
        assert blas.threads() is None
        assert blas.budget(2) == 2


class TestApply:
    @pytest.mark.parametrize("count", [2, 3])
    def test_no_setter_call_when_budget_not_below_current(self, fake, count):
        blas.apply(count)
        assert fake.calls == []
        assert "OPENBLAS_NUM_THREADS" not in os.environ

    def test_caps_and_exports_when_below_current(self, fake):
        blas.apply(1)
        assert fake.calls == [1]
        assert blas.threads() == 1
        assert os.environ["OPENBLAS_NUM_THREADS"] == "1"

    def test_no_op_without_proc(self, monkeypatch):
        def no_proc(*args, **kwargs):
            raise FileNotFoundError("/proc/self/maps")

        monkeypatch.setattr(blas, "_loaded", None)
        monkeypatch.setattr(blas, "open", no_proc, raising=False)
        monkeypatch.delenv("OPENBLAS_NUM_THREADS", raising=False)
        assert blas.resolve() == ()
        blas.apply(1)
        assert blas.threads() is None
        assert "OPENBLAS_NUM_THREADS" not in os.environ


def _forks_can_be_budgeted() -> bool:
    return fork_available() and bool(blas.resolve()) and blas.usable_cpus() >= 2


needs_budgeted_fork = pytest.mark.skipif(
    not _forks_can_be_budgeted(),
    reason="needs os.fork, an OpenBLAS thread setter and >= 2 usable CPUs",
)


def _z(n: int = 6, seed: int = 7) -> np.ndarray:
    return np.random.default_rng(seed).uniform(2000.0, 11000.0, size=(n, n))


def _manifest_blas_threads(locator) -> int:
    return load_manifest(locator)["environment"]["blas_threads"]


@needs_budgeted_fork
class TestForkedChildren:
    def test_executor_child_runs_on_its_share(self, tmp_path):
        parent = blas.threads()
        pool = ExecutorPool(
            2, tmp_path / "results", observer=Observer(), term_grace=0.2
        )
        pool.start()
        try:
            tickets = [
                Ticket(Request(z=_z(seed=slot).tolist(), id=f"slot-{slot}"))
                for slot in range(2)
            ]
            for slot, ticket in enumerate(tickets):
                pool.run_batch(slot, ticket)
        finally:
            pool.stop()
        for ticket in tickets:
            response = ticket.wait(timeout=1.0)
            assert response is not None and response.status == STATUS_OK
            assert _manifest_blas_threads(response.manifest_path) == max(
                1, parent // 2
            )
        assert blas.threads() == parent

    def test_fleet_shard_runs_on_its_share(self, tmp_path):
        parent = blas.threads()
        fleet = SolveFleet(
            FleetConfig(
                listen="127.0.0.1:0",
                results_dir=tmp_path / "fleet",
                shards=2,
                service=ServiceConfig(
                    socket_path=tmp_path / "template.sock",
                    results_dir=tmp_path / "template",
                    executor="thread",
                    term_grace=0.2,
                ),
            )
        )
        fleet.start()
        try:
            client = SolveClient(format_address(fleet.tcp_address), timeout=60.0)
            assert client.wait_ready(timeout=10.0)
            response = client.solve(_z(), id="budgeted")
        finally:
            fleet.stop()
        assert response.status == STATUS_OK
        assert _manifest_blas_threads(response.manifest_path) == max(
            1, parent // 2
        )
        assert blas.threads() == parent
