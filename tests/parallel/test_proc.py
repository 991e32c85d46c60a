"""The shared process lifecycle: spawn's fd policy and exit net, poll, kill.

The exit-net test runs at every site that forks through
:func:`repro.parallel.proc.spawn`: a target that raises must exit
non-zero, a returning one must exit 0, and no child may ever return
into the caller's stack after the fork.
"""

import json
import os
import signal
import time
from pathlib import Path

import pytest

import repro.serve.executor as executor_mod
import repro.serve.fleet as fleet_mod
from repro.parallel import proc
from repro.parallel.elastic import ElasticPool
from repro.parallel.mpi import run_mpi
from repro.parallel.pymp import fork_available
from repro.serve.executor import ExecutorPool
from repro.serve.fleet import FleetConfig, SolveFleet

pytestmark = pytest.mark.skipif(not fork_available(), reason="requires os.fork")


def _wait(pid: int, seconds: float = 5.0) -> int | None:
    """Poll ``pid`` until it exits or ``seconds`` pass."""
    t_end = time.monotonic() + seconds
    while time.monotonic() < t_end:
        code = proc.poll(pid)
        if code is not None:
            return code
        time.sleep(0.005)
    return None


class TestSpawn:
    @pytest.mark.skipif(
        not Path("/proc/self/fd").is_dir(), reason="needs /proc"
    )
    def test_child_keeps_only_stdio_and_keep_fds(self):
        r, w = os.pipe()
        other_r, other_w = os.pipe()

        def report(fd: int) -> None:
            seen = set()
            for name in os.listdir("/proc/self/fd"):
                try:  # drop the fd listdir itself used
                    os.fstat(int(name))
                except OSError:
                    continue
                seen.add(int(name))
            os.write(fd, json.dumps(sorted(seen)).encode())

        pid = proc.spawn(report, w, keep_fds={w})
        os.close(w)
        try:
            with os.fdopen(r, "rb") as fh:
                seen = json.loads(fh.read())
            assert _wait(pid) == 0
        finally:
            os.close(other_r)
            os.close(other_w)
        assert set(seen) - {0, 1, 2} == {w}

    def test_blas_budget_applied_in_child_only(self, monkeypatch):
        applied = []
        monkeypatch.setattr(proc.blas, "budget", lambda slots: 8 // slots)
        monkeypatch.setattr(proc.blas, "apply", applied.append)
        r, w = os.pipe()

        def report() -> None:
            os.write(w, repr(applied).encode())

        pid = proc.spawn(report, keep_fds={w}, blas_slots=4)
        os.close(w)
        with os.fdopen(r, "rb") as fh:
            assert fh.read() == b"[2]"
        assert _wait(pid) == 0
        assert applied == []


class TestPollAndKill:
    def test_poll_is_none_while_running(self):
        pid = proc.spawn(time.sleep, 30.0)
        try:
            assert proc.poll(pid) is None
        finally:
            assert proc.kill(pid, term_grace=1.0) == [-signal.SIGTERM]

    def test_kill_escalates_and_keeps_pid_order(self):
        r, w = os.pipe()

        def stubborn() -> None:
            signal.signal(signal.SIGTERM, signal.SIG_IGN)
            os.write(w, b"x")
            time.sleep(30.0)

        stuck = proc.spawn(stubborn, keep_fds={w})
        os.close(w)
        assert os.read(r, 1) == b"x"  # SIGTERM is ignored from here on
        os.close(r)
        polite = proc.spawn(time.sleep, 30.0)
        t0 = time.monotonic()
        codes = proc.kill(stuck, polite, term_grace=0.3)
        assert codes == [-signal.SIGKILL, -signal.SIGTERM]
        assert time.monotonic() - t0 < 5.0
        for pid in (stuck, polite):
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # reaped, not a zombie

    def test_reaped_pid_counts_as_exited(self):
        pid = proc.spawn(lambda: None)
        assert _wait(pid) == 0
        assert proc.poll(pid) == 0
        assert proc.kill(pid, term_grace=0.1) == [0]


# -- the exit net at every spawn site ------------------------------------------


def _launch_spawn(target, tmp_path, monkeypatch):
    proc.spawn(target)


def _launch_executor(target, tmp_path, monkeypatch):
    monkeypatch.setattr(executor_mod, "_child_main", target)
    pool = ExecutorPool(1, tmp_path / "results", term_grace=0.2)
    pool.start()
    try:
        _wait(pool._children[0].pid)
    finally:
        pool.stop()


def _launch_fleet(target, tmp_path, monkeypatch):
    monkeypatch.setattr(fleet_mod, "_shard_main", target)
    SolveFleet(
        FleetConfig(
            listen="127.0.0.1:0",
            results_dir=tmp_path / "fleet",
            shards=2,
            processes=True,
            ready_timeout=1.0,
        )
    ).start()  # no shard ever listens: raises after killing both


def _launch_elastic(target, tmp_path, monkeypatch):
    monkeypatch.setattr(ElasticPool, "_child_main", target)
    pool = ElasticPool(1, lambda chunk, ctx: (0, 0.0, 0))
    worker = pool._spawn(pool._slots[0])
    _wait(worker.pid)
    pool._retire(worker)


def _launch_mpi(target, tmp_path, monkeypatch):
    run_mpi(target, 2)


_SITES = {
    "spawn": _launch_spawn,
    "executor": _launch_executor,
    "fleet": _launch_fleet,
    "elastic": _launch_elastic,
    "mpi": _launch_mpi,
}


@pytest.mark.parametrize("raises", [True, False], ids=["raises", "returns"])
@pytest.mark.parametrize("site", sorted(_SITES))
def test_exit_net(site, raises, tmp_path, monkeypatch):
    spawned: list[int] = []
    codes: dict[int, int] = {}
    real_spawn, real_poll = proc.spawn, proc.poll

    def spawn_spy(*args, **kwargs):
        spawned.append(real_spawn(*args, **kwargs))
        return spawned[-1]

    def poll_spy(pid):
        code = real_poll(pid)
        if code is not None:
            codes.setdefault(pid, code)  # the first reap has the real code
        return code

    monkeypatch.setattr(proc, "spawn", spawn_spy)
    monkeypatch.setattr(proc, "poll", poll_spy)

    def target(*args):
        if raises:
            raise ValueError("target failed")

    parent = os.getpid()
    marker = tmp_path / "unwound"
    try:
        _SITES[site](target, tmp_path, monkeypatch)
    except RuntimeError:
        pass  # fleet and MPI report their failed children as errors
    finally:
        # Only the caller's stack gets here: a child that returned from
        # spawn would write its own pid too.
        with open(marker, "a") as fh:
            fh.write(f"{os.getpid()}\n")
        if os.getpid() != parent:
            os._exit(0)
    assert marker.read_text().split() == [str(parent)]
    assert spawned
    for pid in spawned:
        if pid not in codes:
            _wait(pid)
    assert [codes.get(pid) for pid in spawned] == [1 if raises else 0] * len(
        spawned
    )
