"""Tests for the mpi4py-like message-passing runtime (real processes)."""

import os
import signal
import time

import numpy as np
import pytest

from repro.parallel.mpi import ANY_TAG, MPIError, MPITimeout, run_mpi


class TestPointToPoint:
    def test_send_recv_object(self):
        def prog(comm):
            if comm.Get_rank() == 0:
                comm.send({"payload": [1, 2, 3]}, dest=1)
                return None
            return comm.recv(source=0)

        results = run_mpi(prog, 2)
        assert results[1] == {"payload": [1, 2, 3]}

    def test_send_recv_numpy_buffer(self):
        def prog(comm):
            if comm.Get_rank() == 0:
                comm.Send(np.arange(10, dtype="i"), dest=1)
                return None
            buf = np.empty(10, dtype="i")
            comm.Recv(buf, source=0)
            return buf.tolist()

        results = run_mpi(prog, 2)
        assert results[1] == list(range(10))

    def test_recv_buffer_mismatch(self):
        def prog(comm):
            if comm.Get_rank() == 0:
                comm.Send(np.arange(4, dtype="i"), dest=1)
                return True
            buf = np.empty(9, dtype="i")
            try:
                comm.Recv(buf, source=0)
            except MPIError:
                return "caught"
            return "missed"

        assert run_mpi(prog, 2)[1] == "caught"

    def test_tag_selective_receive(self):
        def prog(comm):
            if comm.Get_rank() == 0:
                comm.send("first", dest=1, tag=1)
                comm.send("second", dest=1, tag=2)
                return None
            second = comm.recv(source=0, tag=2)  # out of order
            first = comm.recv(source=0, tag=1)  # buffered
            return (first, second)

        assert run_mpi(prog, 2)[1] == ("first", "second")

    def test_any_tag(self):
        def prog(comm):
            if comm.Get_rank() == 0:
                comm.send("x", dest=1, tag=7)
                return None
            return comm.recv(source=0, tag=ANY_TAG)

        assert run_mpi(prog, 2)[1] == "x"

    def test_send_to_self_rejected(self):
        def prog(comm):
            try:
                comm.send("oops", dest=comm.Get_rank())
            except MPIError:
                return "rejected"
            return "allowed"

        assert run_mpi(prog, 2) == ["rejected", "rejected"]


class TestCollectives:
    def test_bcast(self):
        def prog(comm):
            data = {"n": 17} if comm.Get_rank() == 0 else None
            return comm.bcast(data, root=0)["n"]

        assert run_mpi(prog, 3) == [17, 17, 17]

    def test_bcast_buffer(self):
        def prog(comm):
            buf = (
                np.arange(5.0)
                if comm.Get_rank() == 0
                else np.empty(5, dtype=np.float64)
            )
            comm.Bcast(buf, root=0)
            return buf.sum()

        assert run_mpi(prog, 3) == [10.0, 10.0, 10.0]

    def test_scatter_gather_roundtrip(self):
        def prog(comm):
            rank, size = comm.Get_rank(), comm.Get_size()
            chunks = [i * 10 for i in range(size)] if rank == 0 else None
            mine = comm.scatter(chunks, root=0)
            return comm.gather(mine + 1, root=0)

        results = run_mpi(prog, 4)
        assert results[0] == [1, 11, 21, 31]
        assert results[1] is None

    def test_scatter_wrong_chunk_count(self):
        def prog(comm):
            if comm.Get_rank() == 0:
                try:
                    comm.scatter([1], root=0)
                except MPIError:
                    # Unblock peers so the run terminates cleanly.
                    for r in range(1, comm.Get_size()):
                        comm.send(None, r, tag=-1001)
                    return "caught"
            else:
                comm.recv(0, tag=-1001)
            return "ok"

        assert run_mpi(prog, 2)[0] == "caught"

    def test_allreduce(self):
        def prog(comm):
            return comm.allreduce(comm.Get_rank() + 1)

        assert run_mpi(prog, 4) == [10, 10, 10, 10]

    def test_allreduce_buffer(self):
        def prog(comm):
            send = np.full(3, float(comm.Get_rank()))
            recv = np.empty(3)
            comm.Allreduce(send, recv)
            return recv.tolist()

        assert run_mpi(prog, 3) == [[3.0, 3.0, 3.0]] * 3

    def test_allgather(self):
        def prog(comm):
            return comm.allgather(comm.Get_rank() ** 2)

        assert run_mpi(prog, 3) == [[0, 1, 4]] * 3

    def test_reduce_custom_op(self):
        def prog(comm):
            return comm.reduce(comm.Get_rank() + 1, op=lambda a, b: a * b)

        assert run_mpi(prog, 4)[0] == 24

    def test_barrier(self):
        def prog(comm):
            comm.barrier()
            return comm.Get_rank()

        assert run_mpi(prog, 3) == [0, 1, 2]


class TestRuntime:
    def test_single_rank(self):
        assert run_mpi(lambda comm: comm.Get_size(), 1) == [1]

    def test_rank_failure_propagates(self):
        def prog(comm):
            if comm.Get_rank() == 1:
                raise RuntimeError("rank down")
            return "ok"

        with pytest.raises(MPIError):
            run_mpi(prog, 2)

    def test_extra_args(self):
        def prog(comm, offset):
            return comm.Get_rank() + offset

        assert run_mpi(prog, 2, args=(100,)) == [100, 101]

    def test_invalid_size(self):
        with pytest.raises(ValueError):
            run_mpi(lambda c: None, 0)

    def test_parallel_pi_like_reduction(self):
        """The mpi4py tutorial's compute-pi pattern (guide example)."""

        def prog(comm):
            rank, size = comm.Get_rank(), comm.Get_size()
            n = 200
            h = 1.0 / n
            s = sum(
                4.0 / (1.0 + ((i + 0.5) * h) ** 2)
                for i in range(rank, n, size)
            )
            return comm.allreduce(s * h)

        results = run_mpi(prog, 4)
        assert results[0] == pytest.approx(np.pi, abs=1e-4)
        assert all(r == results[0] for r in results)


class TestTimeout:
    @pytest.mark.parametrize(
        "ignore_term", [False, True], ids=["sleeps", "ignores-sigterm"]
    )
    def test_timeout_kills_and_reaps_every_rank(self, tmp_path, ignore_term):
        def prog(comm):
            (tmp_path / f"rank{comm.Get_rank()}.pid").write_text(str(os.getpid()))
            if comm.Get_rank() == 1:
                if ignore_term:  # only the SIGKILL rung can end this rank
                    signal.signal(signal.SIGTERM, signal.SIG_IGN)
                time.sleep(30.0)
            return "ok"

        t0 = time.monotonic()
        with pytest.raises(MPITimeout):
            run_mpi(prog, 2, timeout=0.5)
        assert time.monotonic() - t0 < 5.0
        pids = [int((tmp_path / f"rank{r}.pid").read_text()) for r in range(2)]
        for pid in pids:
            # Gone, not a zombie: killed *and* reaped by the launcher.
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)
