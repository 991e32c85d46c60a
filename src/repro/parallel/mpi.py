"""A small message-passing runtime with an mpi4py-like surface.

The paper's largest experiments run Parma over MPI (mpi4py + mpich).
Neither is installable here, so this module provides a functional
stand-in for the subset the Parma decomposition needs: SPMD rank
programs, point-to-point ``send``/``recv``, and the collectives
``Bcast``/``Scatter``/``Gather``/``Allreduce``/``Barrier``/
``allgather``, all over a full mesh of socketpairs between forked
local processes.

Semantics follow mpi4py's tutorial conventions (see the bundled HPC
guide): lowercase methods pickle arbitrary objects; uppercase methods
move numpy arrays (here also via pickle — correctness, not zero-copy,
is the goal, since *performance* at scale is measured by the
deterministic model in :mod:`repro.parallel.simcluster`).

Usage::

    def program(comm):
        rank, size = comm.Get_rank(), comm.Get_size()
        data = comm.bcast({"n": 40} if rank == 0 else None, root=0)
        part = compute(rank, size, data)
        return comm.gather(part, root=0)

    results = run_mpi(program, size=4)   # per-rank return values

Real concurrency is bounded by the machine (1 core here ⇒ interleaved
execution), but message semantics, deadlocks, and decomposition
correctness are all real.
"""

from __future__ import annotations

import pickle
import socket
import struct
import time
from typing import Any, Callable, Sequence

import numpy as np

from repro.parallel import proc
from repro.parallel.pymp import join

_LEN = struct.Struct("!Q")

#: Wildcard tag for :meth:`Comm.recv`.
ANY_TAG = -1

#: Seconds a timed-out launch gives its ranks between SIGTERM and SIGKILL.
_TERM_GRACE = 0.5


class MPIError(RuntimeError):
    """Raised for invalid communicator usage or failed ranks."""


class MPITimeout(MPIError):
    """The launcher's timeout expired before every rank reported.

    All remaining ranks were killed (SIGTERM → SIGKILL) and reaped
    before this is raised — an expired launch never leaves orphans.
    """


class Comm:
    """Communicator of one rank over a socket full mesh."""

    def __init__(self, rank: int, size: int, peers: dict[int, socket.socket]) -> None:
        self._rank = rank
        self._size = size
        self._peers = peers
        # Out-of-order delivery buffer: peer -> list[(tag, payload)].
        self._pending: dict[int, list[tuple[int, Any]]] = {p: [] for p in peers}

    def Get_rank(self) -> int:
        return self._rank

    def Get_size(self) -> int:
        return self._size

    # -- point to point -----------------------------------------------------

    def send(self, obj: Any, dest: int, tag: int = 0) -> None:
        if dest == self._rank:
            raise MPIError("send to self is not supported")
        sock = self._sock(dest)
        payload = pickle.dumps((tag, obj), protocol=pickle.HIGHEST_PROTOCOL)
        sock.sendall(_LEN.pack(len(payload)) + payload)

    def recv(self, source: int, tag: int = ANY_TAG) -> Any:
        buf = self._pending[self._sock_key(source)]
        for i, (mtag, obj) in enumerate(buf):
            if tag in (ANY_TAG, mtag):
                buf.pop(i)
                return obj
        sock = self._sock(source)
        while True:
            mtag, obj = self._read_message(sock)
            if tag in (ANY_TAG, mtag):
                return obj
            buf.append((mtag, obj))

    def Send(self, array: np.ndarray, dest: int, tag: int = 0) -> None:
        """Buffer-style send of a numpy array."""
        self.send(np.ascontiguousarray(array), dest, tag)

    def Recv(self, array: np.ndarray, source: int, tag: int = ANY_TAG) -> None:
        """Buffer-style receive *into* ``array`` (shape/dtype must match)."""
        got = self.recv(source, tag)
        got = np.asarray(got)
        if got.shape != array.shape or got.dtype != array.dtype:
            raise MPIError(
                f"Recv buffer mismatch: got {got.dtype}{got.shape}, "
                f"buffer is {array.dtype}{array.shape}"
            )
        array[...] = got

    # -- collectives -----------------------------------------------------------

    def barrier(self) -> None:
        """Two-phase flush through rank 0."""
        if self._rank == 0:
            for r in range(1, self._size):
                self.recv(r, tag=_TAG_BARRIER)
            for r in range(1, self._size):
                self.send(None, r, tag=_TAG_BARRIER)
        else:
            self.send(None, 0, tag=_TAG_BARRIER)
            self.recv(0, tag=_TAG_BARRIER)

    Barrier = barrier

    def bcast(self, obj: Any, root: int = 0) -> Any:
        if self._rank == root:
            for r in range(self._size):
                if r != root:
                    self.send(obj, r, tag=_TAG_COLL)
            return obj
        return self.recv(root, tag=_TAG_COLL)

    def Bcast(self, array: np.ndarray, root: int = 0) -> None:
        """In-place broadcast of a numpy buffer."""
        if self._rank == root:
            self.bcast(np.ascontiguousarray(array), root=root)
        else:
            got = np.asarray(self.bcast(None, root=root))
            if got.shape != array.shape or got.dtype != array.dtype:
                raise MPIError("Bcast buffer mismatch")
            array[...] = got

    def scatter(self, chunks: Sequence[Any] | None, root: int = 0) -> Any:
        if self._rank == root:
            if chunks is None or len(chunks) != self._size:
                raise MPIError(
                    f"scatter needs exactly {self._size} chunks at the root"
                )
            for r in range(self._size):
                if r != root:
                    self.send(chunks[r], r, tag=_TAG_COLL)
            return chunks[root]
        return self.recv(root, tag=_TAG_COLL)

    def gather(self, obj: Any, root: int = 0) -> list[Any] | None:
        if self._rank == root:
            out: list[Any] = [None] * self._size
            out[root] = obj
            for r in range(self._size):
                if r != root:
                    out[r] = self.recv(r, tag=_TAG_COLL)
            return out
        self.send(obj, root, tag=_TAG_COLL)
        return None

    def allgather(self, obj: Any) -> list[Any]:
        gathered = self.gather(obj, root=0)
        return self.bcast(gathered, root=0)

    def reduce(
        self, obj: Any, op: Callable[[Any, Any], Any] = np.add, root: int = 0
    ) -> Any | None:
        gathered = self.gather(obj, root=root)
        if self._rank != root:
            return None
        acc = gathered[0]
        for item in gathered[1:]:
            acc = op(acc, item)
        return acc

    def allreduce(self, obj: Any, op: Callable[[Any, Any], Any] = np.add) -> Any:
        return self.bcast(self.reduce(obj, op=op, root=0), root=0)

    def Allreduce(
        self,
        sendbuf: np.ndarray,
        recvbuf: np.ndarray,
        op: Callable[[Any, Any], Any] = np.add,
    ) -> None:
        result = np.asarray(self.allreduce(np.ascontiguousarray(sendbuf), op=op))
        if result.shape != recvbuf.shape or result.dtype != recvbuf.dtype:
            raise MPIError("Allreduce buffer mismatch")
        recvbuf[...] = result

    # -- internals ----------------------------------------------------------

    def _sock_key(self, peer: int) -> int:
        if peer == self._rank or not 0 <= peer < self._size:
            raise MPIError(f"invalid peer rank {peer} (self={self._rank})")
        return peer

    def _sock(self, peer: int) -> socket.socket:
        return self._peers[self._sock_key(peer)]

    @staticmethod
    def _read_message(sock: socket.socket) -> tuple[int, Any]:
        header = _recv_exact(sock, _LEN.size)
        (length,) = _LEN.unpack(header)
        return pickle.loads(_recv_exact(sock, length))

    def close(self) -> None:
        for sock in self._peers.values():
            try:
                sock.close()
            except OSError:  # pragma: no cover
                pass


_TAG_COLL = -1001
_TAG_BARRIER = -1002


def _recv_exact(sock: socket.socket, nbytes: int) -> bytes:
    chunks = []
    got = 0
    while got < nbytes:
        chunk = sock.recv(min(1 << 20, nbytes - got))
        if not chunk:
            raise MPIError("peer closed connection mid-message")
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)


def run_mpi(
    program: Callable[..., Any],
    size: int,
    args: tuple = (),
    timeout: float | None = None,
) -> list[Any]:
    """Run ``program(comm, *args)`` on ``size`` forked ranks.

    Returns the per-rank return values (pickled back to the caller).
    Raises :class:`MPIError` if any rank raised; rank tracebacks go to
    stderr.  The caller process is the launcher, not a rank.

    ``timeout`` bounds the whole launch in wall-clock seconds (also
    accepts any object with a ``remaining()`` method, e.g. a
    :class:`repro.resilience.supervise.Deadline`).  When it expires,
    every still-running rank is killed (SIGTERM, then SIGKILL after a
    short grace), all children are reaped, and :class:`MPITimeout`
    is raised — no orphan rank processes survive the call.
    """
    if size < 1:
        raise ValueError("size must be >= 1")
    t_end = None
    if timeout is not None:
        seconds = (
            timeout.remaining()
            if hasattr(timeout, "remaining")
            else float(timeout)
        )
        t_end = time.monotonic() + max(0.0, seconds)
    # Full mesh of socketpairs, created before forking.
    mesh: dict[tuple[int, int], tuple[socket.socket, socket.socket]] = {}
    for a in range(size):
        for b in range(a + 1, size):
            mesh[(a, b)] = socket.socketpair()
    # One result pipe per rank.
    result_pipes = [socket.socketpair() for _ in range(size)]

    pids = []
    for rank in range(size):
        peers = {b: sa for (a, b), (sa, _) in mesh.items() if a == rank}
        peers.update({a: sb for (a, b), (_, sb) in mesh.items() if b == rank})
        wsock = result_pipes[rank][1]
        keep = {sock.fileno() for sock in peers.values()} | {wsock.fileno()}
        pids.append(
            proc.spawn(
                _rank_main,
                program,
                args,
                rank,
                size,
                peers,
                wsock,
                keep_fds=keep,
            )
        )

    # Launcher: close child ends, read results, reap.
    for (sa, sb) in mesh.values():
        sa.close()
        sb.close()
    results: list[Any] = [None] * size
    errors: list[int] = []
    timed_out: list[int] = []
    for rank, (pr, pw) in enumerate(result_pipes):
        pw.close()
    for rank, (pr, _) in enumerate(result_pipes):
        try:
            if t_end is not None:
                remaining = t_end - time.monotonic()
                if remaining <= 0 or timed_out:
                    timed_out.append(rank)
                    continue
                pr.settimeout(remaining)
            header = _recv_exact(pr, _LEN.size)
            (length,) = _LEN.unpack(header)
            results[rank] = pickle.loads(_recv_exact(pr, length))
        except (TimeoutError, socket.timeout):
            timed_out.append(rank)
        except (MPIError, OSError):
            errors.append(rank)
        finally:
            pr.close()
    if timed_out:
        proc.kill(*pids, term_grace=_TERM_GRACE)
        raise MPITimeout(
            f"MPI launch timed out waiting for rank(s) {sorted(timed_out)}; "
            "all ranks killed and reaped"
        )
    failed = join(dict(enumerate(pids)))
    errors = sorted(set(errors).union(rank for rank, _ in failed))
    if errors:
        raise MPIError(f"rank(s) {errors} failed; see stderr")
    return results


def _rank_main(
    program: Callable[..., Any],
    args: tuple,
    rank: int,
    size: int,
    peers: dict[int, socket.socket],
    wsock: socket.socket,
) -> None:  # pragma: no cover - runs in the forked rank
    """One rank: run ``program`` and send its pickled return value home."""
    value = program(Comm(rank, size, peers), *args)
    payload = pickle.dumps(value, protocol=pickle.HIGHEST_PROTOCOL)
    wsock.sendall(_LEN.pack(len(payload)) + payload)
