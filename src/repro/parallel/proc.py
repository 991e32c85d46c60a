"""One process lifecycle and one channel for every forked worker.

Executor slots, fleet shards, elastic workers and MPI ranks are all
fork-and-run children, and they share one lifecycle here:

* :func:`spawn` forks a child that runs ``target(*args)`` and never
  returns into the caller's stack.  The child closes every inherited
  fd except 0–2 and ``keep_fds`` (a sibling's channel left open in a
  child would hide that sibling's EOF), applies its BLAS thread budget
  (:mod:`repro.parallel.blas`) when ``blas_slots`` is given, and exits
  0 when ``target`` returns, 1 with a flushed traceback when it
  raises.  A target may also end itself with ``os._exit``.
* :func:`poll` is one non-blocking reap.
* :func:`kill` is the one escalation ladder: SIGTERM, reap until the
  grace ends, then SIGKILL and reap the rest.

Executor slots, elastic workers and MPI ranks exchange Python objects
over stream sockets through one channel:

* :func:`send` writes one frame, a ``>I`` length prefix and a pickle
  (:func:`encode` builds its bytes).
* :func:`recv` reads one frame; None on a clean EOF at a boundary.
  A truncated, oversized or undecodable frame raises
  :class:`ChannelError`, which every caller counts as its worker
  lost; socket errors and timeouts propagate unchanged.  Both ends
  are the same trusted codebase, so pickle is safe here.

PyMP regions (:mod:`repro.parallel.pymp`) keep their own ``os.fork``:
a region member returns into the caller's ``with`` body by design.
They share :func:`poll` and :func:`kill`.
"""

from __future__ import annotations

import os
import pickle
import signal
import socket
import struct
import sys
import time
import traceback
from typing import Callable, Iterable

from repro.parallel import blas

#: Sleep between reap sweeps inside :func:`kill`'s grace window.
_KILL_POLL_SECONDS = 0.005

#: Largest pickle one frame may carry; a longer length prefix is
#: refused before its payload is read.
MAX_FRAME_BYTES = 64 * 1024 * 1024

_HEADER = struct.Struct(">I")


class ChannelError(Exception):
    """A frame was truncated, oversized or undecodable."""


def spawn(
    target: Callable[..., object],
    *args: object,
    keep_fds: Iterable[int] = (),
    blas_slots: int | None = None,
) -> int:
    """Fork a child that runs ``target(*args)`` and exits; returns its pid.

    ``blas_slots`` budgets the child's BLAS pool at its share of the
    CPUs (``blas.budget(blas_slots)``, computed before the fork);
    callers that budget call :func:`repro.parallel.blas.resolve` once
    before their first spawn.
    """
    threads = None if blas_slots is None else blas.budget(blas_slots)
    keep = sorted(fd for fd in set(keep_fds) if fd > 2)
    pid = os.fork()
    if pid:
        return pid
    code = 1  # pragma: no cover - everything below runs in the child
    try:
        low = 3
        for fd in keep:
            os.closerange(low, fd)
            low = fd + 1
        os.closerange(low, os.sysconf("SC_OPEN_MAX"))
        if threads is not None:
            blas.apply(threads)
        target(*args)
        code = 0
    except BaseException:
        traceback.print_exc()
    finally:
        try:
            sys.stdout.flush()
            sys.stderr.flush()
        finally:
            os._exit(code)


def poll(pid: int) -> int | None:
    """Reap ``pid`` if it has exited: its exit code, else None.

    Exit codes follow ``os.waitstatus_to_exitcode`` (negative for a
    signal).  A pid that is no longer this process's child counts as
    exited (code 0).
    """
    try:
        done, status = os.waitpid(pid, os.WNOHANG)
    except ChildProcessError:
        return 0
    return os.waitstatus_to_exitcode(status) if done else None


def kill(*pids: int, term_grace: float) -> list[int]:
    """SIGTERM every pid, SIGKILL whatever outlives ``term_grace``.

    Polite first, so a child's SIGTERM handler gets to run; forceful
    after the grace window.  Every pid is reaped before
    this returns, and the exit codes come back in ``pids`` order.
    """
    live = list(dict.fromkeys(pids))
    codes: dict[int, int] = {}
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in live:
            try:
                os.kill(pid, sig)
            except ProcessLookupError:
                pass
        t_end = time.monotonic() + term_grace
        while live and (sig == signal.SIGKILL or time.monotonic() < t_end):
            for pid in list(live):
                code = poll(pid)
                if code is not None:
                    codes[pid] = code
                    live.remove(pid)
            if live:
                time.sleep(_KILL_POLL_SECONDS)
    return [codes[pid] for pid in pids]


def encode(obj: object) -> bytes:
    """One frame for ``obj``: its pickle behind a ``>I`` length prefix."""
    payload = pickle.dumps(obj, protocol=pickle.HIGHEST_PROTOCOL)
    return _HEADER.pack(_bounded(len(payload))) + payload


def send(sock: socket.socket, obj: object) -> None:
    """Write ``obj`` to ``sock`` as one frame."""
    sock.sendall(encode(obj))


def recv(sock: socket.socket) -> object | None:
    """Read one frame from ``sock``: its object, or None on a clean EOF.

    Raises :class:`ChannelError` for an EOF inside a frame, a length
    prefix over :data:`MAX_FRAME_BYTES` (before reading the payload)
    or a payload that does not unpickle.
    """
    header = _read(sock, _HEADER.size)
    if not header:
        return None
    if len(header) < _HEADER.size:
        raise ChannelError(
            f"channel closed inside a frame header ({len(header)} bytes)"
        )
    (length,) = _HEADER.unpack(header)
    payload = _read(sock, _bounded(length))
    if len(payload) < length:
        raise ChannelError(
            f"channel closed inside a frame payload ({len(payload)}/{length} bytes)"
        )
    try:
        return pickle.loads(payload)
    except Exception as exc:
        raise ChannelError(f"undecodable frame: {exc!r}") from exc


def _bounded(length: int) -> int:
    """``length`` if a frame may carry that many bytes, else ChannelError."""
    if length > MAX_FRAME_BYTES:
        raise ChannelError(
            f"frame of {length} bytes exceeds the {MAX_FRAME_BYTES}-byte limit"
        )
    return length


def _read(sock: socket.socket, count: int) -> bytes:
    """``count`` bytes from ``sock``, or fewer if EOF comes first."""
    chunks: list[bytes] = []
    got = 0
    while got < count:
        chunk = sock.recv(min(count - got, 1 << 20))
        if not chunk:
            break
        chunks.append(chunk)
        got += len(chunk)
    return b"".join(chunks)
