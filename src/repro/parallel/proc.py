"""One process lifecycle for every forked worker: spawn, poll, kill.

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

PyMP regions (:mod:`repro.parallel.pymp`) keep their own ``os.fork``:
a region member returns into the caller's ``with`` body by design.
They share :func:`poll` and :func:`kill`.
"""

from __future__ import annotations

import os
import signal
import sys
import time
import traceback
from typing import Callable, Iterable

from repro.parallel import blas

#: Sleep between reap sweeps inside :func:`kill`'s grace window.
_KILL_POLL_SECONDS = 0.005


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
