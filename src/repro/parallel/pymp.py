"""A from-scratch re-implementation of the PyMP fork/join model.

The paper parallelizes equation formation with `PyMP
<https://github.com/classner/pymp>`_, an OpenMP-flavoured library in
which a ``with Parallel(k)`` block forks ``k - 1`` child processes
that all execute the block body, share work via ``p.range`` (static
chunking) / ``p.xrange`` (dynamic, shared-counter), and join at block
exit.  PyMP is not installable here, so this module provides the same
surface on plain ``os.fork``:

* **fork at entry** — children inherit every numpy array that existed
  before the block by copy-on-write, so read-mostly inputs cost
  nothing;
* **shared writes** — :func:`shared_array` returns an array backed by
  an anonymous ``MAP_SHARED`` mapping, visible to all region members
  (see also :mod:`repro.parallel.sharedmem` for named segments);
* **join at exit** — children ``os._exit``; the parent reaps them
  (:func:`join`, in completion order) and re-raises if any child
  failed.

Like OpenMP, the block body must be written to be executed by *every*
member.  Nested regions raise (matching PyMP's default).  With
``num_threads=1`` or in an environment that forbids fork, the region
degrades to serial execution of the same code path.
"""

from __future__ import annotations

import mmap
import multiprocessing
import os
import sys
import time
import traceback
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.parallel import proc

_ACTIVE_REGION: "Parallel | None" = None

#: Sleep bounds of :func:`join`'s reap loop (seconds).  The first nap
#: is short (children usually finish just after the parent), then it
#: doubles so a long-running region does not busy-wait.
_JOIN_NAP_MIN = 0.001
_JOIN_NAP_MAX = 0.02


class ParallelError(RuntimeError):
    """Raised in the parent when a region member fails.

    ``failed_ranks`` / ``exit_codes`` identify which members died and
    how (negative codes are signal numbers, per
    ``os.waitstatus_to_exitcode``), so retry layers can report — and
    chaos tests assert — exactly which worker was lost.
    """

    def __init__(
        self,
        message: str,
        failed_ranks: tuple[int, ...] = (),
        exit_codes: tuple[int, ...] = (),
    ) -> None:
        super().__init__(message)
        self.failed_ranks = tuple(failed_ranks)
        self.exit_codes = tuple(exit_codes)


class WorkerStalled(ParallelError):
    """A region member stopped heartbeating and was killed.

    Raised by a supervised join (see
    :class:`repro.resilience.supervise.Supervisor`).  On top of the
    :class:`ParallelError` rank/exit-code diagnostics,
    ``last_progress`` maps each watchdog-killed rank to its final
    heartbeat snapshot (items done, heartbeat age), so traces and
    salvage reports show exactly where the worker froze.
    """

    def __init__(
        self,
        message: str,
        failed_ranks: tuple[int, ...] = (),
        exit_codes: tuple[int, ...] = (),
        last_progress: dict | None = None,
    ) -> None:
        super().__init__(message, failed_ranks, exit_codes)
        self.last_progress = dict(last_progress or {})


class Parallel:
    """An OpenMP-style parallel region over forked processes.

    Usage::

        out = shared_array((n,), dtype=np.float64)
        with Parallel(4) as p:
            for i in p.range(n):
                out[i] = expensive(i)

    Attributes inside the block: ``thread_num`` (0 = parent),
    ``num_threads``, ``lock`` (a cross-process mutex).
    """

    def __init__(self, num_threads: int, supervisor=None) -> None:
        if num_threads < 1:
            raise ValueError(f"num_threads must be >= 1, got {num_threads}")
        self.num_threads = int(num_threads)
        self.thread_num = 0
        self.lock = multiprocessing.Lock()
        self._counter = multiprocessing.Value("l", 0, lock=True)
        self._children: list[int] = []
        self._entered = False
        # Duck-typed repro.resilience.supervise.Supervisor (kept loose
        # so this module never imports the resilience layer).  When
        # set, work-sharing iterators heartbeat per pulled item and the
        # join runs the supervisor's watchdog between reap sweeps.
        self._supervisor = supervisor

    # -- region lifecycle --------------------------------------------------

    def __enter__(self) -> "Parallel":
        global _ACTIVE_REGION
        if _ACTIVE_REGION is not None:
            raise ParallelError("nested parallel regions are not supported")
        _ACTIVE_REGION = self
        self._entered = True
        self._counter.value = 0
        sup = self._supervisor
        if sup is not None and not sup.region_armed_for(self.num_threads):
            # The heartbeat board is shared memory, so it must exist
            # before the first fork.
            sup.begin_region(self.num_threads)
        # No BLAS thread budget here (unlike executor and fleet
        # children, repro.parallel.blas): region bodies form equations,
        # whose BLAS calls are too small for OpenBLAS to thread, so a
        # child never starts a pool unless a cap forces one.
        for child_rank in range(1, self.num_threads):
            pid = os.fork()
            if pid == 0:
                # Child: adopt rank, forget siblings, run the body.
                self.thread_num = child_rank
                self._children = []
                return self
            self._children.append(pid)
        return self

    def __exit__(self, exc_type, exc, tb) -> bool:
        global _ACTIVE_REGION
        if self.thread_num != 0:
            # Child: report failure via exit status, never unwind into
            # the parent's stack (we share its code and fds).
            code = 0
            if exc_type is not None:
                traceback.print_exception(exc_type, exc, tb, file=sys.stderr)
                code = 1
            elif self._supervisor is not None:
                self._supervisor.mark_done(self.thread_num)
            sys.stderr.flush()
            sys.stdout.flush()
            os._exit(code)
        # Parent: reap children, then clear the region.  Child pids
        # were appended in rank order 1..k, so rank = index + 1.
        stalled: dict = {}
        try:
            if self._supervisor is not None:
                self._supervisor.mark_done(0)
                failures, stalled = self._supervisor.reap_region(
                    self._children, parent_failed=exc_type is not None
                )
            else:
                failures = join(dict(enumerate(self._children, 1)))
        finally:
            self._children = []
            _ACTIVE_REGION = None
            self._entered = False
        if exc_type is not None:
            return False  # propagate the parent's own exception
        if failures:
            ranks = tuple(rank for rank, _ in failures)
            codes = tuple(code for _, code in failures)
            message = (
                f"{len(failures)} region member(s) failed "
                f"(ranks {ranks}, exit codes {codes}); see stderr"
            )
            if stalled:
                raise WorkerStalled(
                    message
                    + f"; rank(s) {tuple(sorted(stalled))} killed by "
                    "the heartbeat watchdog",
                    failed_ranks=ranks,
                    exit_codes=codes,
                    last_progress=stalled,
                )
            raise ParallelError(message, failed_ranks=ranks, exit_codes=codes)
        return False

    # -- work sharing --------------------------------------------------------

    def range(self, *args: int) -> Iterator[int]:
        """Statically chunked indices, OpenMP ``schedule(static)``.

        ``p.range(stop)`` or ``p.range(start, stop[, step])``.  Member
        ``t`` gets indices ``start + (t + r*num_threads)*step`` —
        round-robin striding, which balances cost gradients across
        members better than contiguous blocks.
        """
        start, stop, step = _parse_range(args)
        self._require_entered()
        return self._ticked(
            range(start + self.thread_num * step, stop, step * self.num_threads)
        )

    def block_range(self, *args: int) -> Iterator[int]:
        """Statically chunked indices in contiguous blocks.

        The chunking used by the paper's *Parallel* baseline: member
        ``t`` owns one contiguous slice.  Exposes imbalance when costs
        are skewed — which is the point of the Balanced/PyMP variants.
        """
        start, stop, step = _parse_range(args)
        self._require_entered()
        indices = range(start, stop, step)
        n = len(indices)
        per, extra = divmod(n, self.num_threads)
        lo = self.thread_num * per + min(self.thread_num, extra)
        hi = lo + per + (1 if self.thread_num < extra else 0)
        return self._ticked(indices[lo:hi])

    def xrange(self, *args: int) -> Iterator[int]:
        """Dynamically scheduled indices, OpenMP ``schedule(dynamic)``.

        Members pull the next index from a shared atomic counter, so
        fast members automatically take more work (PyMP's ``xrange``).
        """
        start, stop, step = _parse_range(args)
        self._require_entered()
        indices = range(start, stop, step)

        def _gen() -> Iterator[int]:
            while True:
                with self._counter.get_lock():
                    k = self._counter.value
                    self._counter.value = k + 1
                if k >= len(indices):
                    return
                yield indices[k]

        return self._ticked(_gen())

    def iterate(self, items: Sequence) -> Iterator:
        """Static round-robin over an arbitrary sequence."""
        for i in self.range(len(items)):
            yield items[i]

    def _ticked(self, it) -> Iterator[int]:
        """Heartbeat once per pulled item when a supervisor is attached."""
        sup = self._supervisor
        if sup is None:
            return iter(it)

        def _gen() -> Iterator[int]:
            me = self.thread_num
            for item in it:
                sup.tick(me)
                yield item

        return _gen()

    def _require_entered(self) -> None:
        if not self._entered:
            raise ParallelError("work-sharing outside an active region")

    def __repr__(self) -> str:
        return (
            f"Parallel(num_threads={self.num_threads}, "
            f"thread_num={self.thread_num})"
        )


def join(
    pending: dict[int, int],
    watch: Callable[[dict[int, int], list[tuple[int, int]]], None] | None = None,
) -> list[tuple[int, int]]:
    """Reap ``pending`` (rank → pid) in *completion* order.

    A blocking, rank-ordered ``waitpid`` would let a hung rank 1 mask
    rank 3's crash diagnostics forever, so this sweeps
    :func:`repro.parallel.proc.poll` over every pending rank with a
    doubling nap.  ``watch(pending, failures)`` runs after each sweep
    that leaves ranks pending; it may kill and remove ranks itself
    (the supervisor's watchdog and deadline).  Returns the failures as
    ``[(rank, exit_code), ...]`` sorted by rank, so their order is
    stable whichever child exited first.
    """
    failures: list[tuple[int, int]] = []
    nap = _JOIN_NAP_MIN
    while pending:
        progressed = False
        for rank in sorted(pending):
            code = proc.poll(pending[rank])
            if code is None:
                continue
            del pending[rank]
            progressed = True
            if code != 0:
                failures.append((rank, code))
        if pending and watch is not None:
            watch(pending, failures)
        if progressed:
            nap = _JOIN_NAP_MIN
        elif pending:
            time.sleep(nap)
            nap = min(nap * 2.0, _JOIN_NAP_MAX)
    failures.sort()
    return failures


def _parse_range(args: tuple[int, ...]) -> tuple[int, int, int]:
    if len(args) == 1:
        return 0, int(args[0]), 1
    if len(args) == 2:
        return int(args[0]), int(args[1]), 1
    if len(args) == 3:
        start, stop, step = map(int, args)
        if step <= 0:
            raise ValueError("step must be positive")
        return start, stop, step
    raise TypeError(f"range expects 1-3 integer arguments, got {len(args)}")


def shared_array(
    shape: Sequence[int], dtype: np.dtype | str = np.float64
) -> np.ndarray:
    """A numpy array in anonymous shared memory (PyMP's ``shared.array``).

    Backed by ``MAP_SHARED | MAP_ANONYMOUS``, so any process forked
    *after* creation sees the same physical pages: writes by region
    members are visible to the parent with zero copies.  The mapping
    lives as long as the returned array does.
    """
    shape = tuple(int(s) for s in shape)
    dtype = np.dtype(dtype)
    nbytes = max(1, int(np.prod(shape)) * dtype.itemsize)
    buf = mmap.mmap(-1, nbytes)
    arr = np.frombuffer(buf, dtype=dtype, count=int(np.prod(shape))).reshape(shape)
    arr.fill(0)
    return arr


def fork_available() -> bool:
    """Whether os.fork is usable on this platform."""
    return hasattr(os, "fork")
