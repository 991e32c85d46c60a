"""Bounded, priority-aware admission queue for the solve service.

Admission control is the service's overload valve: the queue holds at
most ``max_depth`` tickets, and a submit beyond that raises
:class:`QueueFull` *immediately* instead of letting latency grow
without bound — the client gets a retriable rejection (exit 75) and
decides when to try again.  Draining (SIGTERM) flips the same valve
the other way: :meth:`AdmissionQueue.drain` atomically closes
admission and hands back every not-yet-started ticket so the server
can answer each with a retriable ``rejected-draining`` status while
in-flight work finishes.

Three refinements layer on top of the plain depth bound:

* **Priority classes** — :meth:`AdmissionQueue.take` dequeues the
  oldest ticket of the most urgent class present (class order is
  :data:`repro.serve.protocol.PRIORITY_CLASSES`), except that a ticket
  of *any* class older than ``max_bypass_age`` seconds is taken first,
  which bounds how long priority can starve FIFO order.
* **Load shedding** — when the queue is saturated (at depth, or the
  estimated queue-seconds exceed ``max_queue_seconds``), an incoming
  ticket of strictly higher priority evicts the *newest* ticket of the
  lowest queued priority instead of being rejected; the evicted ticket
  is handed to ``on_shed`` for a retriable ``rejected-queue-full``
  answer.  Equal-or-lower-priority arrivals still get
  :class:`QueueFull`.
* **Per-client quotas** — each non-empty ``client_id`` meters through
  a :class:`TokenBucket` (``quota_rate`` tokens/second, ``quota_burst``
  capacity); an empty bucket raises :class:`QuotaExceeded`, so one
  chatty client cannot monopolize the queue.  The token is spent only
  when the request is admitted: a :class:`QueueFull` answer leaves the
  bucket as it was, so the retry it asks for is not refused for quota.
  ``client_id`` arrives from the wire, so buckets that have refilled
  to ``quota_burst`` — which admit exactly what a fresh bucket would —
  are dropped once the map outgrows :data:`_BUCKET_PRUNE_AT`.

A :class:`Ticket` is the unit of coordination between the connection
handler (which enqueues and then blocks on :meth:`Ticket.wait`) and
the executor (which resolves it).  Resolution is one-shot:
:meth:`Ticket.resolve` raises on a second call, while
:meth:`Ticket.try_resolve` is the lock-guarded first-wins variant for
paths that legitimately race (a dying worker's salvage vs. drain).
"""

from __future__ import annotations

import threading
import time
from collections import deque
from typing import TYPE_CHECKING, Callable, Optional

from repro.serve.protocol import PRIORITY_CLASSES

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.serve.protocol import Request, Response

#: Rank of each priority class (lower = more urgent = dequeued first).
_PRIORITY_RANK = {name: rank for rank, name in enumerate(PRIORITY_CLASSES)}

#: Bucket-map size that triggers a prune of refilled buckets.  After a
#: prune the trigger moves to twice the survivors (never below this),
#: so the prune's cost is amortised over the inserts that precede it.
_BUCKET_PRUNE_AT = 1024

#: Default age (seconds) past which a queued ticket of any class is
#: taken before more urgent ones, bounding priority starvation.
MAX_BYPASS_AGE = 5.0


class QueueFull(RuntimeError):
    """The queue is at ``max_depth``; the request was not admitted."""


class QueueDraining(RuntimeError):
    """The service is draining; the request was not admitted."""


class QuotaExceeded(RuntimeError):
    """The client's token bucket is empty; the request was not admitted."""


class TokenBucket:
    """Leaky token bucket metering one client's admission rate.

    Refills continuously at ``rate`` tokens per second up to ``burst``
    capacity; each admission spends one token.  Time is monotonic and
    supplied by the caller-visible clock only through
    :meth:`try_take`, so the bucket is trivially testable.
    """

    __slots__ = ("rate", "burst", "_tokens", "_updated")

    def __init__(self, rate: float, burst: float) -> None:
        if rate <= 0 or burst <= 0:
            raise ValueError(
                f"rate and burst must be > 0, got rate={rate} burst={burst}"
            )
        self.rate = float(rate)
        self.burst = float(burst)
        self._tokens = float(burst)
        self._updated = time.monotonic()

    def try_take(self, now: float | None = None) -> bool:
        """Spend one token if available; False when the bucket is empty."""
        if now is None:
            now = time.monotonic()
        elapsed = max(0.0, now - self._updated)
        self._tokens = min(self.burst, self._tokens + elapsed * self.rate)
        self._updated = now
        if self._tokens >= 1.0:
            self._tokens -= 1.0
            return True
        return False

    @property
    def tokens(self) -> float:
        """Tokens available as of the last :meth:`try_take` call."""
        return self._tokens

    def full(self, now: float) -> bool:
        """True when the bucket has refilled to ``burst`` by ``now``."""
        elapsed = max(0.0, now - self._updated)
        return self._tokens + elapsed * self.rate >= self.burst


class Ticket:
    """One admitted request travelling from handler to executor.

    The handler thread blocks on :meth:`wait`; whichever executor path
    completes (or rejects) the request resolves it exactly once.  A
    lock makes first-resolution atomic so the salvage path of a dying
    worker and the drain path cannot both deliver.  ``enqueued_at``
    (monotonic) feeds the ``serve.queue_wait`` histogram;
    ``salvage_count`` tracks how many times the request was re-run
    after losing its executor worker.
    """

    __slots__ = (
        "request",
        "enqueued_at",
        "salvage_count",
        "_lock",
        "_event",
        "_response",
    )

    def __init__(self, request: "Request") -> None:
        self.request = request
        self.enqueued_at = time.monotonic()
        self.salvage_count = 0
        self._lock = threading.Lock()
        self._event = threading.Event()
        self._response: Optional["Response"] = None

    def try_resolve(self, response: "Response") -> bool:
        """Deliver the response if unresolved; False when already resolved.

        Thread-safe and first-wins: exactly one of any number of
        concurrent callers returns True.
        """
        with self._lock:
            if self._event.is_set():
                return False
            self._response = response
            self._event.set()
            return True

    def resolve(self, response: "Response") -> None:
        """Deliver the response and wake the waiting handler (one-shot).

        Raises ``RuntimeError`` when the ticket was already resolved;
        use :meth:`try_resolve` on paths where losing the race is
        expected.
        """
        if not self.try_resolve(response):
            raise RuntimeError(
                f"ticket for request {self.request.id!r} resolved twice"
            )

    def wait(self, timeout: float | None = None) -> Optional["Response"]:
        """Block until resolved; None when ``timeout`` elapses first."""
        if not self._event.wait(timeout):
            return None
        return self._response

    @property
    def resolved(self) -> bool:
        """True once a resolve call has delivered a response."""
        return self._event.is_set()

    @property
    def priority_rank(self) -> int:
        """Dequeue rank of this ticket's priority class (lower = sooner)."""
        return _PRIORITY_RANK.get(self.request.priority, len(PRIORITY_CLASSES))

    def queue_seconds(self) -> float:
        """Seconds since this ticket was admitted (monotonic)."""
        return time.monotonic() - self.enqueued_at


class AdmissionQueue:
    """Depth-bounded priority queue of :class:`Ticket` with drain semantics.

    All methods are thread-safe; one :class:`threading.Condition`
    guards a single FIFO deque (priority is resolved at dequeue time by
    scanning, which keeps admission O(1) and is cheap at serving
    depths).  ``on_depth`` (optional) is called with the new depth
    after every admit/remove so the server can mirror it into the
    ``serve.queue_depth`` gauge without polling; ``on_shed`` receives
    each evicted ticket *outside* the lock so the server can resolve it
    with a retriable rejection.
    """

    def __init__(
        self,
        max_depth: int = 64,
        on_depth: Callable[[int], None] | None = None,
        *,
        max_bypass_age: float = MAX_BYPASS_AGE,
        max_queue_seconds: float | None = None,
        quota_rate: float | None = None,
        quota_burst: float = 8.0,
        on_shed: Callable[[Ticket], None] | None = None,
    ) -> None:
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if max_bypass_age <= 0:
            raise ValueError(
                f"max_bypass_age must be > 0, got {max_bypass_age}"
            )
        self.max_depth = int(max_depth)
        self.max_bypass_age = float(max_bypass_age)
        self.max_queue_seconds = (
            None if max_queue_seconds is None else float(max_queue_seconds)
        )
        self.quota_rate = None if quota_rate is None else float(quota_rate)
        self.quota_burst = float(quota_burst)
        self._items: deque[Ticket] = deque()
        self._cond = threading.Condition()
        self._draining = False
        self._on_depth = on_depth
        self._on_shed = on_shed
        self._buckets: dict[str, TokenBucket] = {}
        self._prune_at = _BUCKET_PRUNE_AT
        self._service_ewma = 0.0  # EWMA of per-request service seconds

    # -- admission (handler side) -------------------------------------------

    def submit(self, request: "Request") -> Ticket:
        """Admit a request, shedding lower-priority work under overload.

        Raises :class:`QueueDraining` once :meth:`drain` ran,
        :class:`QueueFull` when the queue is saturated and no
        strictly-lower-priority ticket can be shed to make room, and
        :class:`QuotaExceeded` when the client's token bucket is
        empty.  Saturation and the shed victim are decided first, so
        a quota token is spent only on a request that is admitted.
        """
        shed: Ticket | None = None
        with self._cond:
            if self._draining:
                raise QueueDraining("service is draining; retry later")
            if self._saturated_locked():
                shed = self._shed_for_locked(request)
                if shed is None:
                    raise QueueFull(
                        f"queue is at its depth bound ({self.max_depth}); "
                        "retry later"
                    )
            if self.quota_rate is not None and request.client_id:
                now = time.monotonic()
                if not self._bucket_for(request.client_id, now).try_take(now):
                    raise QuotaExceeded(
                        f"client {request.client_id!r} exceeded its "
                        f"admission quota ({self.quota_rate}/s, "
                        f"burst {self.quota_burst})"
                    )
            if shed is not None:
                self._items.remove(shed)
            ticket = Ticket(request)
            self._items.append(ticket)
            depth = len(self._items)
            self._cond.notify()
        if shed is not None and self._on_shed is not None:
            self._on_shed(shed)
        if self._on_depth is not None:
            self._on_depth(depth)
        return ticket

    def _bucket_for(self, client_id: str, now: float) -> TokenBucket:
        """The (lazily created) token bucket for one client id."""
        bucket = self._buckets.get(client_id)
        if bucket is None:
            if len(self._buckets) >= self._prune_at:
                self._prune_buckets_locked(now)
            bucket = TokenBucket(self.quota_rate, self.quota_burst)
            self._buckets[client_id] = bucket
        return bucket

    def _prune_buckets_locked(self, now: float) -> None:
        """Drop every bucket that has refilled to its burst by ``now``."""
        self._buckets = {
            client: bucket
            for client, bucket in self._buckets.items()
            if not bucket.full(now)
        }
        self._prune_at = max(_BUCKET_PRUNE_AT, 2 * len(self._buckets))

    def _saturated_locked(self) -> bool:
        """True when the queue cannot take more work without shedding."""
        if len(self._items) >= self.max_depth:
            return True
        if self.max_queue_seconds is not None and self._items:
            estimate = len(self._items) * self._service_ewma
            if estimate > self.max_queue_seconds:
                return True
        return False

    def _shed_for_locked(self, request: "Request") -> Ticket | None:
        """The ticket to evict for an incoming request, or None.

        Sheds lowest-priority work first, newest victim within that
        class, and only when the incoming request is strictly more
        urgent than the victim — so saturation never churns
        equal-priority work.
        """
        incoming_rank = _PRIORITY_RANK.get(
            request.priority, len(PRIORITY_CLASSES)
        )
        victim: Ticket | None = None
        for ticket in self._items:  # FIFO scan: later hits are newer
            if ticket.priority_rank <= incoming_rank:
                continue
            if victim is None or ticket.priority_rank >= victim.priority_rank:
                victim = ticket
        return victim

    # -- consumption (executor side) ----------------------------------------

    def take(self, timeout: float | None = None) -> Ticket | None:
        """Pop the most urgent ticket, blocking up to ``timeout`` seconds.

        "Most urgent" is the oldest ticket of the most urgent priority
        class present — unless the oldest ticket of *any* class has
        waited longer than ``max_bypass_age``, in which case it goes
        first regardless of class (the anti-starvation bound).
        Returns None on timeout or when the queue is draining and
        empty (the executor's signal to exit its loop).
        """
        with self._cond:
            deadline = None if timeout is None else time.monotonic() + timeout
            while not self._items:
                if self._draining:
                    return None
                remaining = (
                    None if deadline is None else deadline - time.monotonic()
                )
                if remaining is not None and remaining <= 0:
                    return None
                self._cond.wait(remaining)
            ticket = self._pick_locked()
            self._items.remove(ticket)
            depth = len(self._items)
        if self._on_depth is not None:
            self._on_depth(depth)
        return ticket

    def _pick_locked(self) -> Ticket:
        """The ticket :meth:`take` should pop (queue known non-empty)."""
        oldest = self._items[0]
        if oldest.queue_seconds() > self.max_bypass_age:
            return oldest
        best = oldest
        for ticket in self._items:
            if ticket.priority_rank < best.priority_rank:
                best = ticket  # first hit per class = oldest in class
        return best

    # -- load estimation -----------------------------------------------------

    def note_service_time(self, seconds: float) -> None:
        """Fold one completed request's service seconds into the EWMA."""
        if seconds < 0:
            return
        with self._cond:
            if self._service_ewma == 0.0:
                self._service_ewma = float(seconds)
            else:
                self._service_ewma += 0.2 * (seconds - self._service_ewma)

    def estimated_queue_seconds(self) -> float:
        """Depth x EWMA service seconds: expected wait of a new arrival."""
        with self._cond:
            return len(self._items) * self._service_ewma

    # -- drain ---------------------------------------------------------------

    def drain(self) -> list[Ticket]:
        """Close admission and return every not-yet-started ticket.

        After this call :meth:`submit` raises :class:`QueueDraining`,
        blocked :meth:`take` calls return None once the queue empties,
        and the returned tickets are the caller's to resolve with a
        retriable rejection.  Idempotent: a second drain returns ``[]``.
        """
        with self._cond:
            self._draining = True
            abandoned = list(self._items)
            self._items.clear()
            self._cond.notify_all()
        if abandoned and self._on_depth is not None:
            self._on_depth(0)
        return abandoned

    # -- introspection -------------------------------------------------------

    @property
    def draining(self) -> bool:
        """True once :meth:`drain` has closed admission."""
        with self._cond:
            return self._draining

    def depth(self) -> int:
        """Number of tickets currently queued (not yet taken)."""
        with self._cond:
            return len(self._items)

    def depths(self) -> dict[str, int]:
        """Queued ticket count per priority class (all classes present)."""
        counts = {name: 0 for name in PRIORITY_CLASSES}
        with self._cond:
            for ticket in self._items:
                counts[ticket.request.priority] = (
                    counts.get(ticket.request.priority, 0) + 1
                )
        return counts
