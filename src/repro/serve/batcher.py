"""Request batching: coalesce same-size requests into one pass.

Two requests are *compatible* — and may share a batch — when they
have the same device side ``n``, the key every per-size cache the
solve reuses (the Jacobian structure, the Laplacian-pinv LRU) is
built around.  A batch then pays the per-``n`` cache misses once,
and every member after the first solves against warm caches (the
``serve.latency.{cold,warm}`` histogram split; see
``docs/SERVING.md``).

The coalescing policy is deliberately simple and starvation-free:

1. block for the *oldest* ticket (strict FIFO head);
2. linger up to ``linger`` seconds, sweeping in every queued ticket
   with the same :func:`batch_key`, until ``max_batch`` is reached;
3. never reorder across keys — a ticket only jumps the queue when the
   head of the queue already committed its key.

Solver knobs (method, threshold, per-request deadline) intentionally
do **not** participate in the key: they differ per member and are
honoured per member during execution.
"""

from __future__ import annotations

import time
from dataclasses import dataclass
from typing import TYPE_CHECKING

from repro.serve.queue import AdmissionQueue, Ticket

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for hints
    from repro.serve.protocol import Request

#: Upper bound any service places on one batch (queue depth aside).
MAX_BATCH_LIMIT = 256


def batch_key(request: "Request") -> int:
    """The compatibility key for one request: its device side ``n``."""
    return request.n


@dataclass(frozen=True)
class Batch:
    """An ordered group of compatible tickets executed as one pass."""

    key: int
    tickets: tuple[Ticket, ...]

    @property
    def n(self) -> int:
        """Device side length shared by every member."""
        return self.key

    @property
    def size(self) -> int:
        """Number of requests in the batch."""
        return len(self.tickets)


class Batcher:
    """Pulls tickets off an :class:`AdmissionQueue` in compatible batches.

    Parameters
    ----------
    queue:
        The admission queue to consume.
    max_batch:
        Hard cap on members per batch (1 disables coalescing).
    linger:
        Seconds to wait for more compatible tickets after the head
        ticket is taken.  0 batches only what is already queued —
        still effective under concurrent load, and adds no idle
        latency for lone requests.
    """

    def __init__(
        self,
        queue: AdmissionQueue,
        max_batch: int = 8,
        linger: float = 0.0,
    ) -> None:
        if not 1 <= max_batch <= MAX_BATCH_LIMIT:
            raise ValueError(
                f"max_batch must be in [1, {MAX_BATCH_LIMIT}], got {max_batch}"
            )
        if linger < 0:
            raise ValueError(f"linger must be >= 0, got {linger}")
        self.queue = queue
        self.max_batch = int(max_batch)
        self.linger = float(linger)

    def next_batch(self, timeout: float | None = None) -> Batch | None:
        """Block for the next batch; None on timeout or drained-empty.

        The head ticket commits the batch key; queued compatible
        tickets are swept in immediately, then the linger window keeps
        sweeping until it closes or the batch fills.
        """
        head = self.queue.take(timeout=timeout)
        if head is None:
            return None
        key = batch_key(head.request)
        members = [head]

        def sweep() -> None:
            room = self.max_batch - len(members)
            if room > 0:
                members.extend(
                    self.queue.take_matching(
                        lambda req: batch_key(req) == key, room
                    )
                )

        sweep()
        if self.linger > 0:
            close = time.monotonic() + self.linger
            while len(members) < self.max_batch:
                remaining = close - time.monotonic()
                if remaining <= 0:
                    break
                time.sleep(min(remaining, 0.005))
                sweep()
        return Batch(key=key, tickets=tuple(members))
