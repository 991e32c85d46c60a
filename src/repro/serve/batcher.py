"""Dispatch: each dispatcher takes one ticket at a time and runs it.

Requests share nothing a batch could pool: served requests form no
equations, and every per-``n`` cache (the Jacobian structure, the
Laplacian factor LRU) is process-wide and outlives the request.  So
the dispatcher does not wait for batch-mates; it takes the next ticket
in the queue's priority order (see :meth:`AdmissionQueue.take`, with
its ``max_bypass_age`` anti-starvation bound) and executes it alone.
"""

from __future__ import annotations

from repro.serve.queue import AdmissionQueue, Ticket


class Batcher:
    """Hands dispatchers the next ticket of an :class:`AdmissionQueue`."""

    def __init__(self, queue: AdmissionQueue) -> None:
        self.queue = queue

    def next_batch(self, timeout: float | None = None) -> Ticket | None:
        """Block for the next ticket; None on timeout or drained-empty."""
        return self.queue.take(timeout=timeout)
