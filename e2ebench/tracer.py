"""Spans recorded from outside the program, kept in memory.

A traced run never edits ``src/``: :meth:`Tracer.wrap` swaps a module
function or class method for a timing wrapper for the length of the
run, and :meth:`Tracer.restore` puts the original back.  Each span
carries its layer (the ``repro`` module it measures), the operation
it belongs to, and its self time (duration minus the time covered by
nested spans on the same thread), so per-layer self time adds up to
the traced wall time without double counting.

Calls too frequent for a span each (``per_call=False``, e.g. one
equation block written) are tallied instead: each operation gets one
span per process for them, starting at the first call and lasting the
calls' summed time.  Spans recorded in forked children (the PyMP
formation workers) are written to one file per child when the wrapped
call named by ``flush_child`` returns there; :meth:`Tracer.settle`
folds tallies and those files into :attr:`Tracer.spans`.

When ``profiling`` is set, the outermost span of each layer named in
``profile_layers`` runs under a ``cProfile.Profile`` of its own, whose
top functions :meth:`Tracer.profile_report` renders with ``pstats``.
"""

from __future__ import annotations

import cProfile
import functools
import io
import json
import os
import pstats
import threading
import time
from contextlib import contextmanager
from dataclasses import astuple, dataclass
from pathlib import Path


@dataclass
class Span:
    """One timed call of a wrapped entry point (times in seconds)."""

    layer: str
    name: str
    start: float
    end: float
    self_s: float
    pid: int
    tid: int
    op: int | None

    @property
    def dur(self) -> float:
        return self.end - self.start


class Tracer:
    """Wraps entry points, records spans, exports trace and tables."""

    def __init__(
        self,
        child_dir: Path | None = None,
        profile_layers: tuple[str, ...] = (),
    ) -> None:
        self.spans: list[Span] = []
        self.pid = os.getpid()
        self.child_dir = child_dir
        self.profile_layers = profile_layers
        self.profiling = False
        self._profiles = {layer: cProfile.Profile() for layer in profile_layers}
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []
        self._tallies: dict[tuple, list] = {}

    # -- recording -----------------------------------------------------------

    def _stack(self) -> list[list]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _call(self, layer: str, name: str, fn, args, kwargs):
        stack = self._stack()
        if any(frame[1] == name for frame in stack):
            # Re-entry (e.g. a subclass ``run`` calling ``super().run``)
            # is one call of the layer, not two.
            return fn(*args, **kwargs)
        frame = [layer, name, 0.0]
        profile = None
        if (
            self.profiling
            and layer in self._profiles
            and not any(f[0] == layer for f in stack)
        ):
            profile = self._profiles[layer]
        stack.append(frame)
        if profile is not None:
            profile.enable()
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            if profile is not None:
                profile.disable()
            self._close(frame, start, end, getattr(self._local, "op", None))

    def _close(self, frame: list, start: float, end: float, op) -> None:
        """Pop ``frame``, charge its time to the caller, record the span."""
        stack = self._stack()
        stack.pop()
        if stack:
            stack[-1][2] += end - start
        layer, name, children = frame
        self.spans.append(
            Span(layer, name, start, end, end - start - children,
                 os.getpid(), threading.get_ident(), op)
        )

    def _tally(self, layer: str, name: str, fn, args, kwargs):
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dur = time.perf_counter() - start
            stack = self._stack()
            if stack:
                stack[-1][2] += dur
            key = (
                layer,
                name,
                os.getpid(),
                threading.get_ident(),
                getattr(self._local, "op", None),
            )
            entry = self._tallies.get(key)
            if entry is None:
                self._tallies[key] = [start, dur]
            else:
                entry[1] += dur

    def _fold_tallies(self) -> None:
        for (layer, name, pid, tid, op), (start, dur) in self._tallies.items():
            self.spans.append(Span(layer, name, start, start + dur, dur, pid, tid, op))
        self._tallies.clear()

    @contextmanager
    def op(self, op_id: int, name: str = "op"):
        """Bracket one benchmark operation; nested spans carry its id."""
        frame = ["bench", name, 0.0]
        self._stack().append(frame)
        self._local.op = op_id
        start = time.perf_counter()
        try:
            yield
        finally:
            self._local.op = None
            self._close(frame, start, time.perf_counter(), op_id)

    # -- patching ------------------------------------------------------------

    def wrap(
        self,
        owner: object,
        attr: str,
        layer: str,
        name: str | None = None,
        flush_child: bool = False,
        per_call: bool = True,
    ) -> None:
        """Replace ``owner.attr`` with a span-recording wrapper."""
        raw = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        fn = raw.__func__ if isinstance(raw, classmethod) else raw
        label = name or attr
        tracer = self
        record = self._call if per_call else self._tally

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            try:
                return record(layer, label, fn, args, kwargs)
            finally:
                if flush_child and os.getpid() != tracer.pid:
                    tracer._flush_child()

        setattr(
            owner,
            attr,
            classmethod(wrapper) if isinstance(raw, classmethod) else wrapper,
        )
        self._patches.append((owner, attr, raw))

    def restore(self) -> None:
        """Put every wrapped attribute back (reverse order)."""
        while self._patches:
            owner, attr, raw = self._patches.pop()
            setattr(owner, attr, raw)

    def _flush_child(self) -> None:
        """In a forked child: persist the spans this process recorded."""
        if self.child_dir is None:
            return
        pid = os.getpid()
        self._fold_tallies()
        mine = [astuple(s) for s in self.spans if s.pid == pid]
        self.spans = [s for s in self.spans if s.pid != pid]
        if mine:
            path = self.child_dir / f"{pid}-{time.perf_counter_ns()}.json"
            path.write_text(json.dumps(mine), encoding="utf-8")

    def settle(self) -> None:
        """Fold tallies and the spans flushed by forked children in."""
        self._fold_tallies()
        if self.child_dir is None or not self.child_dir.is_dir():
            return
        for path in sorted(self.child_dir.glob("*.json")):
            for row in json.loads(path.read_text(encoding="utf-8")):
                self.spans.append(Span(*row))
            path.unlink()

    # -- queries -------------------------------------------------------------

    def select(self, name: str, ops: set[int] | None = None) -> list[Span]:
        """Spans called ``name`` (restricted to operations in ``ops``)."""
        return [
            s for s in self.spans
            if s.name == name and (ops is None or s.op in ops)
        ]

    def per_op(self, name: str, ops: set[int], self_only: bool = False) -> list[float]:
        """Summed duration (or self time) of ``name`` per operation in ``ops``.

        Values come in the iteration order of ``ops``, so lists taken
        for the same set line up.
        """
        totals = dict.fromkeys(ops, 0.0)
        for span in self.select(name, ops):
            totals[span.op] += span.self_s if self_only else span.dur
        return list(totals.values())

    def layer_table(self, ops: set, wall: float | None = None) -> list[dict]:
        """Per-layer calls, self time and share of the operations' wall.

        The wall defaults to the summed duration of the ``bench``
        operation spans in ``ops``; self time counts every span of the
        layer that belongs to those operations, on whichever thread or
        process it ran, so layers working in parallel can add up to
        more than the wall.
        """
        if wall is None:
            wall = sum(s.dur for s in self.spans if s.layer == "bench" and s.op in ops)
        rows: dict[str, dict] = {}
        for span in self.spans:
            if span.op not in ops:
                continue
            row = rows.setdefault(
                span.layer, {"layer": span.layer, "calls": 0, "self_s": 0.0}
            )
            row["calls"] += 1
            row["self_s"] += span.self_s
        for row in rows.values():
            row["share"] = row["self_s"] / wall if wall > 0 else 0.0
        return sorted(rows.values(), key=lambda r: -r["self_s"])

    # -- export --------------------------------------------------------------

    def write_chrome(self, path: Path) -> None:
        """All spans as a Chrome trace-event file (``ph: X`` events)."""
        t0 = min((s.start for s in self.spans), default=0.0)
        events = [
            {
                "name": s.name,
                "cat": s.layer,
                "ph": "X",
                "ts": (s.start - t0) * 1e6,
                "dur": s.dur * 1e6,
                "pid": s.pid,
                "tid": s.tid,
                "args": {"op": s.op, "self_us": s.self_s * 1e6},
            }
            for s in self.spans
        ]
        path.write_text(
            json.dumps({"traceEvents": events, "displayTimeUnit": "ms"}),
            encoding="utf-8",
        )

    def profile_report(self, layer: str, top: int = 15) -> str:
        """``pstats`` top functions by cumulative time under ``layer``."""
        out = io.StringIO()
        profile = self._profiles[layer]
        try:
            stats = pstats.Stats(profile, stream=out)
        except TypeError:  # nothing was profiled
            return f"(no {layer} calls were profiled)\n"
        # The wrappers' own frames say nothing about the layer.
        here = os.path.abspath(__file__)
        for key in [k for k in stats.stats if k[0] == here]:
            del stats.stats[key]
        stats.strip_dirs().sort_stats("cumulative").print_stats(top)
        return out.getvalue()
