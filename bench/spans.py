"""Span tracing for the benchmark: wrappers around each layer's entry points.

``Tracer`` replaces the library's layer entry points with wrappers that
record one span per call: its name, start, end, parent span, operation id,
thread id and the work it did as counts (walks, steps, rows, blocks,
points). The library looks every wrapped name up at call time, so nothing
in ``src/`` changes. Each thread keeps its own span stack; a span opened on
a ``run_many`` pool thread with an empty stack takes the open ``run_many``
span as its parent.

``attribute`` turns one operation's spans into wall-clock self time per
span name. Each instant of the operation goes to the spans that are open
and have no open child; when several threads have such a span at once,
the instant is split equally between them. Self times plus the time no span
covered therefore add up to the operation's wall time.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import itertools
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Optional

import numpy as np


@dataclass
class Span:
    sid: int
    name: str
    parent: Optional[int]
    op: Optional[int]
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


def _count_directions(args, kwargs, out):
    return {"rows": int(out.shape[0]), "dim": int(out.shape[1])}


def _count_philox(args, kwargs, out):
    return {"blocks": int(out[0].size)}


def _count_points(args, kwargs, out):
    # Oracles and boundary data take (self, pts); one point may come as a vector.
    pts = np.asarray(args[1] if len(args) > 1 else kwargs["pts"])
    return {"points": 1 if pts.ndim == 1 else int(pts.shape[0])}


class Tracer:
    """Installs span-recording wrappers on the layer entry points.

    Use as ``with tracer.recording(op_id): ...``; outside that block the
    library runs unwrapped. ``take()`` hands over and clears the spans.
    """

    def __init__(self):
        from mlwos import estimator, geometry, studies, walk

        run_many_signature = inspect.signature(walk.run_many)

        def count_run_many(args, kwargs, out):
            bound = run_many_signature.bind(*args, **kwargs)
            bound.apply_defaults()
            return {"walks": int(bound.arguments["count"]), "steps": int(out.steps[-1].sum())}

        # (owner, attribute, span name, counter). The counter reads the call
        # arguments and the return value after the span has ended.
        self.targets = [
            (studies, "work_error_study", "studies", None),
            (estimator, "mc_estimate", "estimator", None),
            (estimator, "adaptive_mlmc", "estimator", None),
            (estimator, "mlmc_estimate", "estimator", None),
            (walk, "run_many", "walk.run_many", count_run_many),
            (walk, "_walk_chunk", "walk.engine", None),
            (walk, "_directions", "walk.directions", _count_directions),
            (walk, "philox4x64", "walk.philox", _count_philox),
            (geometry.Square, "_dist", "geometry.dist", _count_points),
            (geometry.Hemisphere, "_dist", "geometry.dist", _count_points),
            (geometry.Square, "_proj", "geometry.proj", _count_points),
            (geometry.Hemisphere, "_proj", "geometry.proj", _count_points),
            (geometry.BoundaryCondition, "__call__", "geometry.bc", _count_points),
        ]
        self.spans = []
        self._ids = itertools.count()
        self._local = threading.local()
        self._pool_parent = None
        self._op = None

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def _wrap(self, name, fn, counter):
        opens_pool = name == "walk.run_many"

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            stack = self._stack()
            parent = stack[-1] if stack else self._pool_parent
            span = Span(next(self._ids), name, parent, self._op, threading.get_ident(), 0.0)
            stack.append(span.sid)
            if opens_pool:
                saved_pool_parent, self._pool_parent = self._pool_parent, span.sid
            span.start = time.perf_counter()
            try:
                out = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter()
                if opens_pool:
                    self._pool_parent = saved_pool_parent
                stack.pop()
                self.spans.append(span)
            if counter is not None:
                span.counts = counter(args, kwargs, out)
            return out

        return wrapper

    @contextlib.contextmanager
    def recording(self, op_id):
        """Wrap the entry points for the block; spans get ``op_id``."""
        saved = []
        for owner, attr, name, counter in self.targets:
            original = owner.__dict__[attr]
            saved.append((owner, attr, original))
            setattr(owner, attr, self._wrap(name, original, counter))
        self._op = op_id
        try:
            yield self
        finally:
            self._op = None
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def take(self):
        spans, self.spans = self.spans, []
        return spans


def attribute(spans, t0, t1):
    """Wall-clock self time per span name over [t0, t1], and the time in
    that interval no span covered.

    Raises ValueError when a span is unclosed, ends before it starts, or
    lies outside its parent or the interval.
    """
    by_id = {s.sid: s for s in spans}
    for s in spans:
        if not s.start <= s.end:
            raise ValueError(f"span {s.name} ends before it starts")
        if not (t0 <= s.start and s.end <= t1):
            raise ValueError(f"span {s.name} lies outside the operation")
        p = by_id.get(s.parent)
        if p is not None and not (p.start <= s.start and s.end <= p.end):
            raise ValueError(f"span {s.name} lies outside its parent {p.name}")
    # Starts in id order put parents before children; ends in reverse id
    # order put children before parents when times tie.
    events = [(s.start, 0, s.sid) for s in spans] + [(s.end, 1, -s.sid) for s in spans]
    events.sort()
    self_s = defaultdict(float)
    open_children = defaultdict(int)
    leaves = set()
    covered = 0.0
    now = t0
    for t, kind, key in events:
        if leaves and t > now:
            share = (t - now) / len(leaves)
            for sid in leaves:
                self_s[by_id[sid].name] += share
            covered += t - now
        now = max(now, t)
        if kind == 0:
            s = by_id[key]
            if s.parent in by_id:
                open_children[s.parent] += 1
                leaves.discard(s.parent)
            leaves.add(key)
        else:
            s = by_id[-key]
            leaves.discard(s.sid)
            if s.parent in by_id:
                open_children[s.parent] -= 1
                if open_children[s.parent] == 0:
                    leaves.add(s.parent)
    return dict(self_s), (t1 - t0) - covered
