"""In-memory span tracing for the benchmark's traced run.

A `Tracer` wraps callables so that each call records one span (name, start,
end, parent), and swaps module attributes for those wrappers until
`restore` puts the originals back.  Spans live in flat arrays, in the order
their calls started, and `self_times` reduces them to per-name call counts
and self times once the run is over.  Recording assumes one thread.
"""

from __future__ import annotations

import functools
import time
from array import array


def self_times(spans) -> dict[str, list]:
    """Per-name [calls, self seconds] from spans (name, start, end, parent).

    Spans come in order of start time; parent is the index of an earlier
    span, or -1 for a root.  A span's self time is its duration minus the
    part of its interval that the union of its children's intervals covers.
    """
    names: list = []
    starts, ends, covered, reach = array("d"), array("d"), array("d"), array("d")
    for i, (name, start, end, parent) in enumerate(spans):
        if end < start:
            raise ValueError(f"span {i} ends before it starts")
        if i and start < starts[-1]:
            raise ValueError(f"span {i} is out of start-time order")
        if parent >= i:
            raise ValueError(f"span {i} has parent {parent}, not an earlier span")
        names.append(name)
        starts.append(start)
        ends.append(end)
        covered.append(0.0)
        reach.append(start)
        if parent >= 0:
            # siblings arrive by start time, so the union grows from reach
            lo = max(start, reach[parent])
            hi = min(end, ends[parent])
            if hi > lo:
                covered[parent] += hi - lo
                reach[parent] = hi
    out: dict[str, list] = {}
    for name, start, end, cov in zip(names, starts, ends, covered):
        acc = out.setdefault(name, [0, 0.0])
        acc[0] += 1
        acc[1] += end - start - cov
    return out


class Tracer:
    """Span recorder plus the attribute swaps that route calls through it."""

    def __init__(self, clock=time.perf_counter):
        self._clock = clock
        self._names: list[str] = []
        self._ids: dict[str, int] = {}
        self._name = array("i")
        self._start = array("d")
        self._end = array("d")
        self._parent = array("i")
        self._stack = [-1]
        self._swaps: list = []  # (namespace object, attribute, original)

    def wrap(self, name: str, fn, observe=None):
        """`fn` recording a span named `name` per call; `observe(result)`
        runs after the span closes, so its cost stays out of the span."""
        if name not in self._ids:
            self._ids[name] = len(self._names)
            self._names.append(name)
        nid = self._ids[name]
        # bound methods held in the closure keep the per-call cost down
        add_name, add_parent, add_end = self._name.append, self._parent.append, self._end.append
        starts, ends, stack, clock = self._start, self._end, self._stack, self._clock
        add_start, push, pop = starts.append, stack.append, stack.pop

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            i = len(starts)
            add_name(nid)
            add_parent(stack[-1])
            add_end(0.0)
            push(i)
            add_start(clock())
            try:
                result = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                pop()
            if observe is not None:
                observe(result)
            return result

        return traced

    def swap(self, namespaces, owner, attr: str, replacement) -> None:
        """Bind `replacement` wherever a namespace in `namespaces` holds the
        object `owner.attr`, so calls through any module's import of it are
        routed to the replacement."""
        original = getattr(owner, attr)
        targets = [
            (ns, key)
            for ns in namespaces
            for key, value in vars(ns).items()
            if value is original
        ]
        for ns, key in targets:
            self._swaps.append((ns, key, original))
            setattr(ns, key, replacement)

    def restore(self) -> bool:
        """Put every swapped attribute back; True when each one is again the
        original object."""
        for ns, key, original in reversed(self._swaps):
            setattr(ns, key, original)
        ok = all(getattr(ns, key) is original for ns, key, original in self._swaps)
        self._swaps.clear()
        return ok

    def spans(self):
        """Recorded spans as (name, start, end, parent), in start order."""
        names = self._names
        return (
            (names[n], s, e, p)
            for n, s, e, p in zip(self._name, self._start, self._end, self._parent)
        )
