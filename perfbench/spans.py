"""Span recording from outside the package, and self time from the spans.

A Tracer replaces traced functions and methods with wrappers that record one
span per call: a name, a start, an end and the index of the enclosing span.
Spans are kept in flat arrays, because the acceptance workload records about a
million of them.  Only the thread that created the tracer records; a call from
another thread runs unrecorded, so spans from worker threads cannot corrupt
the parent links.
"""

from __future__ import annotations

import functools
import inspect
import sys
import threading
import time
from array import array


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.span_name = array("i")
        self.parent = array("i")
        self.start = array("d")
        self.end = array("d")
        self._stack: list[int] = []
        self._owner = threading.get_ident()
        self.absent: dict[str, str] = {}

    def _name_id(self, name: str) -> int:
        if name not in self.names:
            self.names.append(name)
        return self.names.index(name)

    def wrap(self, name: str, fn, on_call=None):
        """A wrapper of fn that records a span called `name` per call.

        on_call(span index, args, kwargs), if given, runs before each
        recorded call.  For a generator function each resumption is one
        span, so the time spent producing items is attributed to it and not
        to the consumer.
        """
        nid = self._name_id(name)
        span_name, parent, start, end = self.span_name, self.parent, self.start, self.end
        stack, owner, ident, clock = self._stack, self._owner, threading.get_ident, time.perf_counter

        def enter() -> int:
            i = len(start)
            span_name.append(nid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(i)
            start.append(clock())
            return i

        def leave(i: int) -> None:
            end[i] = clock()
            stack.pop()

        if inspect.isgeneratorfunction(fn):

            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if ident() != owner:
                        item = next(it, _DONE)
                    else:
                        i = enter()
                        try:
                            item = next(it, _DONE)
                        finally:
                            leave(i)
                    if item is _DONE:
                        return
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if ident() != owner:
                return fn(*args, **kwargs)
            i = enter()
            if on_call is not None:
                on_call(i, args, kwargs)
            try:
                return fn(*args, **kwargs)
            finally:
                leave(i)

        return wrapper

    def patch(self, name: str, module: str, attr: str, on_call=None) -> bool:
        """Trace `module.attr` ("Class.method" for a method) as `name`.

        A function is replaced in every loaded agcodes module that binds it,
        since `from .x import y` copies the binding.  A method is replaced on
        its class.  A missing target is recorded in `absent`.
        """
        mod = sys.modules.get(module)
        owner_name, _, leaf = attr.rpartition(".")
        holder = getattr(mod, owner_name, None) if owner_name else mod
        orig = getattr(holder, leaf, None) if holder is not None else None
        if orig is None or not callable(orig):
            self.absent[name] = f"{module}.{attr} no longer exists"
            return False
        wrapped = self.wrap(name, orig, on_call)
        if owner_name:
            setattr(holder, leaf, wrapped)
            return True
        for mname, m in list(sys.modules.items()):
            if m is None or not (mname == "agcodes" or mname.startswith("agcodes.")):
                continue
            for key, value in list(vars(m).items()):
                if value is orig:
                    setattr(m, key, wrapped)
        return True

    def self_times(self) -> list[float]:
        return self_times(self.parent, self.start, self.end)


_DONE = object()


def self_times(parent, start, end) -> list[float]:
    """Per span: its duration minus the part of it that its children cover.

    Children are visited in start order, so the covered part is the union of
    their intervals clipped to the parent, counted once where they overlap.
    """
    n = len(start)
    covered = [0.0] * n
    reach = [float("-inf")] * n  # furthest end covered so far, per parent
    for i in sorted(range(n), key=start.__getitem__):
        p = parent[i]
        if p < 0:
            continue
        lo = max(start[i], start[p], reach[p])
        hi = min(end[i], end[p])
        if hi > lo:
            covered[p] += hi - lo
            reach[p] = hi
    return [end[i] - start[i] - covered[i] for i in range(n)]


def aggregate(names, span_name, selfs) -> dict[str, tuple[int, float]]:
    """Span name -> (span count, summed self time in seconds)."""
    count = [0] * len(names)
    total = [0.0] * len(names)
    for nid, s in zip(span_name, selfs):
        count[nid] += 1
        total[nid] += s
    return {name: (count[i], total[i]) for i, name in enumerate(names)}
