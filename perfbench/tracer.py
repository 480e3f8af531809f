"""Operation clock and layer spans, recorded from outside the program.

The benchmark edits no source file.  It times calls by replacing, for the
length of a run, the module attributes through which one cubesec layer
calls another (the binding sites) with wrappers, and puts the originals
back afterwards.

A :class:`Tracer` always records one interval per operation, which is what
the latency metrics need.  With ``spans=True`` it also records one span per
wrapped call; spans stay in memory until the run has ended.  Given a
``gauge`` (a function that times a fixed reference kernel), it reads the
gauge between operations, at most every ``gauge_every`` seconds, so that
each operation can be scaled by the machine's speed around it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager


class Span:
    """One wrapped call: name, interval, enclosing span and operation."""

    __slots__ = ("name", "start", "end", "parent", "op", "cell", "error", "info")

    def __init__(self, name, start, parent, op, cell):
        self.name = name
        self.start = start
        self.end = start
        self.parent = parent  # index of the enclosing span, -1 for none
        self.op = op  # index of the enclosing operation, -1 for none
        self.cell = cell
        self.error = False
        self.info = None

    def to_list(self) -> list:
        return [self.name, self.start, self.end, self.parent, self.op,
                list(self.cell) if self.cell else None, self.error, self.info]


class Tracer:
    """Records operation intervals, and spans when ``spans`` is true."""

    def __init__(self, spans: bool, gauge=None, gauge_every: float = 0.5):
        self.enabled = spans
        self.spans: list[Span] = []
        self.ops: list[tuple[float, float]] = []
        self.gauge = gauge
        self.gauge_every = gauge_every
        self.gauges: list[tuple[float, float]] = []  # (when read, reference seconds)
        self.cell = None  # (n, k) of the cell being run, set by the workload
        self._op = -1
        self._stack: list[int] = []

    def _call(self, name, fn, args, kwargs, observe):
        parent = self._stack[-1] if self._stack else -1
        index = len(self.spans)
        span = Span(name, time.perf_counter(), parent, self._op, self.cell)
        self.spans.append(span)
        self._stack.append(index)
        try:
            result = fn(*args, **kwargs)
        except BaseException:
            span.error = True
            raise
        finally:
            span.end = time.perf_counter()
            self._stack.pop()
        if observe is not None:
            span.info = observe(result)
        return result

    def read_gauge(self):
        self.gauges.append((time.perf_counter(), self.gauge()))

    def layer(self, name, fn, observe=None):
        """``fn`` wrapped to record a span per call; ``fn`` itself when spans are off.

        ``observe`` maps the call's result to a small value kept on the span.
        """
        if not self.enabled:
            return fn

        def wrapper(*args, **kwargs):
            return self._call(name, fn, args, kwargs, observe)

        return wrapper

    def operation(self, name, fn):
        """``fn`` wrapped so that each call is one timed operation.

        An operation that raises is still recorded.  With spans on, the
        operation is also a span, and the spans inside it carry its index.
        """

        def wrapper(*args, **kwargs):
            if self.gauge is not None and (
                    not self.gauges or time.perf_counter() - self.gauges[-1][0] >= self.gauge_every):
                self.read_gauge()
            op = len(self.ops)
            self.ops.append((0.0, 0.0))
            self._op = op
            start = time.perf_counter()
            try:
                if self.enabled:
                    return self._call(name, fn, args, kwargs, None)
                return fn(*args, **kwargs)
            finally:
                self.ops[op] = (start, time.perf_counter())
                self._op = -1

        return wrapper


@contextmanager
def patched(sites):
    """Set ``module.attr = replacement`` for each site; restore on exit."""
    saved = [(module, attr, getattr(module, attr)) for module, attr, _ in sites]
    try:
        for module, attr, replacement in sites:
            setattr(module, attr, replacement)
        yield
    finally:
        for module, attr, original in saved:
            setattr(module, attr, original)


def self_times(spans: list[Span]) -> list[float]:
    """Duration of each span minus the time its child spans cover.

    Spans come from one thread and a call stack, so the children of a span
    lie inside it and never overlap one another: the covered time is the
    sum of their durations.
    """
    covered = [0.0] * len(spans)
    for span in spans:
        if span.parent >= 0:
            covered[span.parent] += span.end - span.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def totals(spans: list[Span]) -> dict:
    """Per span name: calls, errors, inclusive and self seconds, and per cell."""
    out: dict[str, dict] = {}
    for span, own in zip(spans, self_times(spans)):
        t = out.setdefault(span.name, {"calls": 0, "errors": 0, "seconds": 0.0,
                                       "self": 0.0, "cells": {}, "info": []})
        duration = span.end - span.start
        t["calls"] += 1
        t["errors"] += span.error
        t["seconds"] += duration
        t["self"] += own
        cell = t["cells"].setdefault(span.cell, [0, 0.0])
        cell[0] += 1
        cell[1] += duration
        if span.info is not None:
            t["info"].append(span.info)
    return out
