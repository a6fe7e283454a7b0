"""Spans measured from outside the program.

The benchmark does not instrument ``src/``. Instead, while a traced op or a
replay runs, it swaps a layer's public function (or method) for a wrapper
that adds the call's wall time to a named span, and restores the original
afterwards. Only the driver process is patched: Spark's Python workers
import the program afresh, so the workload they run is untouched.
"""
from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict


class Spans:
    """Summed wall time, call count and call order per span name."""

    def __init__(self):
        self.seconds = defaultdict(float)
        self.calls = defaultdict(int)
        self.order: list[tuple[str, float]] = []

    def add(self, name: str, dt: float) -> None:
        self.seconds[name] += dt
        self.calls[name] += 1
        self.order.append((name, dt))


def _timed(fn, spans: Spans, name: str):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            spans.add(name, time.perf_counter() - t)

    return wrapper


def _timed_iter(fn, spans: Spans, name: str):
    """Wrap a generator function: only time spent inside ``next`` counts,
    not the consumer's work between items."""

    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        it = fn(*args, **kwargs)
        while True:
            t = time.perf_counter()
            try:
                item = next(it)
            except StopIteration:
                spans.add(name, time.perf_counter() - t)
                return
            spans.add(name, time.perf_counter() - t)
            yield item

    return wrapper


@contextlib.contextmanager
def patched(spans: Spans, targets):
    """Time calls to ``(owner, attribute, span name[, "iter"])`` targets.

    ``owner`` is a module or a class; an attribute a class only inherits is
    deleted again on exit instead of being pinned to the parent's function.
    """
    saved = []
    try:
        for owner, attr, name, *kind in targets:
            own = attr in vars(owner)
            orig = getattr(owner, attr)
            wrap = _timed_iter if kind == ["iter"] else _timed
            saved.append((owner, attr, own, vars(owner).get(attr)))
            setattr(owner, attr, wrap(orig, spans, name))
        yield spans
    finally:
        for owner, attr, own, orig in reversed(saved):
            if own:
                setattr(owner, attr, orig)
            else:
                delattr(owner, attr)
