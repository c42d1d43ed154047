"""In-memory span tracer that wraps named functions of imported modules.

A span is one call: its name, start, end and the span that was open when it
began. Calls here are strictly nested (one thread), so a span's self time is
its duration minus the sum of its children's durations. Spans are kept in
memory and written out by the caller when the benchmark ends; per-name totals
stay exact even past SPAN_LIMIT, which only bounds the stored list.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable

SPAN_LIMIT = 50_000


class Tracer:
    def __init__(self, clock=time.perf_counter):
        self.clock = clock
        #: Stored spans: (span_id, parent_id, name, start, end, self_s); -1 = root.
        self.spans: list[tuple] = []
        self.dropped = 0
        #: name -> [calls, total_s, self_s]
        self.stats: dict[str, list] = {}
        self.counters: Counter = Counter()
        self.active = True
        self._stack: list[list] = []  # open: [span_id, parent_id, name, start, child_s]
        self._next_id = 0

    def begin(self, name: str) -> list:
        parent = self._stack[-1][0] if self._stack else -1
        frame = [self._next_id, parent, name, 0.0, 0.0]
        self._next_id += 1
        self._stack.append(frame)
        frame[3] = self.clock()
        return frame

    def end(self, frame: list) -> None:
        end = self.clock()
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame[2]} closed out of order")
        span_id, parent, name, start, child = frame
        total = end - start
        self_s = total - child
        if self._stack:
            self._stack[-1][4] += total
        agg = self.stats.get(name)
        if agg is None:
            agg = self.stats[name] = [0, 0.0, 0.0]
        agg[0] += 1
        agg[1] += total
        agg[2] += self_s
        if len(self.spans) < SPAN_LIMIT:
            self.spans.append((span_id, parent, name, start, end, self_s))
        else:
            self.dropped += 1

    @contextmanager
    def span(self, name: str):
        frame = self.begin(name)
        try:
            yield
        finally:
            self.end(frame)

    @contextmanager
    def paused(self):
        """Call through wrapped functions without recording (correctness gates)."""
        previous, self.active = self.active, False
        try:
            yield
        finally:
            self.active = previous

    def within(self, names) -> bool:
        """True when a span with one of ``names`` is open."""
        return any(frame[2] in names for frame in self._stack)

    def wrap(self, name: str, fn: Callable, on_call: Callable | None = None):
        """Return ``fn`` recording one span per call; ``on_call(tracer, args,
        kwargs)`` runs first and may update ``counters``."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.active:
                return fn(*args, **kwargs)
            if on_call is not None:
                on_call(self, args, kwargs)
            frame = self.begin(name)
            try:
                return fn(*args, **kwargs)
            finally:
                self.end(frame)

        return traced


@dataclass(frozen=True)
class Target:
    """One function to trace: ``attr`` is a module attribute or ``Class.method``."""

    module: str
    attr: str
    span: str
    on_call: Callable | None = None


def install(tracer: Tracer, targets, package: str):
    """Wrap every target that exists and rebind it in every loaded module of
    ``package`` that imported it by name.

    Returns ``(absent, undo)``: the span names whose function no longer
    exists, and a function that restores every rebound attribute.
    """
    modules = [m for name, m in list(sys.modules.items())
               if m is not None and (name == package or name.startswith(package + "."))]
    restore = []
    absent = []
    for target in targets:
        owner = sys.modules.get(target.module)
        path, _, leaf = target.attr.rpartition(".")
        for part in filter(None, path.split(".")):
            owner = getattr(owner, part, None)
        raw = vars(owner).get(leaf) if owner is not None else None
        if isinstance(raw, classmethod):
            restore.append((owner, leaf, raw))
            setattr(owner, leaf, classmethod(tracer.wrap(target.span, raw.__func__,
                                                         target.on_call)))
            continue
        if not callable(raw):
            absent.append(target.span)
            continue
        wrapped = tracer.wrap(target.span, raw, target.on_call)
        for module in modules:
            for key, value in list(vars(module).items()):
                if value is raw:
                    restore.append((module, key, value))
                    setattr(module, key, wrapped)

    def undo():
        for owner, key, value in reversed(restore):
            setattr(owner, key, value)

    return absent, undo
