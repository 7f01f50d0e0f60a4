"""Spans around the library's public functions, recorded from outside.

``instrument`` replaces every public function of the library, by name, in
each module namespace that calls it (``cli.solve_qes``,
``records.bae_residual``, ``solver.delta_pencil``, ...) and restores the
originals on exit. Spans carry a parent and a thread id and stay in memory;
a worker-thread span with no parent on its own thread hangs under the
current root call, so a layer's self time is its duration minus the union
of its children's intervals, across threads.
"""
from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time
from collections import Counter, defaultdict
from dataclasses import dataclass
from typing import Any

CALLER_MODULES = ("models", "stencil", "solver", "oracle", "records", "cli")

# Leaf helpers called per value or per level: only counted, because a span
# per call would cost more than the work and blur their callers' self time.
COUNT_ONLY = {"records.fmt", "models.su11_elements"}

# Spans whose arguments, or whose (small) result, the per-layer metrics read.
KEEP_ARGS = {"oracle.parity_spectrum", "oracle.build_hamiltonian", "solver.delta_pencil"}
KEEP_RESULT = {"oracle.match_energy", "records.build_record"}


@dataclass
class Span:
    sid: int
    parent: int | None
    name: str
    tid: int
    t0: float
    t1: float
    args: tuple = ()
    result: Any = None
    error: str | None = None


class Tracer:
    """Collects spans and counts; one instance per traced pass."""

    def __init__(self):
        self.spans: list[Span] = []
        self.root: int | None = None
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._lock = threading.Lock()
        self._counters: list[Counter] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def counts(self) -> Counter:
        total = Counter()
        with self._lock:
            for c in self._counters:
                total.update(c)
        return total

    def _count(self, name: str) -> None:
        counter = getattr(self._local, "counter", None)
        if counter is None:
            counter = self._local.counter = Counter()
            with self._lock:
                self._counters.append(counter)
        counter[name] += 1

    def call(self, name: str, fn, *args, root: bool = False, **kwargs):
        """Run ``fn`` inside a span; ``root`` makes it the parent of
        spans that other threads open while it runs."""
        stack = self._stack()
        parent = stack[-1] if stack else self.root
        sid = next(self._ids)
        if root:
            self.root = sid
        stack.append(sid)
        span = Span(sid, parent, name, threading.get_ident(), 0.0, 0.0)
        span.t0 = time.perf_counter()
        try:
            span.result = fn(*args, **kwargs)
            return span.result
        except BaseException as exc:
            span.error = type(exc).__name__
            raise
        finally:
            span.t1 = time.perf_counter()
            stack.pop()
            if root:
                self.root = None
            if name in KEEP_ARGS:
                span.args = args
            if name not in KEEP_RESULT:
                span.result = None
            self.spans.append(span)

    def wrap(self, name: str, fn):
        if name in COUNT_ONLY:
            @functools.wraps(fn)
            def counted(*args, **kwargs):
                self._count(name)
                return fn(*args, **kwargs)
            return counted

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            return self.call(name, fn, *args, **kwargs)
        return traced


def _public_functions(module) -> dict[str, Any]:
    """Public library functions visible in ``module``'s namespace, except
    the CLI's own (main and its subcommand handlers make up cli's layer)."""
    out = {}
    for attr, obj in vars(module).items():
        if (not attr.startswith("_") and inspect.isfunction(obj)
                and obj.__module__.startswith("qes_rabi.")
                and obj.__module__ != "qes_rabi.cli"):
            out[attr] = obj
    return out


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[1]}.{fn.__name__}"


@contextlib.contextmanager
def instrument(tracer: Tracer):
    """Patch every caller namespace for the duration of the block."""
    patched = []
    try:
        for mod_name in CALLER_MODULES:
            module = importlib.import_module(f"qes_rabi.{mod_name}")
            for attr, fn in _public_functions(module).items():
                patched.append((module, attr, fn))
                setattr(module, attr, tracer.wrap(span_name(fn), fn))
        yield tracer
    finally:
        for module, attr, fn in reversed(patched):
            setattr(module, attr, fn)


def _covered(intervals: list[tuple[float, float]], lo: float, hi: float) -> float:
    """Length of the union of ``intervals`` clipped to [lo, hi]."""
    total, end = 0.0, lo
    for a, b in sorted(intervals):
        a, b = max(a, end), min(b, hi)
        if b > a:
            total += b - a
            end = b
    return total


def layer_times(spans: list[Span]) -> tuple[dict, dict, Counter]:
    """Per span name: total time, self time and number of calls."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.t0, s.t1))
    total, self_time, calls = defaultdict(float), defaultdict(float), Counter()
    for s in spans:
        dur = s.t1 - s.t0
        total[s.name] += dur
        self_time[s.name] += dur - _covered(children.get(s.sid, []), s.t0, s.t1)
        calls[s.name] += 1
    return total, self_time, calls
