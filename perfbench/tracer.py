"""Outside-in span tracing for chargelab, and the arithmetic on its spans.

`Tracer.install` wraps functions and methods named as ``module:qualname``
(``"numerics:integrate_1d"``, ``"correlation:ParticleConfiguration.__post_init__"``)
without editing the package.  A function imported by name into other modules
(``from .numerics import integrate_1d``) has one binding per module; every
module-level binding of the original object in the package is rebound, so a
call through any of them is recorded.  A name the package no longer has is
reported as absent with a reason, never as an error.

Each wrapped call records one span: name, start, end, thread, parent, an
optional count read from its arguments or return value, and optionally the
calling thread's CPU time.  Spans stay in memory until `Tracer.dump`.  Each
thread has its own span stack; a span that opens on the empty stack of a
thread other than the installing (main) thread takes as its parent the
innermost open span of the main thread, which is the span that handed the
work to a pool.

`aggregate` turns spans into per-name totals.  Self time is a span's
duration minus the union of its children's intervals, so children that ran
concurrently on pool threads are not subtracted twice.
"""
from __future__ import annotations

import functools
import importlib
import inspect
import itertools
import json
import sys
import threading
import time
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Target:
    """One function to wrap.

    `count(call)` reads a counter from a `Call`; `cpu` also records the
    calling thread's CPU time so that waiting can be told from working.
    """

    spec: str
    count: Callable[["Call"], float] | None = None
    cpu: bool = False

    @property
    def name(self) -> str:
        return self.spec.replace(":", ".")


class Call:
    """Arguments and result of one wrapped call, for counter extraction."""

    __slots__ = ("signature", "args", "kwargs", "result")

    def __init__(self, signature, args, kwargs, result):
        self.signature = signature
        self.args = args
        self.kwargs = kwargs
        self.result = result

    def arg(self, name: str):
        bound = self.signature.bind(*self.args, **self.kwargs)
        bound.apply_defaults()
        return bound.arguments[name]


# Span fields, in dump order.
SPAN_FIELDS = ("id", "name", "start", "end", "thread", "parent", "cpu", "count")


class Tracer:
    def __init__(self, package: str, clock=time.perf_counter, cpu_clock=time.thread_time):
        self.package = package
        self.clock = clock
        self.cpu_clock = cpu_clock
        self.spans: list[tuple] = []
        self.absent: dict[str, str] = {}
        self.rebound: dict[str, list[str]] = {}
        self.errors: dict[str, str] = {}
        self._ids = itertools.count()
        self._stacks: dict[int, list[int]] = {}
        self._main = threading.get_ident()

    # -- wrapping ---------------------------------------------------------

    def install(self, targets) -> None:
        for target in targets:
            self._install_one(target)

    def _resolve(self, target: Target):
        module_name, _, qualname = target.spec.partition(":")
        full = f"{self.package}.{module_name}"
        try:
            owner = importlib.import_module(full)
        except ImportError as exc:
            return None, None, None, f"module {full} cannot be imported: {exc}"
        parts = qualname.split(".")
        for part in parts[:-1]:
            if not hasattr(owner, part):
                return None, None, None, f"{full} has no attribute {part}"
            owner = getattr(owner, part)
        attr = parts[-1]
        # a method is looked up on its class's own dict, not an inherited one
        original = owner.__dict__.get(attr) if isinstance(owner, type) else getattr(owner, attr, None)
        if original is None:
            return None, None, None, f"{full} has no attribute {qualname}"
        if not callable(original):
            return None, None, None, f"{full}.{qualname} is not callable"
        return owner, attr, original, None

    def _install_one(self, target: Target) -> None:
        owner, attr, original, missing = self._resolve(target)
        if missing is not None:
            self.absent[target.name] = missing
            return
        wrapper = self.wrap(target, original)
        if isinstance(owner, type):
            setattr(owner, attr, wrapper)
            self.rebound[target.name] = [f"{owner.__module__}.{owner.__qualname__}"]
            return
        sites = []
        for mod_name, module in list(sys.modules.items()):
            if module is None or not (
                mod_name == self.package or mod_name.startswith(self.package + ".")
            ):
                continue
            for key, value in list(vars(module).items()):
                if value is original:
                    setattr(module, key, wrapper)
                    sites.append(f"{mod_name}.{key}")
        self.rebound[target.name] = sorted(sites)

    def wrap(self, target: Target, func):
        name = target.name
        count = target.count
        record_cpu = target.cpu
        try:
            signature = inspect.signature(func)
        except (TypeError, ValueError):
            signature = None
        clock, cpu_clock = self.clock, self.cpu_clock
        stacks, spans, ids, main = self._stacks, self.spans, self._ids, self._main

        @functools.wraps(func)
        def traced(*args, **kwargs):
            tid = threading.get_ident()
            stack = stacks.get(tid)
            if stack is None:
                stack = stacks.setdefault(tid, [])
            if stack:
                parent = stack[-1]
            elif tid != main and stacks.get(main):
                parent = stacks[main][-1]
            else:
                parent = None
            sid = next(ids)
            stack.append(sid)
            cpu0 = cpu_clock() if record_cpu else None
            returned = False
            start = clock()
            try:
                result = func(*args, **kwargs)
                returned = True
                return result
            finally:
                end = clock()
                cpu = cpu_clock() - cpu0 if record_cpu else None
                stack.pop()
                value = None
                if count is not None and returned:
                    try:
                        value = count(Call(signature, args, kwargs, result))
                    except Exception as exc:  # a counter must never break the traced program
                        self.errors.setdefault(name, f"counter: {type(exc).__name__}: {exc}")
                spans.append((sid, name, start, end, tid, parent, cpu, value))

        return traced

    # -- output -----------------------------------------------------------

    def dump(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(
                {
                    "fields": SPAN_FIELDS,
                    "spans": self.spans,
                    "absent": self.absent,
                    "rebound": self.rebound,
                    "errors": self.errors,
                },
                fh,
            )


# ---------------------------------------------------------------------------
# span arithmetic
# ---------------------------------------------------------------------------


def covered(intervals, lo: float, hi: float) -> float:
    """Length of the union of `intervals`, clipped to [lo, hi]."""
    total, cur_lo, cur_hi = 0.0, None, None
    for a, b in sorted((max(a, lo), min(b, hi)) for a, b in intervals):
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


@dataclass
class Stats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    wait_s: float = 0.0
    child_s: float = 0.0  # summed (not merged) duration of direct children
    count_sum: float = 0.0
    count_max: float = 0.0

    def merge(self, other: "Stats") -> None:
        """Add another process's statistics for the same name."""
        self.calls += other.calls
        self.total_s += other.total_s
        self.self_s += other.self_s
        self.wait_s += other.wait_s
        self.child_s += other.child_s
        self.count_sum += other.count_sum
        self.count_max = max(self.count_max, other.count_max)


def aggregate(spans) -> dict[str, Stats]:
    """Per-name statistics from span tuples laid out as SPAN_FIELDS.

    wait_s is span wall minus the calling thread's CPU time, for spans that
    recorded it; child_s over total_s is how far the children overlapped.
    """
    children: dict[int, list[tuple[float, float]]] = {}
    for span in spans:
        parent = span[5]
        if parent is not None:
            children.setdefault(parent, []).append((span[2], span[3]))
    stats: dict[str, Stats] = {}
    for sid, name, start, end, _tid, _parent, cpu, value in spans:
        s = stats.setdefault(name, Stats())
        duration = end - start
        kids = children.get(sid, ())
        s.calls += 1
        s.total_s += duration
        s.self_s += duration - covered(kids, start, end)
        s.child_s += sum(b - a for a, b in kids)
        if cpu is not None:
            s.wait_s += duration - cpu
        if value is not None:
            s.count_sum += value
            s.count_max = max(s.count_max, value)
    return stats
