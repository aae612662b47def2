"""Spans at layer boundaries, recorded from outside the program.

A :class:`SpanRecorder` wraps a function so that every call records a
:class:`Span`: its name, start, end, parent span, thread and unit id.  The
parent is tracked in a :mod:`contextvars` variable, so it follows calls
into the program's thread pools (the runtime and the engines submit every
task under a copy of the submitting context).  Spans stay in memory until
the run ends.

:func:`install` puts wrappers in place for a table of :class:`Boundary`
rows and takes them out again.  A module-level function is replaced under
every name a ``repro`` module binds it to, because a ``from ... import``
copies the binding: ``repro.matrix.distributed`` calls its own ``split``,
not ``repro.blocks.conversion.split``.  A method is replaced on the class
that defines it.

Self time is a span's duration minus the part of it that its child spans
cover, on any thread.  Summing self time over spans gives busy
thread-seconds: two children running side by side on two threads count
twice.
"""

from __future__ import annotations

import collections
import contextlib
import contextvars
import dataclasses
import functools
import importlib
import itertools
import sys
import threading
import time
from typing import Callable, Iterable, Iterator, Union

#: A counter maps ``(result, *args, **kwargs)`` of a wrapped call to
#: ``(count name, amount)`` pairs taken at that boundary.
CountFn = Callable[..., Iterable[tuple[str, int]]]

#: A span name, or a function of the call's arguments that returns one.
SpanName = Union[str, Callable[..., str]]


@dataclasses.dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int
    unit: int


@dataclasses.dataclass(frozen=True)
class Boundary:
    """One wrapped entry point of a layer.

    ``target`` is a function name in ``module`` or ``Class.method``.
    """

    name: SpanName
    module: str
    target: str
    counter: CountFn | None = None


def union_length(
    intervals: Iterable[tuple[float, float]], lo: float, hi: float
) -> float:
    """Length of the union of ``intervals`` clipped to ``[lo, hi]``."""
    clipped = sorted(
        (max(start, lo), min(end, hi))
        for start, end in intervals
        if min(end, hi) > max(start, lo)
    )
    total = 0.0
    run_start = run_end = None
    for start, end in clipped:
        if run_end is None or start > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = start, end
        else:
            run_end = max(run_end, end)
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Iterable[Span]) -> dict[int, float]:
    """Self time of every span: its duration minus its children's cover."""
    spans = list(spans)
    children: dict[int, list[tuple[float, float]]] = collections.defaultdict(list)
    for span in spans:
        if span.parent is not None:
            children[span.parent].append((span.start, span.end))
    return {
        span.id: (span.end - span.start)
        - union_length(children.get(span.id, ()), span.start, span.end)
        for span in spans
    }


def busy_by_name(spans: Iterable[Span]) -> dict[str, float]:
    """Self time summed per span name (busy thread-seconds)."""
    spans = list(spans)
    own = self_times(spans)
    busy: dict[str, float] = collections.defaultdict(float)
    for span in spans:
        busy[span.name] += own[span.id]
    return dict(busy)


def uncovered(
    spans: Iterable[Span], lo: float, hi: float, thread: int
) -> float:
    """Time in ``[lo, hi]`` that no top-level span on ``thread`` covers."""
    top = [
        (span.start, span.end)
        for span in spans
        if span.parent is None and span.thread == thread
    ]
    return (hi - lo) - union_length(top, lo, hi)


class SpanRecorder:
    """Collects spans and boundary counts, tagged with the current unit."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: dict[int, collections.Counter] = collections.defaultdict(
            collections.Counter
        )
        self.unit = 0
        self._current: contextvars.ContextVar[int | None] = contextvars.ContextVar(
            "perfbench_span", default=None
        )
        self._ids = itertools.count(1)
        self._lock = threading.Lock()

    def begin_unit(self) -> int:
        """Tag spans and counts from now on with a fresh unit id."""
        self.unit += 1
        return self.unit

    def add(self, key: str, amount: int) -> None:
        with self._lock:
            self.counts[self.unit][key] += amount

    def unit_spans(self, unit: int) -> list[Span]:
        return [span for span in self.spans if span.unit == unit]

    def wrap(
        self, func: Callable, name: SpanName, counter: CountFn | None = None
    ) -> Callable:
        """``func`` with a span around every call."""
        current = self._current
        clock = time.perf_counter

        @functools.wraps(func)
        def wrapped(*args, **kwargs):
            span_name = name(*args, **kwargs) if callable(name) else name
            span_id = next(self._ids)
            parent = current.get()
            token = current.set(span_id)
            start = clock()
            try:
                result = func(*args, **kwargs)
            finally:
                end = clock()
                current.reset(token)
                self.spans.append(
                    Span(
                        span_id,
                        span_name,
                        start,
                        end,
                        parent,
                        threading.get_ident(),
                        self.unit,
                    )
                )
            if counter is not None:
                for key, amount in counter(result, *args, **kwargs):
                    self.add(key, amount)
            return result

        return wrapped


@contextlib.contextmanager
def install(
    recorder: SpanRecorder, boundaries: Iterable[Boundary]
) -> Iterator[None]:
    """Wrap every boundary for the duration of the block."""
    restore: list[tuple[object, str, object]] = []
    try:
        for boundary in boundaries:
            restore.extend(_install_one(recorder, boundary))
        yield
    finally:
        for holder, attr, original in reversed(restore):
            setattr(holder, attr, original)


def _install_one(
    recorder: SpanRecorder, boundary: Boundary
) -> list[tuple[object, str, object]]:
    module = importlib.import_module(boundary.module)
    if "." in boundary.target:
        class_name, attr = boundary.target.split(".")
        owner = getattr(module, class_name)
        raw = owner.__dict__[attr]
        if isinstance(raw, classmethod):
            wrapped = classmethod(
                recorder.wrap(raw.__func__, boundary.name, boundary.counter)
            )
        else:
            wrapped = recorder.wrap(raw, boundary.name, boundary.counter)
        setattr(owner, attr, wrapped)
        return [(owner, attr, raw)]
    original = getattr(module, boundary.target)
    wrapped = recorder.wrap(original, boundary.name, boundary.counter)
    restore = []
    for name, loaded in list(sys.modules.items()):
        if loaded is None or not (name == "repro" or name.startswith("repro.")):
            continue
        for attr, value in list(vars(loaded).items()):
            if value is original:
                setattr(loaded, attr, wrapped)
                restore.append((loaded, attr, original))
    return restore
