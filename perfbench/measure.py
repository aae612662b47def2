"""Closed-loop measurement of one workload, untraced or traced.

One client runs units back to back: a unit starts only after the previous
one finished.  A run starts another unit while the median unit so far
still fits in the run's seconds; it runs at least :data:`MIN_UNITS` units
when they fit in three times that.  Every unit's outputs and books are
checked, and every failure counts against the units attempted.
"""

from __future__ import annotations

import dataclasses
import importlib
import os
import pathlib
import resource
import subprocess
import sys
import threading
import time
import traceback
from typing import Callable

from repro.trace import TraceCollector, to_chrome_trace

from perfbench import boundaries, workloads
from perfbench.stats import Tally, median
from perfbench.tracing import SpanRecorder, install, uncovered

#: Untraced units per run, at least, when they fit in 3x the run time.
MIN_UNITS = 3

#: Fresh interpreters that each time ``import repro`` plus session and
#: cluster construction, half before the units and half after them, so
#: that one slow spell of the host does not set the median, ``setup_s``.
SETUP_REPEATS = 8

_SETUP_SNIPPET = """
import time
start = time.perf_counter()
from repro import ClusterConfig, DMacSession
DMacSession(ClusterConfig(num_workers={num_workers}, threads_per_worker={threads_per_worker},
                          max_concurrent_stages={max_concurrent_stages}))
print(time.perf_counter() - start)
""".format(**workloads.CLUSTER)


@dataclasses.dataclass
class Outcome:
    """What a run prints: correctness, unit counts and metrics."""

    tally: Tally
    metrics: dict[str, tuple[float, str]]


def measure_setup(root: pathlib.Path, repeats: int) -> list[float]:
    """Set-up seconds of ``repeats`` fresh interpreters, one after another."""
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    times = []
    for _ in range(repeats):
        done = subprocess.run(
            [sys.executable, "-c", _SETUP_SNIPPET],
            cwd=root,
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(done.stdout.split()[-1]))
    return times


def keep_going(elapsed: float, durations: list[float], seconds: float, min_units: int) -> bool:
    """Whether another unit (or unit pair) should start."""
    if not durations:
        return True
    estimate = median(durations)
    budget = 3 * seconds if len(durations) < min_units else seconds
    return elapsed + estimate <= budget


class Runner:
    """Runs and checks units of one workload on fixed inputs."""

    def __init__(self, workload: workloads.Workload, jobs, expected) -> None:
        self.workload = workload
        self.jobs = jobs
        self.expected = expected
        self.sessions = [workload.session() for _ in jobs]
        self.tally = Tally()
        self.first_books: dict | None = None

    def unit(self, tracer_factory=None):
        """Run one unit; returns ``(result or None, start, end, problems)``.
        The caller records the problems, adding its own."""
        start = time.perf_counter()
        try:
            result = workloads.run_unit(
                self.workload, self.jobs, self.sessions, tracer_factory
            )
        except Exception as exc:  # a failing unit is counted, never fatal
            end = time.perf_counter()
            traceback.print_exc(file=sys.stderr)
            return None, start, end, [f"unit raised {type(exc).__name__}: {exc}"]
        end = time.perf_counter()
        problems = workloads.check_unit(
            self.workload, result, self.expected, self.first_books
        )
        if self.first_books is None:
            self.first_books = result.books
        return result, start, end, problems


def prepare(name: str, seed: int, tiny: bool = False) -> Runner:
    """Generate the workload's inputs and reference outputs, and import the
    modules the program imports on first use, so the first unit does not
    pay for that."""
    for boundary in boundaries.BOUNDARIES:
        importlib.import_module(boundary.module)
    workload = workloads.WORKLOADS[name]
    jobs = workload.jobs(seed, tiny)
    return Runner(workload, jobs, workloads.reference(jobs))


def untraced(
    runner: Runner, seconds: float, measure_setup: Callable[[int], list[float]]
) -> Outcome:
    """The end-to-end metrics, tracing off.  ``measure_setup(n)`` returns
    ``n`` set-up times."""
    setup = measure_setup(SETUP_REPEATS // 2)
    durations, results = [], []
    began = time.perf_counter()
    while keep_going(time.perf_counter() - began, durations, seconds, MIN_UNITS):
        result, start, end, problems = runner.unit()
        runner.tally.record(problems)
        durations.append(end - start)
        if result is not None:
            results.append(result)
    setup += measure_setup(SETUP_REPEATS - len(setup))
    rss_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    metrics = {
        "run_s": (median(durations), "s"),
        "setup_s": (median(setup), "s"),
        "rss_peak_mb": (rss_kib * 1024 / 1e6, "MB"),
        "sim_s": (median([r.sim_s for r in results]) if results else 0.0, "s_sim"),
        "comm_bytes": (median([r.comm_bytes for r in results]) if results else 0.0, "B"),
        "pass_ratio": (runner.tally.pass_ratio, "ratio"),
    }
    return Outcome(runner.tally, metrics)


def traced(runner: Runner, seconds: float) -> Outcome:
    """The per-layer metrics: pairs of an untraced and a traced unit, then
    one unit under the program's own :class:`~repro.trace.TraceCollector`
    (no wrappers installed) for the cost of its tracing."""
    recorder = SpanRecorder()
    plain_times, traced_times, rows = [], [], []
    name = runner.workload.name
    began = time.perf_counter()
    pair_times: list[float] = []
    while keep_going(time.perf_counter() - began, pair_times, seconds, 1):
        _, start, end, problems = runner.unit()
        runner.tally.record(problems)
        plain_times.append(end - start)
        unit_id = recorder.begin_unit()
        with install(recorder, boundaries.BOUNDARIES):
            result, t_start, t_end, problems = runner.unit()
        spans = recorder.unit_spans(unit_id)
        missing = boundaries.missing_spans(name, spans)
        if missing:
            problems.append(f"boundaries recorded no span: {missing}")
        runner.tally.record(problems)
        traced_times.append(t_end - t_start)
        pair_times.append(end - start + t_end - t_start)
        if result is None:
            continue
        row = boundaries.unit_layer_metrics(spans, recorder.counts[unit_id])
        row["localexec.tasks"] = float(result.tasks)
        row["localexec.peak_model_bytes"] = float(result.peak_model_bytes)
        row["bench.unattributed_s"] = uncovered(
            spans, t_start, t_end, threading.get_ident()
        )
        rows.append(row)

    layer = {key: median([row[key] for row in rows]) for key in rows[0]} if rows else {}
    layer["bench.trace_overhead_ratio"] = median(traced_times) / median(plain_times)
    result, start, end, problems = runner.unit(tracer_factory=TraceCollector)
    runner.tally.record(problems)
    layer["trace.collect_ratio"] = (end - start) / median(plain_times)
    if result is not None:
        export_start = time.perf_counter()
        for tracer in result.tracers:
            to_chrome_trace(tracer)
        layer["trace.export_s"] = time.perf_counter() - export_start
    metrics = {
        key: (layer.get(key, 0.0), unit) for key, unit in boundaries.PER_LAYER.items()
    }
    return Outcome(runner.tally, metrics)
