"""Tests for the stage scheduler (repro.runtime.scheduler)."""

import threading

import pytest

from repro.config import ClusterConfig
from repro.core.planner import DMacPlanner
from repro.errors import StageExecutionError
from repro.core.stages import schedule_stages
from repro.lang.program import ProgramBuilder
from repro.rdd.context import ClusterContext
from repro.runtime.executor import PlanExecutor
from repro.runtime.graph import Dataflow, StageGraph, StageNode
from repro.runtime.metering import StageMeter
from repro.runtime.scheduler import StageScheduler


def synthetic_graph(deps_of: dict[int, tuple[int, ...]]) -> StageGraph:
    """A StageGraph with hand-wired node dependencies (plan unused)."""
    dependents: dict[int, list[int]] = {i: [] for i in deps_of}
    for node, deps in deps_of.items():
        for dep in deps:
            dependents[dep].append(node)
    nodes = [
        StageNode(
            index=i,
            stage=1,
            steps=(i,),
            deps=tuple(deps_of[i]),
            dependents=tuple(dependents[i]),
        )
        for i in sorted(deps_of)
    ]
    return StageGraph(plan=None, nodes=nodes, step_deps={}, node_of_step={},
                      dataflow=Dataflow.of(()))


def metered_runner(durations: dict[int, float]):
    """run_node stub charging a fixed compute duration per node."""

    def run(node: StageNode) -> StageMeter:
        meter = StageMeter()
        meter.add_compute(durations[node.index])
        return meter

    return run


def two_independent_pipelines(rng):
    """A plan computing ``A @ A`` and ``B @ B`` (no data between them),
    plus its inputs."""
    pb = ProgramBuilder()
    a = pb.load("A", (32, 32))
    b = pb.load("B", (32, 32))
    pb.output(pb.assign("P", a @ a))
    pb.output(pb.assign("Q", b @ b))
    plan = schedule_stages(DMacPlanner(pb.build(), 4).plan())
    return plan, {"A": rng.random((32, 32)), "B": rng.random((32, 32))}


def small_context(**overrides) -> ClusterContext:
    return ClusterContext(
        ClusterConfig(num_workers=4, threads_per_worker=1, block_size=8, **overrides)
    )


class TestSimulatedTime:
    def test_independent_stages_charge_max_not_sum(self):
        """The acceptance case: two independent stages overlap, the clock
        advances by the slower one's duration, not the sum."""
        graph = synthetic_graph({0: (), 1: ()})
        report = StageScheduler().run(graph, metered_runner({0: 3.0, 1: 5.0}))
        assert report.makespan_seconds == pytest.approx(5.0)
        assert report.serial_seconds() == pytest.approx(8.0)
        assert report.critical_path == (1,)

    def test_dependent_stages_still_sum(self):
        graph = synthetic_graph({0: (), 1: (0,)})
        report = StageScheduler().run(graph, metered_runner({0: 3.0, 1: 5.0}))
        assert report.makespan_seconds == pytest.approx(8.0)
        assert report.critical_path == (0, 1)

    def test_diamond_takes_the_slower_branch(self):
        graph = synthetic_graph({0: (), 1: (0,), 2: (0,), 3: (1, 2)})
        durations = {0: 1.0, 1: 2.0, 2: 7.0, 3: 1.0}
        report = StageScheduler().run(graph, metered_runner(durations))
        assert report.makespan_seconds == pytest.approx(1.0 + 7.0 + 1.0)
        assert report.critical_path == (0, 2, 3)
        slow_branch = report.timings[2]
        assert slow_branch.start_seconds == pytest.approx(1.0)
        assert slow_branch.finish_seconds == pytest.approx(8.0)

    def test_simulation_is_independent_of_dispatch_width(self, rng):
        """``max_concurrent_stages`` is a model parameter: it sizes the
        peak-memory bound but never moves the simulated clock."""
        plan, inputs = two_independent_pipelines(rng)
        results = [
            PlanExecutor(small_context(max_concurrent_stages=width), 8).execute(
                plan, inputs
            )
            for width in (1, 2, 8)
        ]
        assert len({r.simulated_seconds for r in results}) == 1
        assert len({tuple(r.critical_path) for r in results}) == 1

    def test_breakdown_is_summed_along_the_path(self):
        graph = synthetic_graph({0: (), 1: (0,)})

        def run(node: StageNode) -> StageMeter:
            meter = StageMeter()
            meter.add_network(100, 1.5)
            meter.add_compute(2.0)
            meter.add_overhead(0.5)
            return meter

        report = StageScheduler().run(graph, run)
        assert report.elapsed.network_seconds == pytest.approx(3.0)
        assert report.elapsed.compute_seconds == pytest.approx(4.0)
        assert report.elapsed.overhead_seconds == pytest.approx(1.0)


class TestDispatch:
    def test_dependency_order_is_honoured(self):
        finished: list[int] = []
        lock = threading.Lock()
        graph = synthetic_graph({0: (), 1: (0,), 2: (1,)})

        def run(node: StageNode) -> StageMeter:
            with lock:
                finished.append(node.index)
            return StageMeter()

        StageScheduler().run(graph, run)
        assert finished == [0, 1, 2]

    def test_failure_is_wrapped_with_node_context(self):
        graph = synthetic_graph({0: (), 1: ()})

        class Boom(RuntimeError):
            pass

        def run(node: StageNode) -> StageMeter:
            if node.index == 1:
                raise Boom("stage exploded")
            return StageMeter()

        with pytest.raises(StageExecutionError, match="stage exploded") as info:
            StageScheduler().run(graph, run)
        assert info.value.node == 1
        assert info.value.stage == 1
        assert info.value.attempts == 1
        assert isinstance(info.value.cause, Boom)
        assert isinstance(info.value.__cause__, Boom)

    def test_failure_stops_downstream_submission(self):
        ran: list[int] = []
        lock = threading.Lock()
        graph = synthetic_graph({0: (), 1: (0,)})

        def run(node: StageNode) -> StageMeter:
            with lock:
                ran.append(node.index)
            if node.index == 0:
                raise ValueError("root failed")
            return StageMeter()

        with pytest.raises(StageExecutionError, match="root failed"):
            StageScheduler().run(graph, run)
        assert ran == [0]

    @pytest.mark.parametrize("interrupt", [KeyboardInterrupt, SystemExit])
    def test_interrupt_propagates_unwrapped(self, interrupt):
        """Ctrl-C or exit inside a stage is not a stage failure: it must
        neither be wrapped in StageExecutionError nor be retried."""
        graph = synthetic_graph({0: (), 1: (0,)})
        ran: list[int] = []

        class RetryableInterrupt(interrupt):
            retryable = True

        def run(node: StageNode) -> StageMeter:
            ran.append(node.index)
            raise RetryableInterrupt()

        with pytest.raises(RetryableInterrupt):
            StageScheduler(max_attempts=3).run(graph, run)
        assert ran == [0]


class FlakyError(RuntimeError):
    """A stub transient fault: the scheduler retries on ``retryable``."""

    retryable = True


class TestRetry:
    def make_runner(self, failures_of: dict[int, int], counts: dict[int, int]):
        """run_node failing a node's first ``failures_of[i]`` attempts."""

        def run(node: StageNode) -> StageMeter:
            counts[node.index] = counts.get(node.index, 0) + 1
            if counts[node.index] <= failures_of.get(node.index, 0):
                raise FlakyError(f"transient failure of node {node.index}")
            meter = StageMeter()
            meter.add_compute(1.0)
            return meter

        return run

    def test_retryable_fault_is_retried(self):
        graph = synthetic_graph({0: ()})
        counts: dict[int, int] = {}
        scheduler = StageScheduler(max_attempts=3, backoff_base_sec=1.0)
        report = scheduler.run(graph, self.make_runner({0: 2}, counts))
        assert counts[0] == 3
        # backoff 1 + 2 booked as overhead, plus the final compute second
        assert report.elapsed.overhead_seconds == pytest.approx(3.0)
        assert report.elapsed.compute_seconds == pytest.approx(1.0)

    def test_backoff_is_capped(self):
        graph = synthetic_graph({0: ()})
        counts: dict[int, int] = {}
        scheduler = StageScheduler(
            max_attempts=5, backoff_base_sec=1.0, backoff_cap_sec=2.0
        )
        report = scheduler.run(graph, self.make_runner({0: 4}, counts))
        # backoffs 1, 2, 2, 2 (cap), not 1, 2, 4, 8
        assert report.elapsed.overhead_seconds == pytest.approx(7.0)

    def test_exhausted_retries_wrap_with_attempt_count(self):
        graph = synthetic_graph({0: ()})
        counts: dict[int, int] = {}
        scheduler = StageScheduler(max_attempts=3)
        with pytest.raises(StageExecutionError, match="after 3 attempt") as info:
            scheduler.run(graph, self.make_runner({0: 99}, counts))
        assert counts[0] == 3
        assert info.value.attempts == 3

    def test_non_retryable_fault_fails_fast(self):
        graph = synthetic_graph({0: ()})
        counts: dict[int, int] = {}

        def run(node: StageNode) -> StageMeter:
            counts[node.index] = counts.get(node.index, 0) + 1
            raise ValueError("genuine bug")

        with pytest.raises(StageExecutionError, match="genuine bug"):
            StageScheduler(max_attempts=5).run(graph, run)
        assert counts[0] == 1

    def test_failed_attempt_cost_is_charged(self):
        """A failed attempt's metered seconds count towards the node."""
        graph = synthetic_graph({0: ()})
        attempts: dict[int, int] = {}

        def run(node: StageNode) -> StageMeter:
            attempts[node.index] = attempts.get(node.index, 0) + 1
            meter = StageMeter()
            meter.add_compute(2.0)
            if attempts[node.index] == 1:
                error = FlakyError("died mid-stage")
                error.stage_meter = meter  # as the executor attaches it
                raise error
            return meter

        report = StageScheduler(max_attempts=2, backoff_base_sec=0.5).run(graph, run)
        assert report.elapsed.compute_seconds == pytest.approx(4.0)
        assert report.elapsed.overhead_seconds == pytest.approx(0.5)

    def test_retry_events_reach_the_sink(self):
        graph = synthetic_graph({0: ()})
        events: list[dict] = []
        scheduler = StageScheduler(
            max_attempts=2, backoff_base_sec=1.0, event_sink=events.append
        )
        scheduler.run(graph, self.make_runner({0: 1}, {}))
        assert [e["event"] for e in events] == ["retry"]
        assert events[0]["node"] == 0
        assert events[0]["backoff_sec"] == pytest.approx(1.0)


class TestSpeculation:
    def run_with_slowdown(self, multiplier: float, factor: float):
        """Three same-stage siblings, node 2 slowed by ``factor``."""
        graph = synthetic_graph({0: (), 1: (), 2: ()})

        def run(node: StageNode) -> StageMeter:
            meter = StageMeter()
            meter.add_compute(2.0)
            if node.index == 2:
                meter.slowdown_factor = factor
            return meter

        events: list[dict] = []
        scheduler = StageScheduler(
            speculation_multiplier=multiplier, event_sink=events.append
        )
        return scheduler.run(graph, run), events

    def test_straggler_is_cut_to_threshold_plus_clean(self):
        report, events = self.run_with_slowdown(multiplier=2.0, factor=10.0)
        # slowed = 20s; copy launches at 2 x median(2s) = 4s, runs clean 2s
        assert report.timings[2].duration_seconds == pytest.approx(6.0)
        assert [e["event"] for e in events] == ["speculation"]
        assert events[0]["node"] == 2

    def test_mild_straggler_keeps_its_own_time(self):
        report, events = self.run_with_slowdown(multiplier=2.0, factor=1.5)
        # slowed = 3s < threshold 4s + clean 2s: the original finishes first
        assert report.timings[2].duration_seconds == pytest.approx(3.0)
        assert events == []

    def test_speculation_disabled_is_inert(self):
        report, events = self.run_with_slowdown(multiplier=0.0, factor=10.0)
        assert report.timings[2].duration_seconds == pytest.approx(20.0)
        assert events == []

    def test_no_slowdown_means_no_speculation(self):
        report, events = self.run_with_slowdown(multiplier=2.0, factor=1.0)
        assert report.timings[2].duration_seconds == pytest.approx(2.0)
        assert events == []

    def test_two_stragglers_do_not_mask_each_other(self):
        """Regression: the threshold must come from the *clean* sibling
        durations.  A median over observed (slowed) durations lets two
        stragglers in one stage inflate each other's threshold -- median
        of {2s, 20s} is 11s, threshold 22s -- and neither ever speculates.
        """
        graph = synthetic_graph({0: (), 1: (), 2: ()})

        def run(node: StageNode) -> StageMeter:
            meter = StageMeter()
            meter.add_compute(2.0)
            if node.index in (1, 2):
                meter.slowdown_factor = 10.0
            return meter

        events: list[dict] = []
        scheduler = StageScheduler(
            speculation_multiplier=2.0, event_sink=events.append
        )
        report = scheduler.run(graph, run)
        # Each straggler: slowed 20s; its copy launches at 2 x the clean
        # sibling median (2s) = 4s and runs its own clean 2s -> 6s.
        assert report.timings[1].duration_seconds == pytest.approx(6.0)
        assert report.timings[2].duration_seconds == pytest.approx(6.0)
        assert [e["event"] for e in events] == ["speculation", "speculation"]


class TestEndToEnd:
    def test_clock_charges_critical_path_not_serial_sum(self, rng):
        """Executing two independent pipelines: the session clock advance
        equals the critical path, strictly less than the stage-time sum."""
        plan, inputs = two_independent_pipelines(rng)
        context = small_context()
        before = context.clock.elapsed_seconds
        result = PlanExecutor(context, 8).execute(plan, inputs)
        advanced = context.clock.elapsed_seconds - before
        serial_sum = sum(t.duration_seconds for t in result.stage_timings)
        assert advanced == pytest.approx(result.simulated_seconds)
        assert result.simulated_seconds < serial_sum
        assert result.critical_path
        path_sum = sum(
            result.stage_timings[i].duration_seconds for i in result.critical_path
        )
        assert result.simulated_seconds == pytest.approx(path_sum)
