"""Repartition coalescing follows the search trajectory of a full rescan.

``coalesce._FlipSession`` answers "who produces / reads this instance"
from indexes it updates as it mutates the plan.  The oracle below is the
session those indexes replaced: it rebuilds the maps from ``plan.steps`` on
every query.  For every candidate of every coalescing round, both must
yield the same clone (step list, outputs, predicted bytes, description) or
the same :class:`PlanError`, through the same number of ``_flip``,
``demand`` and ``emit_chain`` calls -- the same final plan reached by a
different path would still count as a divergence.
"""

from __future__ import annotations

import collections
import copy

import pytest
from hypothesis import given
from hypothesis import strategies as st

from repro import ClusterConfig, DMacSession
from repro.core.plan import (
    ExtendedStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    RowAggStep,
    SourceStep,
    Step,
)
from repro.core.planner import _lowering_targets
from repro.errors import PlanError
from repro.lang.program import ProgramBuilder
from repro.matrix.schemes import Scheme
from repro.planopt import coalesce, optimize_plan
from repro.planopt.coalesce import ELEMENTWISE
from repro.planopt.common import (
    clone_plan,
    producer_map,
    recompute_predicted_bytes,
    toposort_steps,
)
from repro.planopt.cse import eliminate_common_steps
from repro.planopt.dce import eliminate_dead_steps
from repro.programs.registry import build_workload

from .test_equivalence import PROGRAMS

WORKERS = 4
MODES = ("worst", "average")
COUNTED = ("_flip", "demand", "emit_chain")


class RescanFlipSession:
    """The oracle: the coalescing session that rescans the plan per query.

    One change from the original: ``_done`` keeps the rewritten steps
    alive.  With bare ids, a dropped conversion's freed id could be reused
    by a conversion emitted later, which then counted as rewritten -- a
    result that depended on the allocator, not on the plan.
    """

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        self._done: dict[int, Step] = {}
        self._demanding: set[MatrixInstance] = set()

    def _producers(self) -> dict[MatrixInstance, Step]:
        return producer_map(self.plan)

    def _siblings(self, instance: MatrixInstance) -> list[MatrixInstance]:
        return [
            produced
            for produced in self._producers()
            if produced.name == instance.name
            and produced.transposed == instance.transposed
        ]

    def demand(self, instance: MatrixInstance) -> None:
        if instance in self._producers():
            return
        if instance in self._demanding:
            self._chain_to(instance)
            return
        self._demanding.add(instance)
        try:
            if instance.scheme.is_one_dimensional:
                for sibling in self._siblings(instance):
                    producer = self._producers().get(sibling)
                    if producer is not None and self._can_flip(
                        producer, instance.scheme
                    ):
                        self._flip(producer, instance.scheme)
                        if instance in self._producers():
                            return
            self._chain_to(instance)
        finally:
            self._demanding.discard(instance)

    def _chain_to(self, instance: MatrixInstance) -> None:
        siblings = self._siblings(instance)
        if not siblings:
            raise PlanError(f"cannot satisfy demand for {instance}: "
                            f"nothing produces {instance.name}")

        def chain_cost(sibling: MatrixInstance) -> tuple[int, int]:
            chain = _lowering_targets(
                sibling, instance.name, instance.transposed, instance.scheme
            )
            comm = sum(1 for kind, __ in chain if kind in ("partition", "broadcast"))
            return (comm, len(chain))

        best = min(siblings, key=chain_cost)
        self.emit_chain(best, instance)

    def emit_chain(self, source: MatrixInstance, target: MatrixInstance) -> None:
        chain = _lowering_targets(
            source, target.name, target.transposed, target.scheme
        )
        current = source
        producers = self._producers()
        for kind, hop in chain:
            if hop in producers:
                current = hop
                continue
            step = ExtendedStep(kind=kind, source=current, target=hop)
            self.plan.steps.append(step)
            producers[hop] = step
            current = hop

    def _can_flip(self, step: Step, required: Scheme) -> bool:
        if id(step) in self._done or not required.is_one_dimensional:
            return False
        output = step.output_instance()
        if output is None or output.scheme is required:
            return False
        if isinstance(step, SourceStep):
            return output.scheme.is_one_dimensional
        if isinstance(step, ELEMENTWISE):
            return output.scheme.is_one_dimensional
        if isinstance(step, MatMulStep):
            return step.strategy in ("rmm1", "rmm2", "cpmm")
        if isinstance(step, RowAggStep):
            return step.strategy.endswith("-opposed")
        return False

    def _flip(self, step: Step, required: Scheme) -> None:
        if id(step) in self._done:
            return
        self._done[id(step)] = step
        old = step.output_instance()
        new = MatrixInstance(old.name, old.transposed, required)
        if isinstance(step, SourceStep):
            step.output = new
        elif isinstance(step, ELEMENTWISE):
            for field in ("left", "right", "source"):
                value = getattr(step, field, None)
                if isinstance(value, MatrixInstance):
                    want = MatrixInstance(value.name, value.transposed, required)
                    self.demand(want)
                    setattr(step, field, want)
            step.output = new
        elif isinstance(step, MatMulStep) and step.strategy == "cpmm":
            step.output = new
        elif isinstance(step, MatMulStep):
            if required is Scheme.ROW:
                step.strategy = "rmm2"
                left = MatrixInstance(step.left.name, step.left.transposed, Scheme.ROW)
                right = MatrixInstance(
                    step.right.name, step.right.transposed, Scheme.BROADCAST
                )
            else:
                step.strategy = "rmm1"
                left = MatrixInstance(
                    step.left.name, step.left.transposed, Scheme.BROADCAST
                )
                right = MatrixInstance(step.right.name, step.right.transposed, Scheme.COL)
            self.demand(left)
            self.demand(right)
            step.left, step.right = left, right
            step.output = new
        elif isinstance(step, RowAggStep):
            step.output = new
        else:  # pragma: no cover
            raise PlanError(f"cannot flip {step}")
        self._replace_output(old, new)

    def _replace_output(self, old: MatrixInstance, new: MatrixInstance) -> None:
        for name, instance in self.plan.outputs.items():
            if instance == old:
                self.plan.outputs[name] = new
        consumers = [
            step
            for step in self.plan.steps
            if id(step) not in self._done and old in step.inputs()
        ]
        for consumer in consumers:
            if isinstance(consumer, ExtendedStep) and consumer.source == old:
                self.plan.steps.remove(consumer)
                self._done[id(consumer)] = consumer
                if consumer.target != new:
                    self.emit_chain(new, consumer.target)
            elif (
                isinstance(consumer, ELEMENTWISE)
                and new.scheme.is_one_dimensional
                and self._can_flip(consumer, new.scheme)
            ):
                self._flip(consumer, new.scheme)
            else:
                self.emit_chain(new, old)


def rescan_apply_candidate(
    plan: Plan, candidate: tuple, num_workers: int, estimation_mode: str,
    session_cls: type = RescanFlipSession,
) -> tuple[Plan, str]:
    """The oracle's ``_apply_candidate``, with the session class injected."""
    clone = clone_plan(plan)
    kind, index = candidate[0], candidate[1]
    step = clone.steps[index]
    session = session_cls(clone)
    if kind == "flip":
        description = f"flipped {step} to scheme {candidate[2]}"
        session._flip(step, candidate[2])
    elif kind == "flip-producer":
        producer = producer_map(clone).get(step.source)
        if producer is None or not session._can_flip(producer, step.target.scheme):
            raise PlanError("partition producer is not flippable")
        description = (
            f"produced {step.target} natively instead of repartitioning"
        )
        session._flip(producer, step.target.scheme)
    elif kind == "merge":
        producer = producer_map(clone).get(step.source)
        if not isinstance(producer, ExtendedStep):
            raise PlanError("conversion source is not itself a conversion")
        description = (
            f"coalesced {producer} ; {step} into a direct conversion"
        )
        clone.steps.remove(step)
        session.emit_chain(producer.source, step.target)
    else:  # pragma: no cover
        raise PlanError(f"unknown candidate {kind}")
    toposort_steps(clone)
    eliminate_common_steps(clone)
    eliminate_dead_steps(clone)
    toposort_steps(clone)
    recompute_predicted_bytes(clone, num_workers, estimation_mode)
    return clone, description


def counting(session_cls: type) -> tuple[type, collections.Counter]:
    """A subclass of ``session_cls`` counting calls to the COUNTED methods
    (recursive calls included: they dispatch through the subclass)."""
    counts: collections.Counter = collections.Counter()

    def wrap(name):
        method = getattr(session_cls, name)

        def counted(self, *args):
            counts[name] += 1
            return method(self, *args)

        return counted

    namespace = {name: wrap(name) for name in COUNTED}
    return type(f"Counting{session_cls.__name__}", (session_cls,), namespace), counts


def outcome(apply, counts, plan, candidate, mode) -> tuple:
    counts.clear()
    try:
        clone, description = apply(plan, candidate, WORKERS, mode)
    except PlanError as error:
        return ("PlanError", str(error), dict(counts))
    return (
        [str(step) for step in clone.steps],
        dict(clone.outputs),
        clone.predicted_bytes,
        description,
        dict(counts),
    )


def coalescing_rounds(plan: Plan, mode: str, monkeypatch) -> list[Plan]:
    """Every plan a coalescing round enumerates candidates on while the
    optimizer pipeline runs on ``plan``."""
    seen: list[Plan] = []
    enumerate_candidates = coalesce._candidates

    def recording(current: Plan) -> list[tuple]:
        seen.append(clone_plan(current))
        return enumerate_candidates(current)

    with monkeypatch.context() as patch:
        patch.setattr(coalesce, "_candidates", recording)
        optimize_plan(plan, num_workers=WORKERS, estimation_mode=mode, validate=False)
    return seen


def assert_same_trajectory(plan: Plan, mode: str, monkeypatch) -> int:
    """Check every candidate of every round; returns how many were checked."""
    indexed_cls, indexed_counts = counting(coalesce._FlipSession)
    rescan_cls, rescan_counts = counting(RescanFlipSession)

    def rescan(plan, candidate, workers, mode):
        return rescan_apply_candidate(plan, candidate, workers, mode, rescan_cls)

    checked = 0
    for current in coalescing_rounds(plan, mode, monkeypatch):
        for candidate in coalesce._candidates(current):
            expected = outcome(rescan, rescan_counts, current, candidate, mode)
            with monkeypatch.context() as patch:
                patch.setattr(coalesce, "_FlipSession", indexed_cls)
                got = outcome(
                    coalesce._apply_candidate, indexed_counts, current, candidate, mode
                )
            assert got == expected, f"candidate {candidate} diverged"
            checked += 1
    return checked


def base_plan(program) -> Plan:
    return DMacSession(ClusterConfig(num_workers=WORKERS)).plan(program)


FIXTURES = {f"{name}-small": build for name, build in PROGRAMS.items()}
FIXTURES["svd-default"] = lambda: build_workload("svd").program
FIXTURES["linreg-default"] = lambda: build_workload("linreg").program


@pytest.mark.parametrize("mode", MODES)
@pytest.mark.parametrize("fixture", sorted(FIXTURES))
def test_indexed_session_matches_rescan_oracle(fixture, mode, monkeypatch):
    assert_same_trajectory(base_plan(FIXTURES[fixture]()), mode, monkeypatch)


def test_fixtures_exercise_every_candidate_kind(monkeypatch):
    """The fixtures reach several rounds, all three candidate kinds, both
    outcomes and cascading flips, so the comparison above means something."""
    kinds: set[str] = set()
    failed: set[bool] = set()
    flips = 0
    indexed_cls, counts = counting(coalesce._FlipSession)
    rounds = coalescing_rounds(base_plan(FIXTURES["svd-small"]()), "worst", monkeypatch)
    monkeypatch.setattr(coalesce, "_FlipSession", indexed_cls)
    for current in rounds:
        for candidate in coalesce._candidates(current):
            kinds.add(candidate[0])
            result = outcome(coalesce._apply_candidate, counts, current, candidate, "worst")
            failed.add(result[0] == "PlanError")
            flips = max(flips, counts["_flip"])
    assert len(rounds) > 1
    assert kinds == {"flip", "flip-producer", "merge"}
    assert failed == {True, False}
    assert flips > 1


def test_last_producer_wins_and_drop_removes_the_first_equal_step():
    """Two equal conversions produce one instance: queries answer with the
    later one (as ``producer_map`` does), and dropping removes the first
    equal step (as ``list.remove`` does)."""
    pb = ProgramBuilder()
    a = pb.load("A", (8, 8))
    pb.output(pb.assign("B", a * 2.0))
    plan = base_plan(pb.build())
    source = plan.steps[0]
    first = ExtendedStep("partition", source.output, source.output.with_scheme(Scheme.COL))
    second = copy.copy(first)
    plan.steps[1:1] = [first, second]
    session = coalesce._FlipSession(plan)
    assert session._producer(first.target) is second
    assert producer_map(plan)[first.target] is second
    session._drop(second)
    assert [step is second for step in plan.steps[1:2]] == [True]
    assert session._producer(first.target) is second
    assert session._siblings(first.target) == [source.output, first.target]


@st.composite
def chain_programs(draw):
    """Small programs of element-wise, matmul and aggregate chains."""
    pb = ProgramBuilder()
    n = draw(st.sampled_from([8, 24]))
    k = draw(st.sampled_from([2, 8]))
    square = [pb.load("A", (n, n), sparsity=draw(st.sampled_from([0.1, 1.0])))]
    tall = [pb.random("W", (n, k))]
    for index in range(draw(st.integers(2, 7))):
        kind = draw(st.sampled_from(
            ["cell", "scalar", "unary", "matmul", "gram", "rowsum", "sum"]
        ))
        left = draw(st.sampled_from(square + tall))
        pool = square if left in square else tall
        if kind == "cell":
            pool.append(pb.assign(f"C{index}", left * draw(st.sampled_from(pool))))
        elif kind == "scalar":
            pool.append(pb.assign(f"S{index}", left * 0.5 + 1.0))
        elif kind == "unary":
            pool.append(pb.assign(f"U{index}", left.abs()))
        elif kind == "matmul":
            tall.append(pb.assign(f"M{index}", draw(st.sampled_from(square)) @ tall[-1]))
        elif kind == "gram":
            square.append(pb.assign(
                f"G{index}", tall[-1] @ draw(st.sampled_from(tall)).T
            ))
        elif kind == "rowsum":
            pb.output(pb.assign(f"R{index}", left.row_sums()))
        else:
            pb.scalar_output(pb.scalar(f"s{index}", left.sum()))
    pb.output(square[-1])
    pb.output(tall[-1])
    return pb.build()


@given(chain_programs(), st.sampled_from(MODES))
def test_random_chain_programs_match_rescan_oracle(program, mode):
    with pytest.MonkeyPatch.context() as monkeypatch:
        assert_same_trajectory(base_plan(program), mode, monkeypatch)
