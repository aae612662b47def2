"""Repartition coalescing: scheme-flip rewrites that shed conversions.

The planner lowers one operator at a time, so a value is often produced in
one scheme and immediately repartitioned into another (``A -> Row ->
Column``) -- or shuffled every iteration when producing it in the
consumer's scheme directly would have been free.  This pass searches for
such rewrites with an *apply-and-evaluate* loop:

* enumerate candidates -- flip a 1-D element-wise step to the opposite
  scheme, make a ``partition`` step's producer emit the target scheme
  natively, or merge a back-to-back conversion chain into one hop;
* apply each candidate to a clone of the plan.  A flip *cascades*: the
  flipped step demands its inputs in the new scheme (satisfied by flipping
  flexible producers -- sources, element-wise steps, rmm1<->rmm2,
  CPMM/row-agg output rebinds -- or by an explicit conversion chain), and
  every consumer of the old output is either re-derived from the new one,
  cascade-flipped (element-wise), or fed through a chain back to the old
  scheme.  Aggregations are always chained back: re-ordering their driver
  reduction would change floating-point summation order;
* re-sort, CSE, DCE, then re-cost the clone with the dependency-oriented
  cost model (`recompute_predicted_bytes`) and keep the best candidate only
  if ``(predicted_bytes, step_count)`` strictly decreases -- the merge is
  provably never costlier under the model.

Value-safety: every rewrite used here re-binds *where* blocks live, never
the per-block arithmetic or its order, so outputs stay byte-identical
(property-tested in ``tests/planopt/test_equivalence.py``).
"""

from __future__ import annotations

import bisect
import collections

from repro.core.plan import (
    CellwiseStep,
    ExtendedStep,
    MatMulStep,
    MatrixInstance,
    Plan,
    RowAggStep,
    ScalarMatrixStep,
    SourceStep,
    Step,
    UnaryStep,
)
from repro.core.planner import _lowering_targets
from repro.errors import PlanError
from repro.matrix.schemes import Scheme
from repro.planopt.common import (
    AppliedRewrite,
    clone_plan,
    predicted_bytes_under,
    producer_map,
    recompute_predicted_bytes,
    toposort_steps,
)
from repro.planopt.cse import eliminate_common_steps
from repro.planopt.dce import eliminate_dead_steps

#: Element-wise step kinds: scheme-agnostic per-block arithmetic, so their
#: output scheme may be flipped freely (inputs follow).
ELEMENTWISE = (CellwiseStep, ScalarMatrixStep, UnaryStep)

#: Cap on accepted rewrite rounds (each strictly reduces the cost tuple,
#: so this only guards against pathological plans).
MAX_ROUNDS = 8


class _FlipSession:
    """One candidate application: tracks flipped steps and emits chains.

    The session answers "who produces / reads this instance" from indexes
    built once from the clone and updated at every place it mutates the
    plan (:meth:`_append`, the ``_rebind_*`` methods, :meth:`_drop`), so
    each query sees exactly the plan a full rescan would see at that
    moment.  Steps carry a position rank (appends rank last; nothing else
    reorders steps here), which orders producers, siblings and consumers
    as a scan of ``plan.steps`` would.
    """

    def __init__(self, plan: Plan) -> None:
        self.plan = plan
        # id(step) -> step, for steps already rewritten.  Holding the step
        # keeps its id from being reused by a step emitted later (a dropped
        # conversion would otherwise free it).
        self._done: dict[int, Step] = {}
        self._demanding: set[MatrixInstance] = set()  # recursion guard
        self._rank: dict[int, int] = {}  # id(step) -> position rank
        # instance -> its producing steps, in step order
        self._producing: dict[MatrixInstance, list[Step]] = {}
        # (name, transposed) -> the produced instances of that matrix
        self._produced: dict[tuple[str, bool], set[MatrixInstance]] = {}
        # instance -> id(step) -> a step reading it
        self._reading: dict[MatrixInstance, dict[int, Step]] = {}
        for rank, step in enumerate(plan.steps):
            self._rank[id(step)] = rank
            self._index(step)
        self._next_rank = len(plan.steps)

    # -- index maintenance ----------------------------------------------------

    def _rank_of(self, step: Step) -> int:
        return self._rank[id(step)]

    def _index(self, step: Step) -> None:
        self._produce(step)
        self._read(step)

    def _produce(self, step: Step) -> None:
        output = step.output_instance()
        if output is None:
            return
        producers = self._producing.get(output)
        if producers is None:
            self._producing[output] = [step]
            key = (output.name, output.transposed)
            self._produced.setdefault(key, set()).add(output)
        else:
            bisect.insort(producers, step, key=self._rank_of)

    def _unproduce(self, step: Step) -> None:
        output = step.output_instance()
        if output is None:
            return
        producers = self._producing[output]
        del producers[next(i for i, other in enumerate(producers) if other is step)]
        if not producers:
            del self._producing[output]
            self._produced[(output.name, output.transposed)].discard(output)

    def _read(self, step: Step) -> None:
        for instance in step.inputs():
            self._reading.setdefault(instance, {})[id(step)] = step

    def _unread(self, step: Step) -> None:
        for instance in step.inputs():
            readers = self._reading.get(instance)
            if readers is not None and readers.pop(id(step), None) is not None:
                if not readers:
                    del self._reading[instance]

    def _append(self, step: Step) -> None:
        self.plan.steps.append(step)
        self._rank[id(step)] = self._next_rank
        self._next_rank += 1
        self._index(step)

    def _rebind_operands(self, step: Step, **operands: MatrixInstance) -> None:
        self._unread(step)
        for field, value in operands.items():
            setattr(step, field, value)
        self._read(step)

    def _rebind_output(self, step: Step, output: MatrixInstance) -> None:
        self._unproduce(step)
        step.output = output
        self._produce(step)

    def _drop(self, step: ExtendedStep) -> None:
        """Remove ``step`` the way ``list.remove`` would: the first step
        *equal* to it goes, and equal steps produce the same instance."""
        removed = next(other for other in self._producing[step.target] if other == step)
        steps = self.plan.steps
        del steps[next(i for i, other in enumerate(steps) if other is removed)]
        self._unproduce(removed)
        self._unread(removed)
        del self._rank[id(removed)]

    # -- queries ------------------------------------------------------------

    def _producer(self, instance: MatrixInstance) -> Step | None:
        """The last producer of ``instance`` in step order."""
        producers = self._producing.get(instance)
        return producers[-1] if producers else None

    def _siblings(self, instance: MatrixInstance) -> list[MatrixInstance]:
        """Produced instances of the same matrix, in order of first
        production."""
        produced = self._produced.get((instance.name, instance.transposed), ())
        return sorted(
            produced, key=lambda sibling: self._rank_of(self._producing[sibling][0])
        )

    def _consumers(self, instance: MatrixInstance) -> list[Step]:
        """Steps not yet rewritten that read ``instance``, in step order."""
        readers = self._reading.get(instance, {})
        return sorted(
            (step for key, step in readers.items() if key not in self._done),
            key=self._rank_of,
        )

    # -- demand: make sure an instance exists -------------------------------

    def demand(self, instance: MatrixInstance) -> None:
        """Ensure some step produces ``instance``, preferring free producer
        flips over explicit conversion chains."""
        if instance in self._producing:
            return
        if instance in self._demanding:
            self._chain_to(instance)  # cycle: break it with a conversion
            return
        self._demanding.add(instance)
        try:
            if instance.scheme.is_one_dimensional:
                for sibling in self._siblings(instance):
                    producer = self._producer(sibling)
                    if producer is not None and self._can_flip(
                        producer, instance.scheme
                    ):
                        self._flip(producer, instance.scheme)
                        if instance in self._producing:
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
        """Append the extended-operator chain ``source -> ... -> target``,
        reusing any hop some step already produces."""
        chain = _lowering_targets(
            source, target.name, target.transposed, target.scheme
        )
        current = source
        for kind, hop in chain:
            if hop not in self._producing:
                self._append(ExtendedStep(kind=kind, source=current, target=hop))
            current = hop

    # -- flips --------------------------------------------------------------

    def _can_flip(self, step: Step, required: Scheme) -> bool:
        if id(step) in self._done or not required.is_one_dimensional:
            return False
        output = step.output_instance()
        if output is None or output.scheme is required:
            return False
        if isinstance(step, SourceStep):
            return output.scheme.is_one_dimensional  # Row-or-Column for free
        if isinstance(step, ELEMENTWISE):
            return output.scheme.is_one_dimensional
        if isinstance(step, MatMulStep):
            return step.strategy in ("rmm1", "rmm2", "cpmm")
        if isinstance(step, RowAggStep):
            return step.strategy.endswith("-opposed")  # flexible output
        return False

    def _flip(self, step: Step, required: Scheme) -> None:
        """Rewrite ``step`` to produce its output under ``required``.

        Every field is rebound (and re-indexed) only after the demands it
        depends on: nested demands must still see ``step`` reading its old
        operands and producing its old output.
        """
        if id(step) in self._done:
            return
        self._done[id(step)] = step
        old = step.output_instance()
        new = MatrixInstance(old.name, old.transposed, required)
        if isinstance(step, SourceStep):
            self._rebind_output(step, new)
        elif isinstance(step, ELEMENTWISE):
            for field in ("left", "right", "source"):
                value = getattr(step, field, None)
                if isinstance(value, MatrixInstance):
                    want = MatrixInstance(value.name, value.transposed, required)
                    self.demand(want)
                    self._rebind_operands(step, **{field: want})
            self._rebind_output(step, new)
        elif isinstance(step, MatMulStep) and step.strategy == "cpmm":
            self._rebind_output(step, new)  # CPMM's shuffled output is Row-or-Column
        elif isinstance(step, MatMulStep):
            # rmm1: A(b) @ B(c) -> C(c)  <->  rmm2: A(r) @ B(b) -> C(r).
            # Both fold per output block over the same per-block sequence,
            # so the swap is bit-identical; only operand layouts change.
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
            self._rebind_operands(step, left=left, right=right)
            self._rebind_output(step, new)
        elif isinstance(step, RowAggStep):
            self._rebind_output(step, new)  # "-opposed" shuffles partials; output flexible
        else:  # pragma: no cover - guarded by _can_flip
            raise PlanError(f"cannot flip {step}")
        self._replace_output(old, new)

    def _replace_output(self, old: MatrixInstance, new: MatrixInstance) -> None:
        """Rewire everything that read ``old`` now that only ``new`` exists."""
        for name, instance in self.plan.outputs.items():
            if instance == old:
                self.plan.outputs[name] = new
        for consumer in self._consumers(old):
            if isinstance(consumer, ExtendedStep) and consumer.source == old:
                # Re-derive the conversion from the new layout; if the
                # conversion's whole purpose was producing `new`, drop it.
                self._drop(consumer)
                self._done[id(consumer)] = consumer
                if consumer.target != new:
                    self.emit_chain(new, consumer.target)
            elif (
                isinstance(consumer, ELEMENTWISE)
                and new.scheme.is_one_dimensional
                and self._can_flip(consumer, new.scheme)
            ):
                self._flip(consumer, new.scheme)  # cascade
            else:
                # Chain back: aggregations (driver reduction order is
                # float-sensitive) and rigid operands keep reading `old`,
                # now re-derived from `new`.
                self.emit_chain(new, old)


# -- candidate enumeration ----------------------------------------------------


def _candidates(plan: Plan) -> list[tuple]:
    producers = producer_map(plan)
    found: list[tuple] = []
    for index, step in enumerate(plan.steps):
        output = step.output_instance()
        if (
            isinstance(step, ELEMENTWISE)
            and output is not None
            and output.scheme.is_one_dimensional
        ):
            found.append(("flip", index, output.scheme.opposite))
        if isinstance(step, ExtendedStep):
            if step.kind == "partition":
                found.append(("flip-producer", index))
            producer = producers.get(step.source)
            if isinstance(producer, ExtendedStep):
                found.append(("merge", index))
    return found


def _apply_candidate(
    plan: Plan, candidate: tuple, num_workers: int, estimation_mode: str
) -> tuple[Plan, str]:
    clone = clone_plan(plan)
    kind, index = candidate[0], candidate[1]
    step = clone.steps[index]
    session = _FlipSession(clone)
    if kind == "flip":
        description = f"flipped {step} to scheme {candidate[2]}"
        session._flip(step, candidate[2])
    elif kind == "flip-producer":
        producer = session._producer(step.source)
        if producer is None or not session._can_flip(producer, step.target.scheme):
            raise PlanError("partition producer is not flippable")
        description = (
            f"produced {step.target} natively instead of repartitioning"
        )
        session._flip(producer, step.target.scheme)
    elif kind == "merge":
        producer = session._producer(step.source)
        if not isinstance(producer, ExtendedStep):
            raise PlanError("conversion source is not itself a conversion")
        description = (
            f"coalesced {producer} ; {step} into a direct conversion"
        )
        session._drop(step)
        session.emit_chain(producer.source, step.target)
    else:  # pragma: no cover
        raise PlanError(f"unknown candidate {kind}")
    toposort_steps(clone)
    eliminate_common_steps(clone)
    eliminate_dead_steps(clone)
    toposort_steps(clone)
    recompute_predicted_bytes(clone, num_workers, estimation_mode)
    return clone, description


def _diff(before: Plan, after: Plan) -> tuple[tuple[str, ...], tuple[str, ...]]:
    old = collections.Counter(str(step) for step in before.steps)
    new = collections.Counter(str(step) for step in after.steps)
    removed = tuple(sorted((old - new).elements()))
    added = tuple(sorted((new - old).elements()))
    return removed, added


def coalesce_repartitions(
    plan: Plan, *, num_workers: int, estimation_mode: str = "worst"
) -> list[AppliedRewrite]:
    """Greedy best-first coalescing on ``plan`` (mutated in place)."""
    recompute_predicted_bytes(plan, num_workers, estimation_mode)
    # A candidate must win under the planning mode *without* losing under
    # the opposite sparsity model: worst-case and average-case disagree on
    # matmul-output sizes, and a rewrite that only wins in one model can
    # regress the measured ledger on real data.
    other_mode = "average" if estimation_mode == "worst" else "worst"
    rewrites: list[AppliedRewrite] = []
    for __ in range(MAX_ROUNDS):
        base_cost = (plan.predicted_bytes, len(plan.steps))
        base_other = predicted_bytes_under(plan, num_workers, other_mode)
        best = None
        for candidate in _candidates(plan):
            try:
                clone, description = _apply_candidate(
                    plan, candidate, num_workers, estimation_mode
                )
            except PlanError:
                continue  # candidate does not yield a valid plan
            cost = (clone.predicted_bytes, len(clone.steps))
            if (
                cost < base_cost
                and predicted_bytes_under(clone, num_workers, other_mode)
                <= base_other
                and (best is None or cost < best[0])
            ):
                best = (cost, clone, description)
        if best is None:
            return rewrites
        __, clone, description = best
        removed, added = _diff(plan, clone)
        rewrites.append(AppliedRewrite(
            "coalesce",
            f"{description} "
            f"(predicted bytes {plan.predicted_bytes} -> {clone.predicted_bytes})",
            removed=removed,
            added=added,
        ))
        plan.steps = clone.steps
        plan.outputs = clone.outputs
        plan.predicted_bytes = clone.predicted_bytes
    return rewrites
