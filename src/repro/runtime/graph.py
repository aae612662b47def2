"""The stage graph: the unit of scheduling, and the plan's dataflow index.

``schedule_stages`` labels every step with a stage *number*, but numbers
alone describe a chain -- stage 2 after stage 1 after nothing.  The paper's
point (Section 4.3 / 5.2) is stronger: a stage is a communication-free
island of the plan DAG, and islands that do not depend on each other can be
"perfectly dispatched to the nodes in the cluster and executed
independently".  :class:`StageGraph` recovers that structure:

* steps sharing a stage number are split into **connected components** of
  the intra-stage dependency edges -- two same-numbered steps with no data
  flowing between them land in different nodes, which the simulated clock
  overlaps (the host runs the nodes one after another);
* every node records the nodes it **depends on** (matrix and driver-scalar
  producers), giving the scheduler its ready set;
* the **critical path** (the dependency chain with the most steps) is what
  the simulated clock charges under concurrent execution.

The edges come from :class:`Dataflow`, the plan's one per-instance index
(publishers, consumers, available stage).  The lint rules, hazard
detection and the memory predictor all read it off the graph, so every
analysis agrees on who produces what.

Construction is total and read-only: a malformed plan (instances consumed
before production, hand-corrupted stage numbers) still yields a graph, and
:meth:`StageGraph.stage_violations` reports exactly the wide-edge defects
the lint's DM103 rule publishes.
"""

from __future__ import annotations

import dataclasses
from typing import Iterator, Sequence

from repro.core.plan import MatrixInstance, Plan, Step
from repro.core.stages import schedule_stages


@dataclasses.dataclass(frozen=True)
class Dataflow:
    """Who publishes and who reads every instance and driver scalar.

    Lists hold plan step indices in ascending order, so the first
    publisher is the producer; dicts are ordered by first appearance.
    """

    publishers: dict[MatrixInstance, list[int]]
    consumers: dict[MatrixInstance, list[int]]
    #: stage each instance becomes available in: a communicating producer
    #: publishes one stage after it runs (Section 5.2); first producer wins
    available_stage: dict[MatrixInstance, int]
    scalar_publishers: dict[str, list[int]]
    scalar_consumers: dict[str, list[int]]
    #: (step index, instance) reads that precede every publish of the instance
    unproduced: list[tuple[int, MatrixInstance]]

    @classmethod
    def of(cls, steps: Sequence[Step]) -> "Dataflow":
        """One forward pass over a step list."""
        flow = cls({}, {}, {}, {}, {}, [])
        for index, step in enumerate(steps):
            for instance in step.inputs():
                flow.consumers.setdefault(instance, []).append(index)
                if instance not in flow.publishers:
                    flow.unproduced.append((index, instance))
            for name in step.scalar_inputs():
                flow.scalar_consumers.setdefault(name, []).append(index)
            output = step.output_instance()
            if output is not None:
                flow.publishers.setdefault(output, []).append(index)
                flow.available_stage.setdefault(
                    output, step.stage + (1 if step.communicates else 0)
                )
            scalar = step.scalar_output()
            if scalar is not None:
                flow.scalar_publishers.setdefault(scalar, []).append(index)
        return flow

    def producer(self, instance: MatrixInstance) -> int | None:
        """Index of the first step publishing ``instance``, if any."""
        found = self.publishers.get(instance)
        return found[0] if found else None


@dataclasses.dataclass(frozen=True)
class StageNode:
    """One schedulable unit: a communication-free island of the plan."""

    index: int  # node id; indices are a valid topological order
    stage: int  # the paper's stage number (shared by all steps)
    steps: tuple[int, ...]  # plan step indices, ascending
    deps: tuple[int, ...]  # node indices this node waits on
    dependents: tuple[int, ...]  # node indices waiting on this node


class StageGraph:
    """Inter-stage dependency DAG built from a staged plan."""

    def __init__(
        self,
        plan: Plan,
        nodes: list[StageNode],
        step_deps: dict[int, frozenset[int]],
        node_of_step: dict[int, int],
        dataflow: Dataflow,
    ) -> None:
        self.plan = plan
        self.nodes = nodes
        #: plan-step index -> producer plan-step indices it consumes
        self.step_deps = step_deps
        #: plan-step index -> index of the node containing it
        self.node_of_step = node_of_step
        self.dataflow = dataflow

    # -- construction -------------------------------------------------------

    @classmethod
    def from_plan(cls, plan: Plan) -> "StageGraph":
        """Build the graph; stage-schedules the plan first if it never was."""
        if plan.num_stages == 0:
            schedule_stages(plan)
        steps = plan.steps
        flow = Dataflow.of(steps)

        step_deps: dict[int, frozenset[int]] = {}
        for index, step in enumerate(steps):
            found = [flow.publishers.get(i) for i in step.inputs()]
            found += [flow.scalar_publishers.get(n) for n in step.scalar_inputs()]
            step_deps[index] = frozenset(p[0] for p in found if p and p[0] < index)

        # Union steps connected by an intra-stage dependency edge: those must
        # run in one dispatch.  Cross-stage edges become graph edges instead.
        parent = list(range(len(steps)))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for index, deps in step_deps.items():
            for j in deps:
                if steps[j].stage == steps[index].stage:
                    parent[find(index)] = find(j)

        groups: dict[int, list[int]] = {}
        for index in range(len(steps)):
            groups.setdefault(find(index), []).append(index)
        members = sorted(groups.values(), key=lambda g: g[0])

        group_of_step = {s: g for g, grp in enumerate(members) for s in grp}
        group_deps: list[set[int]] = [set() for __ in members]
        for index, deps in step_deps.items():
            for j in deps:
                if group_of_step[j] != group_of_step[index]:
                    group_deps[group_of_step[index]].add(group_of_step[j])

        order = _topo_order(members, group_deps)
        node_index = {g: i for i, g in enumerate(order)}
        dependents: list[list[int]] = [[] for __ in members]
        for g, deps in enumerate(group_deps):
            for d in deps:
                dependents[d].append(g)

        nodes = [
            StageNode(
                index=i,
                stage=steps[members[g][0]].stage,
                steps=tuple(members[g]),
                deps=tuple(sorted(node_index[d] for d in group_deps[g])),
                dependents=tuple(sorted(node_index[d] for d in dependents[g])),
            )
            for i, g in enumerate(order)
        ]
        node_of_step = {s: node_index[g] for s, g in group_of_step.items()}
        return cls(plan, nodes, step_deps, node_of_step, flow)

    # -- structure ----------------------------------------------------------

    @property
    def num_nodes(self) -> int:
        return len(self.nodes)

    @property
    def num_edges(self) -> int:
        return sum(len(node.deps) for node in self.nodes)

    def roots(self) -> list[StageNode]:
        """Nodes with no dependencies (ready immediately)."""
        return [node for node in self.nodes if not node.deps]

    def steps_of(self, node: StageNode) -> list[Step]:
        return [self.plan.steps[i] for i in node.steps]

    def critical_path(self) -> list[int]:
        """Node indices of the dependency chain carrying the most steps."""
        if not self.nodes:
            return []
        weight = [len(node.steps) for node in self.nodes]
        best = list(weight)  # heaviest chain ending at each node
        choice: list[int | None] = [None] * len(self.nodes)
        for node in self.nodes:  # indices are topological
            for dep in node.deps:
                candidate = best[dep] + weight[node.index]
                # strict improvement, lowest-index tie-break: deterministic
                if candidate > best[node.index]:
                    best[node.index] = candidate
                    choice[node.index] = dep
        tail = max(range(len(self.nodes)), key=lambda i: (best[i], -i))
        path: list[int] = []
        cursor: int | None = tail
        while cursor is not None:
            path.append(cursor)
            cursor = choice[cursor]
        return list(reversed(path))

    def stage_violations(self) -> Iterator[tuple[int, MatrixInstance, int]]:
        """``(step index, instance, available stage)`` for every input that
        only becomes available -- through a communicating edge -- in the same
        or a later stage than its consumer (the lint's DM103 defect)."""
        for index, step in enumerate(self.plan.steps):
            for instance in step.inputs():
                available = self.dataflow.available_stage.get(instance)
                if available is not None and available > step.stage:
                    yield (index, instance, available)

    # -- presentation -------------------------------------------------------

    def to_json_dict(self) -> dict:
        """JSON-ready structure (the CLI's ``repro stages --format json``)."""
        critical = self.critical_path()
        return {
            "num_stages": self.plan.num_stages,
            "num_nodes": self.num_nodes,
            "num_edges": self.num_edges,
            "critical_path": critical,
            "critical_path_steps": sum(len(self.nodes[i].steps) for i in critical),
            "nodes": [
                {
                    "index": node.index,
                    "stage": node.stage,
                    "deps": list(node.deps),
                    "steps": [
                        {
                            "plan_index": i,
                            "description": str(self.plan.steps[i]),
                            "communicates": self.plan.steps[i].communicates,
                        }
                        for i in node.steps
                    ],
                }
                for node in self.nodes
            ],
        }

    def describe(self) -> str:
        """Human-readable listing: topo order, per-node steps, critical path."""
        critical = self.critical_path()
        on_path = set(critical)
        lines = [
            f"stage graph: {self.num_nodes} nodes, {self.num_edges} edges, "
            f"{self.plan.num_stages} stages"
        ]
        for node in self.nodes:
            deps = ", ".join(str(d) for d in node.deps) or "-"
            marker = " *" if node.index in on_path else ""
            lines.append(
                f"node {node.index} [stage {node.stage}] deps: {deps}{marker}"
            )
            for i in node.steps:
                step = self.plan.steps[i]
                comm = " [comm]" if step.communicates else ""
                lines.append(f"  {step}{comm}")
        path = " -> ".join(str(i) for i in critical) or "-"
        total = sum(len(self.nodes[i].steps) for i in critical)
        lines.append(f"critical path (* above): {path} ({total} steps)")
        return "\n".join(lines)


def _topo_order(members: list[list[int]], group_deps: list[set[int]]) -> list[int]:
    """Kahn's algorithm over step groups, smallest-first-step tie-break.

    Defensive: if the group graph has a cycle (only possible for malformed,
    hand-corrupted plans the lint inspects), the stragglers are appended in
    plan order so the graph stays total.
    """
    remaining = {g: len(deps) for g, deps in enumerate(group_deps)}
    dependents: dict[int, list[int]] = {g: [] for g in remaining}
    for g, deps in enumerate(group_deps):
        for d in deps:
            dependents[d].append(g)
    ready = sorted((g for g, n in remaining.items() if n == 0),
                   key=lambda g: members[g][0])
    order: list[int] = []
    while ready:
        g = ready.pop(0)
        order.append(g)
        del remaining[g]
        freed = []
        for h in dependents[g]:
            if h in remaining:
                remaining[h] -= 1
                if remaining[h] == 0:
                    freed.append(h)
        if freed:
            ready.extend(freed)
            ready.sort(key=lambda g: members[g][0])
    order.extend(sorted(remaining, key=lambda g: members[g][0]))
    return order
