"""The four benchmark workloads.

A workload turns a seed into *jobs*: a program-builder call plus the input
arrays it runs on.  Inputs are generated outside the timed unit.  One
*unit* runs every job of the workload once, from the program-builder call
until the outputs are numpy arrays again.  Each job has its own session,
built once before the first unit and used by every unit, as a client
would.  The reference outputs come from
:func:`repro.baselines.rlocal.run_local` on the same program and inputs.

Every workload runs on the same cluster settings (:data:`CLUSTER`); each
is capped at the 2 cores of the host the sizes were chosen on, and both
the scheduler's and the engines' thread pools still run.
"""

from __future__ import annotations

import dataclasses
from typing import Callable

import numpy as np

from repro import ClusterConfig, DMacSession
from repro.baselines.rlocal import run_local
from repro.core import optimal
from repro.datasets import graph_like, row_normalize
from repro.lang.program import LoadOp, MatrixProgram, ProgramBuilder
from repro.planopt.structural import program_fingerprint
from repro.programs import (
    build_cf_program,
    build_gnmf_program,
    build_jacobi_program,
    build_linreg_program,
    build_logreg_program,
    build_pagerank_program,
    build_svd_program,
)
from repro.programs.registry import PAPER_APPS, WorkloadParams, build_workload

#: Cluster settings shared by every workload.
CLUSTER = dict(num_workers=4, threads_per_worker=2, max_concurrent_stages=2)

#: Outputs must match the single-machine reference to this relative
#: tolerance (no absolute slack).
RTOL = 1e-8

#: ``repro.core.optimal.optimal_cost`` of each greedy-gap program,
#: recorded from the seed code (paper-model bytes, 4 workers).
RECORDED_OPTIMA = {
    "matmul": 131072,
    "gram": 8192,
    "cf": 52428,
    "pull-up": 131072,
    "pagerank-1": 8192,
}


@dataclasses.dataclass(frozen=True)
class Job:
    """One program of a unit: its builder call and its inputs."""

    name: str
    build: Callable[[], MatrixProgram]
    inputs: dict[str, np.ndarray]


@dataclasses.dataclass
class UnitResult:
    #: ``job/output`` -> array (scalars as 0-d arrays).
    outputs: dict[str, np.ndarray]
    #: Deterministic books, ``job/<book>`` -> value; equal on every unit.
    books: dict[str, float]
    comm_bytes: int
    sim_s: float
    #: Largest per-worker model-byte peak of the sessions so far.
    peak_model_bytes: int
    tasks: int
    tracers: list


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    why: str
    jobs: Callable[[int, bool], list[Job]]
    block_size: int | None = None
    optimize: bool = False
    #: Session lint/verify modes.  "error" refuses a plan with an
    #: error-severity lint finding or a verify hazard, so the gate fails
    #: the unit; the analysis done is the same as in "warn" mode.
    check_plans: bool = False
    #: Exhaustive optimum of every program next to DMac's plan.
    search_optimum: bool = False

    def config(self) -> ClusterConfig:
        return ClusterConfig(block_size=self.block_size, **CLUSTER)

    def session(self) -> DMacSession:
        mode = "error" if self.check_plans else "off"
        return DMacSession(
            self.config(), optimize=self.optimize, lint=mode, verify=mode
        )


def reference(jobs: list[Job]) -> dict[str, np.ndarray]:
    """Single-machine numpy outputs of every job."""
    out: dict[str, np.ndarray] = {}
    for job in jobs:
        local = run_local(job.build(), job.inputs)
        out.update({f"{job.name}/{k}": v for k, v in local.matrices.items()})
        out.update({f"{job.name}/{k}": np.asarray(v) for k, v in local.scalars.items()})
    return out


def run_unit(
    workload: Workload,
    jobs: list[Job],
    sessions: list[DMacSession],
    tracer_factory: Callable[[], object] | None = None,
) -> UnitResult:
    """One unit: build, plan and execute every job on its own session."""
    engines = [engine for session in sessions for engine in session.context.engines]
    tasks_before = sum(engine.stats.tasks for engine in engines)
    outputs: dict[str, np.ndarray] = {}
    books: dict[str, float] = {}
    comm_bytes = 0
    sim_s = 0.0
    peak = 0
    tracers = []
    workers = CLUSTER["num_workers"]
    for job, session in zip(jobs, sessions):
        program = job.build()
        plan = session.plan(program)
        if workload.search_optimum:
            books[f"{job.name}/optimal"] = optimal.optimal_cost(program, workers)
            books[f"{job.name}/greedy"] = optimal.paper_cost_of_plan(plan, workers)
        tracer = tracer_factory() if tracer_factory is not None else None
        result = session.run(program, job.inputs, plan=plan, tracer=tracer)
        if tracer is not None:
            tracers.append(tracer)
        outputs.update({f"{job.name}/{k}": v for k, v in result.matrices.items()})
        outputs.update(
            {f"{job.name}/{k}": np.asarray(v) for k, v in result.scalars.items()}
        )
        books[f"{job.name}/comm_bytes"] = result.comm_bytes
        books[f"{job.name}/sim_s"] = result.simulated_seconds
        books[f"{job.name}/num_stages"] = result.num_stages
        books[f"{job.name}/batched_pairs"] = result.batched_pairs
        books[f"{job.name}/rewrites"] = len(plan.rewrites)
        comm_bytes += result.comm_bytes
        sim_s += result.simulated_seconds
        peak = max(peak, result.peak_memory_bytes)
    tasks = sum(engine.stats.tasks for engine in engines) - tasks_before
    return UnitResult(outputs, books, comm_bytes, sim_s, peak, tasks, tracers)


def check_unit(
    workload: Workload,
    result: UnitResult,
    expected: dict[str, np.ndarray],
    first_books: dict[str, float] | None,
) -> list[str]:
    """Every way ``result`` is wrong; empty when the unit is correct."""
    problems = []
    if set(result.outputs) != set(expected):
        problems.append(
            f"outputs {sorted(result.outputs)} != reference {sorted(expected)}"
        )
    for key in sorted(set(result.outputs) & set(expected)):
        got, want = result.outputs[key], expected[key]
        if got.shape != want.shape or not np.allclose(got, want, rtol=RTOL, atol=0.0):
            problems.append(f"{key}: output differs from the numpy reference")
    if first_books is not None and result.books != first_books:
        moved = sorted(
            key
            for key in set(result.books) | set(first_books)
            if result.books.get(key) != first_books.get(key)
        )
        problems.append(f"books differ from the first unit's: {moved}")
    if workload.search_optimum:
        for job, recorded in RECORDED_OPTIMA.items():
            best = result.books.get(f"{job}/optimal")
            greedy = result.books.get(f"{job}/greedy")
            if best != recorded:
                problems.append(f"{job}: exhaustive optimum {best} != {recorded}")
            elif greedy is None or best > greedy:
                problems.append(f"{job}: optimum {best} above DMac's {greedy}")
    return problems


# -- jobs of each workload ------------------------------------------------


def _density(array: np.ndarray) -> float:
    return float(np.count_nonzero(array)) / array.size


def _pagerank_jobs(seed: int, tiny: bool) -> list[Job]:
    # The trace-suite fixture's graph (graph seed 4), its nodes relabelled
    # by a seeded permutation: every seed gets its own block layout of one
    # degree sequence, so a unit's work barely depends on the seed.
    graph = graph_like("soc-pokec", scale=2e-4 if tiny else 1e-3, seed=4)
    order = np.random.default_rng(seed).permutation(graph.shape[0])
    link = row_normalize(graph[order][:, order])
    nodes = link.shape[0]
    # Declared sparsity 0.05 as in the fixture, so the plan is the same
    # for every seed.
    return [
        Job(
            "pagerank",
            lambda: build_pagerank_program(nodes, 0.05, iterations=2),
            {"link": link},
        )
    ]


def _gnmf_jobs(seed: int, tiny: bool) -> list[Job]:
    shape = (512, 256) if tiny else (4096, 1024)
    factors, iterations = (16, 1) if tiny else (64, 5)
    v = np.random.default_rng(seed).random(shape)
    return [
        Job(
            "gnmf",
            lambda: build_gnmf_program(shape, 1.0, factors=factors, iterations=iterations),
            {"V": v},
        )
    ]


def _paper_builder(app: str, params: WorkloadParams, inputs: dict) -> Callable:
    """The registry's program-builder call for ``app``, with the input
    statistics it needs computed now, outside the unit."""
    if app == "gnmf":
        shape, density = inputs["V"].shape, _density(inputs["V"])
        return lambda: build_gnmf_program(
            shape, density, factors=params.factors, iterations=params.iterations
        )
    if app == "pagerank":
        nodes, density = inputs["link"].shape[0], _density(inputs["link"])
        return lambda: build_pagerank_program(nodes, density, iterations=params.iterations)
    if app in ("linreg", "logreg"):
        build = build_linreg_program if app == "linreg" else build_logreg_program
        shape, density = inputs["V"].shape, _density(inputs["V"])
        return lambda: build(shape, density, iterations=params.iterations)
    if app == "jacobi":
        nodes, density = inputs["R"].shape[0], _density(inputs["R"])
        return lambda: build_jacobi_program(nodes, density, iterations=params.iterations)
    if app == "cf":
        shape, density = inputs["R"].shape, _density(inputs["R"])
        return lambda: build_cf_program(shape, density)
    if app == "svd":
        shape, density = inputs["V"].shape, _density(inputs["V"])
        return lambda: build_svd_program(shape, density, rank=params.rank)[0]
    raise ValueError(f"no program builder for {app!r}")


def _paper_jobs(seed: int, tiny: bool) -> list[Job]:
    params = WorkloadParams(seed=seed)
    if tiny:
        params = dataclasses.replace(
            params, scale=1e-3, rows=200, features=20, iterations=2, rank=3, factors=4
        )
    jobs = []
    for app in PAPER_APPS:
        workload = build_workload(app, params)
        build = _paper_builder(app, params, workload.inputs)
        if program_fingerprint(build()) != program_fingerprint(workload.program):
            raise RuntimeError(f"{app}: builder call differs from the registry's")
        jobs.append(Job(app, build, workload.inputs))
    return jobs


def _matmul_program() -> MatrixProgram:
    pb = ProgramBuilder()
    a = pb.load("A", (256, 256))
    b = pb.load("B", (256, 16))
    pb.output(pb.assign("C", a @ b))
    return pb.build()


def _gram_program() -> MatrixProgram:
    pb = ProgramBuilder()
    a = pb.load("A", (512, 16), sparsity=0.2)
    pb.output(pb.assign("G", a.T @ a))
    return pb.build()


def _pull_up_program() -> MatrixProgram:
    pb = ProgramBuilder()
    a = pb.load("A", (64, 64))
    b = pb.load("B", (64, 64))
    c = pb.assign("C", a + b)
    d = pb.assign("D", c + a)
    e = pb.assign("E", a.T * d)
    g = pb.load("G", (4096, 64))
    pb.output(pb.assign("F", g @ a))
    pb.output(e)
    return pb.build()


#: The greedy-gap programs: ``benchmarks/bench_greedy_gap.py``'s corpus
#: entries whose exhaustive search ends in seconds, plus PageRank with one
#: iteration.
GREEDY_GAP_BUILDERS: dict[str, Callable[[], MatrixProgram]] = {
    "matmul": _matmul_program,
    "gram": _gram_program,
    "cf": lambda: build_cf_program((64, 512), 0.05),
    "pull-up": _pull_up_program,
    "pagerank-1": lambda: build_pagerank_program(256, 0.02, iterations=1),
}


def declared_inputs(program: MatrixProgram, rng: np.random.Generator) -> dict:
    """Uniform inputs of the shapes and sparsity the program declares."""
    inputs = {}
    for op in program.ops:
        if isinstance(op, LoadOp):
            values = rng.random((op.rows, op.cols))
            if op.sparsity < 1.0:
                values *= rng.random((op.rows, op.cols)) < op.sparsity
            inputs[op.output] = values
    return inputs


def _greedy_gap_jobs(seed: int, tiny: bool) -> list[Job]:
    rng = np.random.default_rng(seed)
    return [
        Job(name, build, declared_inputs(build(), rng))
        for name, build in GREEDY_GAP_BUILDERS.items()
    ]


WORKLOADS: dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload(
            "pagerank-sparse",
            "PageRank 2 iterations on a 1632-node soc-pokec-shaped graph at block size 8: "
            "the sparse block path (dense x CSC products, input split)",
            _pagerank_jobs,
            block_size=8,
        ),
        Workload(
            "gnmf-dense",
            "GNMF 5 iterations on a dense 4096x1024 V, rank 64, block 32, optimizer on: "
            "batched BLAS, fused cellwise kernels and shuffle",
            _gnmf_jobs,
            block_size=32,
            optimize=True,
        ),
        Workload(
            "paper-apps",
            "the seven paper apps at registry defaults, optimized, with lint and verify: "
            "planning, plan rewrites and certification",
            _paper_jobs,
            optimize=True,
            check_plans=True,
        ),
        Workload(
            "greedy-gap",
            "exhaustive optimal plan search next to DMac's plan on five small programs: "
            "the only workload that runs core.optimal",
            _greedy_gap_jobs,
            search_optimum=True,
        ),
    )
}
