"""The layer boundaries the traced run wraps, and the per-layer metrics.

Each :class:`~perfbench.tracing.Boundary` names a span after the layer
(``repro`` subpackage) and the boundary in it.  Every ``<span>_s`` metric
is the span's self time summed over the unit, in busy thread-seconds;
``<span>.calls`` is its number of spans.  The other counts are taken at
the same boundaries from the call's arguments or result.
"""

from __future__ import annotations

from perfbench.tracing import Boundary, Span, busy_by_name


def _kind(block) -> str:
    return "s" if block.is_sparse else "d"


def _block_matmul_name(a, b) -> str:
    """``blocks.matmul`` spans are named by operand kind (d dense, s CSC)."""
    return f"blocks.matmul.{_kind(a)}{_kind(b)}"


def _rewrites(result, plan, *args, **kwargs):
    yield "planopt.rewrites", len(result.rewrites) - len(plan.rewrites)


def _execution(result, *args, **kwargs):
    yield "runtime.stages", result.num_stages
    if result.cache is not None:
        yield "runtime.cache_hits", result.cache["hits"]
        yield "runtime.cache_lookups", result.cache["hits"] + result.cache["misses"]


def _shuffled_records(result, context, source, *args, **kwargs):
    yield "rdd.records", sum(len(partition) for partition in source)


def _split_blocks(result, *args, **kwargs):
    yield "blocks.split.blocks", len(result)


def _batched_pairs(result, engine, a_grid, b_grid, plan, *args, **kwargs):
    yield "kernels.batched_pairs", plan.pairs


BOUNDARIES: tuple[Boundary, ...] = (
    Boundary("frontend.compile", "repro.frontend.program", "FrontendProgram.compile"),
    Boundary("core.plan", "repro.core.planner", "DMacPlanner.plan"),
    Boundary("core.plan", "repro.core.stages", "schedule_stages"),
    Boundary("core.optimal", "repro.core.optimal", "optimal_cost"),
    Boundary("planopt.optimize", "repro.planopt.pipeline", "optimize_plan", _rewrites),
    Boundary("verify.certify", "repro.verify.certify", "certify"),
    Boundary("verify.verify", "repro.verify.report", "verify_plan"),
    Boundary("lint.lint", "repro.lint.runner", "lint_plan"),
    Boundary("runtime.execute", "repro.runtime.executor", "PlanExecutor.execute", _execution),
    Boundary("matrix.from_numpy", "repro.matrix.distributed", "DistributedMatrix.from_numpy"),
    Boundary("matrix.to_numpy", "repro.matrix.distributed", "DistributedMatrix.to_numpy"),
    Boundary("rdd.shuffle", "repro.rdd.shuffle", "shuffle", _shuffled_records),
    Boundary("rdd.transfer", "repro.rdd.context", "ClusterContext.transfer"),
    Boundary("rdd.transfer", "repro.rdd.context", "ClusterContext.broadcast"),
    Boundary("localexec.matmul", "repro.localexec.engine", "LocalEngine.matmul_grids"),
    Boundary("localexec.cellwise", "repro.localexec.engine", "LocalEngine.cellwise_grids"),
    Boundary("localexec.cellwise", "repro.localexec.engine", "LocalEngine.fused_cellwise_grids"),
    Boundary("localexec.cellwise", "repro.localexec.engine", "LocalEngine.scalar_grids"),
    # The engine runs its batched BLAS dispatch inline (one broadcast
    # np.matmul per depth level), so the kernel's boundary is that method.
    Boundary(
        "kernels.stacked_matmul",
        "repro.localexec.engine",
        "LocalEngine._run_grid_batched",
        _batched_pairs,
    ),
    Boundary("kernels.fused", "repro.kernels.fused", "compose_key"),
    Boundary("blocks.split", "repro.blocks.conversion", "split", _split_blocks),
    Boundary(_block_matmul_name, "repro.blocks.ops", "matmul"),
    Boundary("blocks.cellwise", "repro.blocks.ops", "cellwise"),
    Boundary("blocks.assemble", "repro.blocks.conversion", "assemble"),
)

MATMUL_KINDS = ("dd", "ds", "sd", "ss")

#: Spans whose self time is reported as ``<name>_s``.
TIMED_SPANS = (
    "frontend.compile",
    "core.plan",
    "core.optimal",
    "planopt.optimize",
    "verify.certify",
    "verify.verify",
    "lint.lint",
    "runtime.execute",
    "matrix.from_numpy",
    "matrix.to_numpy",
    "rdd.shuffle",
    "rdd.transfer",
    "localexec.matmul",
    "localexec.cellwise",
    "blocks.split",
    *(f"blocks.matmul.{kind}" for kind in MATMUL_KINDS),
    "blocks.cellwise",
    "blocks.assemble",
    "kernels.stacked_matmul",
    "kernels.fused",
)

#: Spans whose number of calls is reported as ``<name>.calls``.
COUNTED_SPANS = (
    "frontend.compile",
    "core.optimal",
    "rdd.shuffle",
    *(f"blocks.matmul.{kind}" for kind in MATMUL_KINDS),
)

#: Counts taken from call arguments or results, and measured per unit.
BOUNDARY_COUNTS = (
    "planopt.rewrites",
    "runtime.stages",
    "rdd.records",
    "blocks.split.blocks",
    "kernels.batched_pairs",
)

#: Every per-layer metric with its unit, in report order.
PER_LAYER: dict[str, str] = {
    **{f"{name}_s": "s" for name in TIMED_SPANS},
    **{f"{name}.calls": "count" for name in COUNTED_SPANS},
    **{name: "count" for name in BOUNDARY_COUNTS},
    "verify.certificates": "count",
    "runtime.cache_hit_ratio": "ratio",
    "localexec.tasks": "count",
    "localexec.peak_model_bytes": "B",
    "kernels.batched_share": "ratio",
    "trace.collect_ratio": "ratio",
    "trace.export_s": "s",
    "bench.trace_overhead_ratio": "ratio",
    "bench.unattributed_s": "s",
}

#: Boundaries each workload must exercise: a traced unit that records no
#: span at one of them fails, since a wrapper that silently misses calls
#: would report a layer as idle.
EXPECTED_SPANS: dict[str, tuple[str, ...]] = {
    "pagerank-sparse": (
        "frontend.compile",
        "core.plan",
        "runtime.execute",
        "matrix.from_numpy",
        "blocks.split",
        "blocks.matmul.ds",
        "localexec.matmul",
        "rdd.transfer",
    ),
    "gnmf-dense": (
        "frontend.compile",
        "planopt.optimize",
        "verify.certify",
        "runtime.execute",
        "rdd.shuffle",
        "localexec.matmul",
        "kernels.stacked_matmul",
        "kernels.fused",
    ),
    "paper-apps": (
        "frontend.compile",
        "core.plan",
        "planopt.optimize",
        "verify.certify",
        "verify.verify",
        "lint.lint",
        "runtime.execute",
        "blocks.matmul.dd",
    ),
    "greedy-gap": (
        "frontend.compile",
        "core.plan",
        "core.optimal",
        "runtime.execute",
    ),
}


def unit_layer_metrics(spans: list[Span], counts: dict[str, int]) -> dict[str, float]:
    """Per-layer metrics of one traced unit from its spans and counts
    (the ``localexec``, ``trace`` and ``bench`` ratios are filled in by
    the caller, which has the unit's results and untraced timings)."""
    busy = busy_by_name(spans)
    calls: dict[str, int] = {}
    for span in spans:
        calls[span.name] = calls.get(span.name, 0) + 1
    metrics: dict[str, float] = {
        f"{name}_s": busy.get(name, 0.0) for name in TIMED_SPANS
    }
    metrics.update(
        {f"{name}.calls": float(calls.get(name, 0)) for name in COUNTED_SPANS}
    )
    metrics.update(
        {name: float(counts.get(name, 0)) for name in BOUNDARY_COUNTS}
    )
    metrics["verify.certificates"] = float(calls.get("verify.certify", 0))
    lookups = counts.get("runtime.cache_lookups", 0)
    metrics["runtime.cache_hit_ratio"] = (
        counts.get("runtime.cache_hits", 0) / lookups if lookups else 0.0
    )
    serial_pairs = sum(calls.get(f"blocks.matmul.{kind}", 0) for kind in MATMUL_KINDS)
    batched = counts.get("kernels.batched_pairs", 0)
    metrics["kernels.batched_share"] = (
        batched / (batched + serial_pairs) if batched + serial_pairs else 0.0
    )
    return metrics


def missing_spans(workload: str, spans: list[Span]) -> list[str]:
    """Expected boundaries of ``workload`` that recorded no span."""
    seen = {span.name for span in spans}
    return [name for name in EXPECTED_SPANS[workload] if name not in seen]
