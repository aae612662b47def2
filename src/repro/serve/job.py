"""Tenants, job specifications, and job lifecycle records.

Everything the service layer reports is carried on these dataclasses.
``JobRecord`` JSON deliberately excludes every wall-clock quantity
(planning/execution wall seconds stay on the in-memory record for the
benchmarks): a service report must be byte-identical across same-seed
runs, and only simulated time is deterministic.
"""

from __future__ import annotations

import dataclasses
from typing import Optional

from repro.errors import ServiceError

#: Job lifecycle states, in order of appearance.
JOB_STATES = ("queued", "running", "done", "rejected", "failed")


@dataclasses.dataclass(frozen=True)
class TenantSpec:
    """One tenant sharing the service's simulated cluster.

    ``weight`` drives the stride scheduler's share of simulated compute
    seconds; the quotas bound what a single job may predictably need
    (``memory_quota_bytes``, enforced at admission against the verifier's
    peak-memory bound) and what the tenant's BlockCache may keep resident
    (``cache_quota_bytes``, enforced at run time by LRU spill).
    """

    name: str
    weight: float = 1.0
    memory_quota_bytes: Optional[int] = None
    cache_quota_bytes: Optional[int] = None
    max_queued_jobs: Optional[int] = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ServiceError("tenant name must be non-empty")
        if self.weight <= 0:
            raise ServiceError(
                f"tenant {self.name!r}: weight must be > 0, got {self.weight}"
            )
        for field in ("memory_quota_bytes", "cache_quota_bytes", "max_queued_jobs"):
            value = getattr(self, field)
            if value is not None and value < 1:
                raise ServiceError(
                    f"tenant {self.name!r}: {field} must be >= 1 or None, "
                    f"got {value}"
                )

    def to_json_dict(self) -> dict:
        return {
            "name": self.name,
            "weight": self.weight,
            "memory_quota_bytes": self.memory_quota_bytes,
            "cache_quota_bytes": self.cache_quota_bytes,
            "max_queued_jobs": self.max_queued_jobs,
        }


@dataclasses.dataclass(frozen=True)
class JobSpec:
    """One submission: a registry workload or a pre-built program.

    Exactly one of ``app`` (a :mod:`repro.programs.registry` name, with
    ``params`` patching :class:`~repro.programs.registry.WorkloadParams`
    fields) or ``program`` (a ``MatrixProgram``/``StagedProgram``, e.g.
    from ``@matrix_program(...).compile()``, with ``inputs`` binding its
    loads) must be given.  ``priority`` orders jobs *within* a tenant
    (higher first, FIFO ties); fairness across tenants is the stride
    scheduler's job, so priority never lets one tenant starve another.
    """

    tenant: str
    app: Optional[str] = None
    program: Optional[object] = None
    inputs: Optional[dict] = None
    params: dict = dataclasses.field(default_factory=dict)
    priority: int = 0
    label: Optional[str] = None

    def __post_init__(self) -> None:
        if (self.app is None) == (self.program is None):
            raise ServiceError(
                "a job names exactly one of app=<registry name> or "
                "program=<compiled program>"
            )

    @property
    def display_name(self) -> str:
        if self.label is not None:
            return self.label
        if self.app is not None:
            return self.app
        return getattr(self.program, "name", "program")


@dataclasses.dataclass
class JobRecord:
    """The full lifecycle of one submission, as the report sees it."""

    job_id: int
    tenant: str
    app: str
    priority: int
    state: str = "queued"
    decision: Optional[str] = None  # "run" | "queue" | "reject"
    reject_reason: Optional[str] = None
    error: Optional[str] = None

    # Admission-time predictions (cost model + verifier).
    predicted_bytes: Optional[int] = None
    predicted_flops: Optional[int] = None
    predicted_peak_bytes: Optional[int] = None
    predicted_seconds: Optional[float] = None  # admission runtime estimate

    # Plan-cache outcome for this submission.
    plan_cache: Optional[str] = None  # "hit" | "miss" | "bypass"
    plan_hashes: tuple[str, ...] = ()

    # Service-clock timestamps (simulated seconds since service start).
    submitted_sim_seconds: Optional[float] = None
    started_sim_seconds: Optional[float] = None
    finished_sim_seconds: Optional[float] = None

    # Measured execution cost.
    comm_bytes: int = 0
    flops: int = 0
    simulated_seconds: float = 0.0
    num_stages: int = 0
    segments: Optional[int] = None  # staged runs only
    block_cache: Optional[dict] = None

    # In-memory diagnostics -- NEVER serialised (non-deterministic).
    # Wall seconds obviously.  The *realised* peak is deterministic but
    # stays out so report bytes stay stable; reports publish the
    # verifier's predicted peak, which is sound and what admission
    # actually decided on.
    peak_memory_bytes: int = 0
    plan_wall_seconds: float = 0.0
    run_wall_seconds: float = 0.0

    @property
    def queue_seconds(self) -> Optional[float]:
        """Simulated seconds spent waiting between submit and dispatch."""
        if self.submitted_sim_seconds is None or self.started_sim_seconds is None:
            return None
        return self.started_sim_seconds - self.submitted_sim_seconds

    @property
    def latency_seconds(self) -> Optional[float]:
        """Simulated submit-to-finish latency (queueing + execution)."""
        if self.submitted_sim_seconds is None or self.finished_sim_seconds is None:
            return None
        return self.finished_sim_seconds - self.submitted_sim_seconds

    def to_json_dict(self) -> dict:
        return {
            "job_id": self.job_id,
            "tenant": self.tenant,
            "app": self.app,
            "priority": self.priority,
            "state": self.state,
            "decision": self.decision,
            "reject_reason": self.reject_reason,
            "error": self.error,
            "predicted_bytes": self.predicted_bytes,
            "predicted_flops": self.predicted_flops,
            "predicted_peak_bytes": self.predicted_peak_bytes,
            "predicted_seconds": self.predicted_seconds,
            "plan_cache": self.plan_cache,
            "plan_hashes": list(self.plan_hashes),
            "submitted_sim_seconds": self.submitted_sim_seconds,
            "started_sim_seconds": self.started_sim_seconds,
            "finished_sim_seconds": self.finished_sim_seconds,
            "queue_seconds": self.queue_seconds,
            "latency_seconds": self.latency_seconds,
            "comm_bytes": self.comm_bytes,
            "flops": self.flops,
            "simulated_seconds": self.simulated_seconds,
            "num_stages": self.num_stages,
            "segments": self.segments,
            "block_cache": self.block_cache,
        }
