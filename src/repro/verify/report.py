"""The aggregate verification entry point: one call, every client.

:func:`verify_plan` runs the fixpoint analyses once and feeds all three
framework clients from the shared facts: the hazard detector, the memory
predictor, and the translation-validation audit trail the optimizer left
on ``plan.certificates``.  The facts, stage graph and hazard list live on
one :class:`~repro.verify.analysis.PlanAnalysis`, which the lint rules
read too, so a plan that is both linted and verified is analysed once.
The result renders to the CLI's human listing or ``--format json``
document.
"""

from __future__ import annotations

import dataclasses
import json
from typing import Any, Dict, Optional, Tuple

from repro.core.plan import Plan
from repro.verify.analysis import PlanAnalysis, analyse_plan
from repro.verify.certify import Certificate
from repro.verify.hazards import Hazard
from repro.verify.memory import MemoryPrediction, predict_peak_memory


@dataclasses.dataclass(frozen=True)
class VerificationReport:
    """Everything static verification can say about one plan."""

    target: str
    num_steps: int
    num_nodes: int
    hazards: Tuple[Hazard, ...]
    certificates: Tuple[Certificate, ...]
    memory: MemoryPrediction
    iterations: int  # fixpoint engine pops across all analyses
    widened: Tuple[str, ...]  # base names that needed interval widening

    @property
    def has_errors(self) -> bool:
        """Hazards are errors; certification failures raise before a
        report exists, so they never appear here."""
        return bool(self.hazards)

    def to_json_dict(self) -> Dict[str, object]:
        return {
            "target": self.target,
            "num_steps": self.num_steps,
            "num_nodes": self.num_nodes,
            "ok": not self.has_errors,
            "hazards": [
                {
                    "kind": h.kind,
                    "step": h.step,
                    "subject": h.subject,
                    "detail": h.detail,
                }
                for h in self.hazards
            ],
            "certificates": [c.to_json_dict() for c in self.certificates],
            "memory": self.memory.to_json_dict(),
            "fixpoint": {
                "iterations": self.iterations,
                "widened": list(self.widened),
            },
        }

    def to_json_string(self) -> str:
        return json.dumps(self.to_json_dict(), indent=2)

    def format_human(self) -> str:
        lines = [
            f"verify {self.target}: {self.num_steps} steps, "
            f"{self.num_nodes} stage-graph nodes, "
            f"{self.iterations} fixpoint iterations"
            + (f" (widened: {', '.join(self.widened)})" if self.widened else "")
        ]
        if self.certificates:
            for certificate in self.certificates:
                lines.append(certificate.format_human())
        else:
            lines.append("[certified] no optimizer rewrites to validate")
        memory = self.memory
        lines.append(
            f"[memory] predicted per-worker peak "
            f"{memory.peak_bytes / 1e6:.2f} MB "
            f"(pins {memory.pinned_bytes / 1e6:.2f} MB + transients; "
            f"serial bound {memory.serial_peak_bytes / 1e6:.2f} MB, "
            f"concurrency {memory.concurrency})"
        )
        if self.hazards:
            for hazard in self.hazards:
                lines.append(f"error: {hazard}")
            lines.append(f"{len(self.hazards)} hazard(s) found")
        else:
            lines.append("[hazards] happens-before covers every publish/consume pair")
        return "\n".join(lines)


def verify_plan(
    plan: Plan,
    *,
    target: str = "plan",
    analysis: Optional[PlanAnalysis] = None,
    **bounds: Any,
) -> VerificationReport:
    """Run the full static verification suite over one (staged) plan.

    ``bounds`` are :func:`~repro.verify.memory.predict_peak_memory`'s
    keywords (``num_workers`` is required); for a cluster configuration,
    :func:`~repro.verify.memory.config_bounds` builds them.  A caller that
    already analysed the plan passes ``analysis`` and shares its stage
    graph and hazard list.
    """
    analysis = analysis or analyse_plan(plan)
    memory = predict_peak_memory(plan, analysis=analysis, **bounds)
    certificates = tuple(
        c for c in plan.certificates if isinstance(c, Certificate)
    )
    return VerificationReport(
        target=target,
        num_steps=len(plan.steps),
        num_nodes=len(analysis.graph.nodes),
        hazards=analysis.hazards,
        certificates=certificates,
        memory=memory,
        iterations=analysis.iterations,
        widened=tuple(sorted(analysis.widened)),
    )
