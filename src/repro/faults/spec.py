"""The ``--faults`` specification grammar.

A specification is a ``;``-separated list of clauses; each clause is a
fault kind followed by ``key=value`` options::

    crash:stage=2                      # stage 2's islands crash once each
    lostblock:instance=rank,iteration=3  # lose rank@3 when it is published
    flaky:at=shuffle,p=0.5             # every shuffle rolls a 50% fault
    straggler:stage=1,factor=6         # stage 1 runs 6x slower (once)

Kinds and their options:

``crash``
    Kills a stage attempt with :class:`~repro.errors.WorkerCrashed`
    (retryable).  Options: ``stage``, ``worker`` (reported in the error),
    ``p``, ``times``.
``lostblock``
    Invalidates a published instance's blocks; the first consumer triggers
    lineage recovery.  Options: ``instance`` (name, or SSA ``name@v``),
    ``iteration`` (sugar: ``instance=rank,iteration=3`` targets ``rank@3``),
    ``stage``, ``p``, ``times``.
``flaky``
    Raises :class:`~repro.errors.TransferFault` (retryable) from a
    cross-worker transfer.  Options: ``at`` (transfer kind: ``shuffle``,
    ``broadcast`` or ``rebalance``; default any), ``stage``, ``p``,
    ``times``.
``straggler``
    Slows a whole stage island by ``factor`` (mitigated by speculative
    re-execution when enabled).  Options: ``stage``, ``factor`` (default 4),
    ``p``, ``times``.

``p`` is the per-point fire probability (default 1.0); ``times`` caps how
often a clause fires *per point* -- per stage island for ``crash`` /
``straggler`` / ``flaky``, per instance for ``lostblock`` (default 1,
``0`` = unlimited).  Per-point accounting is what keeps two runs with the
same seed byte-identical whatever order stages run in: no clause's
budget is consumed in host run order.
"""

from __future__ import annotations

import dataclasses

from repro.errors import FaultSpecError

FAULT_KINDS = ("crash", "lostblock", "flaky", "straggler")

_COMMON_KEYS = {"stage", "worker", "p", "times"}
_KEYS_BY_KIND = {
    "crash": _COMMON_KEYS,
    "lostblock": _COMMON_KEYS | {"instance", "iteration"},
    "flaky": _COMMON_KEYS | {"at"},
    "straggler": _COMMON_KEYS | {"factor"},
}
_TRANSFER_POINTS = ("shuffle", "broadcast", "rebalance")


@dataclasses.dataclass(frozen=True)
class FaultClause:
    """One parsed fault-injection clause."""

    kind: str
    stage: int | None = None
    worker: int | None = None
    instance: str | None = None
    probability: float = 1.0
    factor: float = 4.0
    times: int = 1
    at: str | None = None

    def matches_stage(self, stage: int) -> bool:
        return self.stage is None or self.stage == stage

    def describe(self) -> str:
        parts = [self.kind]
        for key, value in (
            ("stage", self.stage),
            ("worker", self.worker),
            ("instance", self.instance),
            ("at", self.at),
        ):
            if value is not None:
                parts.append(f"{key}={value}")
        if self.probability < 1.0:
            parts.append(f"p={self.probability}")
        return ":".join([parts[0], ",".join(parts[1:])]) if parts[1:] else parts[0]


def parse_fault_spec(spec: str) -> tuple[FaultClause, ...]:
    """Parse a ``--faults`` string into clauses (:class:`FaultSpecError`
    on malformed input)."""
    clauses: list[FaultClause] = []
    for raw in spec.split(";"):
        raw = raw.strip()
        if not raw:
            continue
        clauses.append(_parse_clause(raw))
    if not clauses:
        raise FaultSpecError(f"fault spec {spec!r} contains no clauses")
    return tuple(clauses)


def _parse_clause(raw: str) -> FaultClause:
    kind, __, options = raw.partition(":")
    kind = kind.strip()
    if kind not in FAULT_KINDS:
        raise FaultSpecError(
            f"unknown fault kind {kind!r} (expected one of {', '.join(FAULT_KINDS)})"
        )
    values: dict[str, str] = {}
    if options.strip():
        for item in options.split(","):
            key, sep, value = item.partition("=")
            key, value = key.strip(), value.strip()
            if not sep or not key or not value:
                raise FaultSpecError(f"malformed option {item!r} in clause {raw!r}")
            if key not in _KEYS_BY_KIND[kind]:
                raise FaultSpecError(
                    f"option {key!r} is not valid for fault kind {kind!r}"
                )
            if key in values:
                raise FaultSpecError(f"duplicate option {key!r} in clause {raw!r}")
            values[key] = value

    stage = _parse_int(values, "stage", raw, minimum=0)
    worker = _parse_int(values, "worker", raw, minimum=0)
    times = _parse_int(values, "times", raw, minimum=0)
    probability = _parse_float(values, "p", raw)
    factor = _parse_float(values, "factor", raw)
    iteration = _parse_int(values, "iteration", raw, minimum=1)
    instance = values.get("instance")
    at = values.get("at")

    if probability is not None and not 0.0 <= probability <= 1.0:
        raise FaultSpecError(f"p must be in [0, 1], got {probability} in {raw!r}")
    if factor is not None and factor <= 1.0:
        raise FaultSpecError(f"factor must be > 1, got {factor} in {raw!r}")
    if at is not None and at not in _TRANSFER_POINTS:
        raise FaultSpecError(
            f"at must be one of {', '.join(_TRANSFER_POINTS)}, got {at!r}"
        )
    if kind == "lostblock":
        if instance is None:
            raise FaultSpecError(f"lostblock clause {raw!r} needs instance=NAME")
        if iteration is not None:
            if "@" in instance:
                raise FaultSpecError(
                    f"clause {raw!r}: give either instance=name@v or iteration=, "
                    f"not both"
                )
            if iteration > 1:
                instance = f"{instance}@{iteration}"
    elif iteration is not None:
        raise FaultSpecError(f"iteration= only applies to lostblock, in {raw!r}")

    kwargs: dict = {"kind": kind}
    if stage is not None:
        kwargs["stage"] = stage
    if worker is not None:
        kwargs["worker"] = worker
    if instance is not None:
        kwargs["instance"] = instance
    if probability is not None:
        kwargs["probability"] = probability
    if factor is not None:
        kwargs["factor"] = factor
    if times is not None:
        kwargs["times"] = times
    if at is not None:
        kwargs["at"] = at
    return FaultClause(**kwargs)


def _parse_int(
    values: dict[str, str], key: str, raw: str, *, minimum: int
) -> int | None:
    if key not in values:
        return None
    try:
        parsed = int(values[key])
    except ValueError:
        raise FaultSpecError(
            f"{key} must be an integer, got {values[key]!r} in {raw!r}"
        ) from None
    if parsed < minimum:
        raise FaultSpecError(f"{key} must be >= {minimum}, got {parsed} in {raw!r}")
    return parsed


def _parse_float(values: dict[str, str], key: str, raw: str) -> float | None:
    if key not in values:
        return None
    try:
        return float(values[key])
    except ValueError:
        raise FaultSpecError(
            f"{key} must be a number, got {values[key]!r} in {raw!r}"
        ) from None
