"""LRU plan cache keyed on structural program fingerprints.

Planning the paper's applications costs tens of milliseconds; hashing the
program costs microseconds (see :mod:`repro.planopt.structural`).  The
service therefore keys the cache on
:func:`~repro.planopt.structural.program_fingerprint` -- computed *before*
planning -- so a hit skips the planner entirely, and publishes the planned
plans' :func:`~repro.planopt.structural.plan_structural_hash` digests as
the entry's identity in reports.

Staged programs cache both segment plans (prologue + body) under one
entry.  Entries are immutable once inserted; plans are shared across
submissions, which is safe because execution never mutates a plan.
"""

from __future__ import annotations

import collections
import dataclasses
import time
from typing import Optional

from repro.core.plan import Plan
from repro.frontend.staged import StagedProgram


@dataclasses.dataclass(frozen=True)
class CacheEntry:
    """One cached planning outcome (all segment plans plus predictions)."""

    fingerprint: str
    plans: tuple[Plan, ...]  # (plan,) or (prologue, body)
    structural_hashes: tuple[str, ...]
    predicted_bytes: int
    predicted_flops: int
    predicted_peak_bytes: int
    #: Wall seconds the original planning took -- in-memory diagnostic for
    #: the throughput benchmark, never serialised into reports.
    plan_wall_seconds: float

    @property
    def staged(self) -> bool:
        return len(self.plans) == 2


class PlanCache:
    """Bounded LRU mapping program fingerprints to :class:`CacheEntry`.

    ``max_entries <= 0`` disables caching: every lookup is a *bypass*
    (counted separately from misses so reports distinguish "cache off"
    from "cold").
    """

    def __init__(self, max_entries: int = 128) -> None:
        self.max_entries = max_entries
        self._entries: "collections.OrderedDict[str, CacheEntry]" = (
            collections.OrderedDict()
        )
        self.hits = 0
        self.misses = 0
        self.bypasses = 0
        self.evictions = 0

    @property
    def enabled(self) -> bool:
        return self.max_entries > 0

    def __len__(self) -> int:
        return len(self._entries)

    def lookup(self, fingerprint: str) -> Optional[CacheEntry]:
        """A hit refreshes recency; a miss (or bypass) returns None."""
        if not self.enabled:
            self.bypasses += 1
            return None
        entry = self._entries.get(fingerprint)
        if entry is None:
            self.misses += 1
            return None
        self._entries.move_to_end(fingerprint)
        self.hits += 1
        return entry

    def insert(self, entry: CacheEntry) -> None:
        if not self.enabled:
            return
        self._entries[entry.fingerprint] = entry
        self._entries.move_to_end(entry.fingerprint)
        while len(self._entries) > self.max_entries:
            self._entries.popitem(last=False)
            self.evictions += 1

    def stats(self) -> dict:
        return {
            "entries": len(self._entries),
            "max_entries": self.max_entries,
            "hits": self.hits,
            "misses": self.misses,
            "bypasses": self.bypasses,
            "evictions": self.evictions,
        }


def plan_for_cache(session, program) -> CacheEntry:
    """Plan ``program`` on ``session`` and package the result for caching.

    Returns an entry carrying every admission-relevant prediction so a
    later hit admits without re-running the planner or the verifier's
    peak-memory analysis.  (The fingerprint is filled by the caller, which
    computed it before deciding to plan.)
    """
    from repro.verify.memory import config_bounds, predict_peak_memory

    bounds = config_bounds(session.config, estimation_mode=session.estimation_mode)
    started = time.perf_counter()
    if isinstance(program, StagedProgram):
        plans = (session.plan(program.prologue), session.plan(program.body))
    else:
        plans = (session.plan(program),)
    predictions = [predict_peak_memory(plan, **bounds) for plan in plans]
    elapsed = time.perf_counter() - started
    from repro.serve.admission import predict_flops

    return CacheEntry(
        fingerprint="",
        plans=plans,
        structural_hashes=tuple(plan.structural_hash() for plan in plans),
        predicted_bytes=sum(plan.predicted_bytes for plan in plans),
        predicted_flops=sum(
            predict_flops(plan.program, session.estimation_mode) for plan in plans
        ),
        predicted_peak_bytes=max(p.peak_bytes for p in predictions),
        plan_wall_seconds=elapsed,
    )
