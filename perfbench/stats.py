"""Summary statistics and failure accounting for benchmark runs."""

from __future__ import annotations

import dataclasses
import statistics


def median(values: list[float]) -> float:
    """Median of a non-empty sample."""
    if not values:
        raise ValueError("median of an empty sample")
    return float(statistics.median(values))


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """``(q1, median, q3)`` as :func:`statistics.quantiles` (``n=4``,
    exclusive method) gives them; a single value is its own quartiles."""
    if not values:
        raise ValueError("quartiles of an empty sample")
    if len(values) == 1:
        only = float(values[0])
        return only, only, only
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return float(q1), float(q2), float(q3)


def relative_spread(values: list[float]) -> float:
    """Inter-quartile distance as a share of the median (0 for a median
    of 0, where a share is undefined and every value is 0 or cancels)."""
    q1, mid, q3 = quartiles(values)
    return (q3 - q1) / abs(mid) if mid else 0.0


@dataclasses.dataclass
class Tally:
    """Units attempted and failed in one run.

    Every failure is kept, with its reason: a failed unit is never retried
    or dropped, so ``fail_ratio`` counts it against the units attempted.
    """

    attempted: int = 0
    failed: int = 0
    problems: list[str] = dataclasses.field(default_factory=list)

    def record(self, problems: list[str]) -> None:
        """Count one attempted unit; it failed when ``problems`` is not
        empty."""
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(problems)

    @property
    def fail_ratio(self) -> float:
        return self.failed / self.attempted if self.attempted else 0.0

    @property
    def pass_ratio(self) -> float:
        return 1.0 - self.fail_ratio

    @property
    def correct(self) -> bool:
        return self.attempted > 0 and self.failed == 0
