"""Summary rules the benchmark reports by: percentiles, the knee, errors.

Pure functions over measured samples, kept apart from the code that
takes the measurements so the rules themselves are unit-tested
(``perfbench/tests/test_stats.py``).
"""

from __future__ import annotations

import math
import statistics
from dataclasses import dataclass

#: A tail percentile is reported only with at least this many samples
#: beyond it; fewer and one outlier decides the number.
MIN_BEYOND = 10

#: A rung has no growing backlog while its drain ratio stays at or
#: above this (see :class:`Rung`).
MIN_DRAIN = 0.95

#: Candidate tail percentiles, highest first.
TAIL_QUANTILES = (0.999, 0.99, 0.95, 0.9)


def min_samples_for(q: float) -> int:
    """Smallest sample count with ``MIN_BEYOND`` samples beyond quantile ``q``."""
    return math.ceil(MIN_BEYOND / (1.0 - q) - 1e-9)


def nearest_rank(sorted_samples: list[float], q: float) -> float:
    """Nearest-rank ``q`` quantile of an ascending, non-empty list."""
    if not sorted_samples:
        raise ValueError("no samples")
    rank = max(1, math.ceil(q * len(sorted_samples) - 1e-9))
    return sorted_samples[rank - 1]


def tail_quantile(n: int) -> float | None:
    """Highest quantile of ``TAIL_QUANTILES`` that ``n`` samples support."""
    for q in TAIL_QUANTILES:
        if n >= min_samples_for(q):
            return q
    return None


def latency_summary(samples_s: list[float]) -> dict[str, float | int | None]:
    """Median and the highest supported tail percentile, in milliseconds.

    Returns ``{"n", "p50_ms", "tail_q", "tail_ms"}``; ``tail_q`` and
    ``tail_ms`` are None when fewer than ``min_samples_for(0.9)``
    samples exist.
    """
    ordered = sorted(samples_s)
    q = tail_quantile(len(ordered))
    return {
        "n": len(ordered),
        "p50_ms": nearest_rank(ordered, 0.5) * 1000.0 if ordered else None,
        "tail_q": q,
        "tail_ms": nearest_rank(ordered, q) * 1000.0 if q is not None else None,
    }


def p99_ms(samples_s: list[float]) -> float:
    """The p99 in milliseconds; refuses sample counts that cannot support it."""
    need = min_samples_for(0.99)
    if len(samples_s) < need:
        raise ValueError(f"p99 needs >= {need} samples, got {len(samples_s)}")
    return nearest_rank(sorted(samples_s), 0.99) * 1000.0


@dataclass(frozen=True)
class Rung:
    """One open-loop rate step as the knee rule sees it.

    ``drain_ratio`` is the span of the scheduled arrivals divided by the
    span from the first arrival to the last completion: 1.0 when the
    server kept up, falling as a backlog grows.
    """

    rate: float
    p99_ms: float
    drain_ratio: float
    failed: int
    samples: int


def rung_ok(rung: Rung, budget_ms: float) -> bool:
    """A rung passes when p99 fits the budget, no backlog grew, nothing failed."""
    return (
        rung.failed == 0
        and rung.samples >= min_samples_for(0.99)
        and rung.p99_ms <= budget_ms
        and rung.drain_ratio >= MIN_DRAIN
    )


def knee_rate(rungs: list[Rung], budget_ms: float) -> tuple[float, bool]:
    """Highest passing rate, interpolated towards the rung above it.

    The knee is the highest rung that passes; a failing rung below it
    was a transient stall, not saturation (past saturation the backlog
    grows every time, so a lucky pass there does not happen).  It is
    placed between that rung and the next one up, where the first of
    the failing criteria crosses its limit on the line through the two
    rungs: log(p99) against log(budget), the drain ratio against
    ``MIN_DRAIN``.  The estimate then moves smoothly with the server
    instead of snapping to ladder steps.  Failed requests on the upper
    rung put the knee at the passing rate.

    Returns ``(knee, censored)``; ``censored`` is True when the top
    rung passed, so the true knee lies above the ladder.

    Raises:
        ValueError: No rungs, or the lowest rung already fails.
    """
    ordered = sorted(rungs, key=lambda r: r.rate)
    if not ordered or not rung_ok(ordered[0], budget_ms):
        raise ValueError("the lowest rung must meet the budget")
    top = max(i for i, r in enumerate(ordered) if rung_ok(r, budget_ms))
    if top == len(ordered) - 1:
        return ordered[top].rate, True
    low, high = ordered[top], ordered[top + 1]
    crossings = [1.0]
    if high.failed or high.samples < min_samples_for(0.99):
        crossings.append(0.0)
    if high.p99_ms > budget_ms:
        crossings.append(
            (math.log(budget_ms) - math.log(low.p99_ms))
            / (math.log(high.p99_ms) - math.log(low.p99_ms))
        )
    if high.drain_ratio < MIN_DRAIN:
        crossings.append(
            (low.drain_ratio - MIN_DRAIN) / (low.drain_ratio - high.drain_ratio)
        )
    frac = min(1.0, max(0.0, min(crossings)))
    return low.rate + frac * (high.rate - low.rate), False


@dataclass
class Tally:
    """Attempted and failed operations; ``error_rate`` is their ratio."""

    attempted: int = 0
    failed: int = 0

    def add(self, attempted: int, failed: int = 0) -> None:
        """Count ``attempted`` operations of which ``failed`` failed."""
        if attempted < 0 or failed < 0 or failed > attempted:
            raise ValueError(f"bad tally increment {attempted}/{failed}")
        self.attempted += attempted
        self.failed += failed

    @property
    def error_rate(self) -> float:
        """failed / attempted (0.0 before anything was attempted)."""
        return self.failed / self.attempted if self.attempted else 0.0


def median(values: list[float]) -> float:
    """Median of a non-empty list."""
    return float(statistics.median(values))
