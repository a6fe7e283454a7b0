"""Order statistics for the benchmark's samples (no third-party imports)."""
from __future__ import annotations

import statistics

#: A tail percentile must leave at least this many samples above it.
TAIL_SAMPLES_BEYOND = 10


def median(xs) -> float:
    return float(statistics.median(xs))


def tail(xs) -> tuple[float, float, int]:
    """(value, percentile, samples beyond) of the highest percentile that
    leaves ``TAIL_SAMPLES_BEYOND`` samples above it.

    With ``2 * TAIL_SAMPLES_BEYOND`` samples or fewer that rank does not
    lie above the middle; it is then clamped to the rank just above the
    middle, so the reported tail never reads lower than the median, and the
    recorded percentile and count say how much tail there really was.
    """
    s = sorted(xs)
    n = len(s)
    rank = max(n - TAIL_SAMPLES_BEYOND, n // 2 + 1)  # 1-based
    return float(s[rank - 1]), 100.0 * rank / n, n - rank


def slope(ys) -> float:
    """Least-squares slope of ``ys`` against their index (0 for < 2 points)."""
    n = len(ys)
    if n < 2:
        return 0.0
    mx = (n - 1) / 2
    my = sum(ys) / n
    num = sum((i - mx) * (y - my) for i, y in enumerate(ys))
    den = sum((i - mx) ** 2 for i in range(n))
    return num / den

