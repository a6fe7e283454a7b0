"""Per-bucket S3 request-rate limits and throttling model (paper §4.4.1).

"as of July 2018, the rate limit on AWS is 3.5k and 5.5k per second for
writes and reads, respectively, and was as low as 300 and 800 read and write
requests per second before that."

The limits are modelled, not enforced in wall-clock: given how many requests
of each kind a phase issues per bucket and how long the phase would take
without throttling, :func:`throttled_duration` returns the stretched duration.
"""
from __future__ import annotations

import dataclasses


@dataclasses.dataclass(frozen=True)
class RateLimits:
    """Requests/second per bucket (S3 actually limits per prefix; the paper's
    exchange uses one prefix per bucket, so per-bucket is equivalent)."""

    put_per_s: float
    get_per_s: float


#: Post-July-2018 limits (current at the time of the paper).
CURRENT_LIMITS = RateLimits(put_per_s=3500.0, get_per_s=5500.0)
#: Historic limits the paper cites ("300 and 800 read and write ... before").
HISTORIC_LIMITS = RateLimits(put_per_s=300.0, get_per_s=800.0)


def throttled_duration(
    n_requests: int, rate_per_s: float, offered_duration_s: float
) -> float:
    """Completion time of ``n_requests`` offered uniformly over
    ``offered_duration_s`` against a token bucket refilling at ``rate_per_s``.

    If the offered rate stays below the limit the duration is unchanged;
    otherwise the bucket drains at exactly ``rate_per_s`` and the phase
    stretches to ``n/rate``.
    """
    if rate_per_s <= 0:
        raise ValueError("rate must be positive")
    return max(offered_duration_s, n_requests / rate_per_s)
