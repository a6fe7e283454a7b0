"""Worker network-bandwidth model (paper §4.3, Figs 6-7).

Token-bucket traffic shaping: each worker sustains ``STEADY_BW``; with several
connections it may burst up to ``BURST_BW`` (scaled by memory) until a credit
of ``(burst - steady) * BURST_WINDOW`` bytes is spent. Single connections are
additionally limited by per-connection TCP throughput and request round-trips.
"""
from __future__ import annotations

from . import constants as C


def steady_bandwidth(memory_mib: int) -> float:
    """Sustained ingress bytes/s (Fig 6a: ~90 MiB/s; <1 GB workers slightly less)."""
    if memory_mib < C.SMALL_WORKER_MEMORY_MIB:
        return float(C.SMALL_WORKER_BW_BYTES_S)
    return float(C.STEADY_BW_BYTES_S)


def burst_bandwidth(memory_mib: int, n_connections: int) -> float:
    """Short-term burst ceiling (Fig 6b): needs several connections and large
    memory; never below the steady rate."""
    if n_connections <= 1:
        return steady_bandwidth(memory_mib)
    scale = min(1.0, memory_mib / C.BURST_FULL_MEMORY_MIB)
    return max(steady_bandwidth(memory_mib), C.BURST_BW_BYTES_S * scale)


def download_seconds(
    nbytes: float,
    *,
    memory_mib: int = 2048,
    n_connections: int = 2,
    chunk_bytes: float | None = None,
) -> float:
    """Seconds to ingest ``nbytes`` from S3.

    Transfer rate is bounded by (a) per-connection throughput including the
    per-request round-trip for the given chunk size, (b) the burst ceiling,
    and (c) the credit bucket that forces the long-run rate back to steady.
    """
    if nbytes <= 0:
        return 0.0
    steady = steady_bandwidth(memory_mib)
    burst = burst_bandwidth(memory_mib, n_connections)
    if chunk_bytes:
        # one in-flight request per connection: rate = chunk / (rtt + chunk/tcp)
        per_conn = chunk_bytes / (C.S3_RTT_S + chunk_bytes / C.PER_CONNECTION_BW_BYTES_S)
        conn_rate = n_connections * per_conn
    else:
        conn_rate = n_connections * C.PER_CONNECTION_BW_BYTES_S
    peak = min(burst, conn_rate)
    peak = max(peak, 1.0)
    credit = max(0.0, (burst - steady)) * C.BURST_WINDOW_S
    # token bucket: t = max(bytes/peak, (bytes - credit)/steady)
    t = max(nbytes / peak, (nbytes - credit) / steady)
    return max(t, nbytes / burst)
