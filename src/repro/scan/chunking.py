"""Chunk-size / connection-count trade-off for S3 scans (paper §4.3, Fig 7).

"While a single connection requires a chunk size of 16 MB to get reasonably
close to the maximum throughput, we achieve that throughput even with a chunk
size of 1 MB using four concurrent connections. [...] in a scan with a chunk
size of 1 MiB, the requests are 1.7x more expensive than the workers cost for
the same scan."
"""
from __future__ import annotations

import dataclasses
import math

from ..s3 import pricing
from ..sim import netmodel
from ..sim import constants as C


@dataclasses.dataclass(frozen=True)
class ChunkingPoint:
    """One point of Fig 7: downloading ``file_bytes`` with a given chunk size
    and connection count on a worker of ``memory_mib``."""

    chunk_bytes: int
    n_connections: int
    bandwidth_bytes_s: float
    n_requests: int
    request_cost_usd: float
    worker_cost_usd: float

    @property
    def request_to_worker_cost_ratio(self) -> float:
        return self.request_cost_usd / self.worker_cost_usd


def scan_point(
    chunk_bytes: int,
    n_connections: int,
    *,
    file_bytes: int = 10**9,
    memory_mib: int = 3008,
) -> ChunkingPoint:
    """Model one (chunk size, connections) configuration of the Fig 7 sweep."""
    if chunk_bytes < 1 or n_connections < 1:
        raise ValueError("chunk size and connection count must be positive")
    seconds = netmodel.download_seconds(
        file_bytes,
        memory_mib=memory_mib,
        n_connections=n_connections,
        chunk_bytes=chunk_bytes,
    )
    n_requests = math.ceil(file_bytes / chunk_bytes)
    # Fig 7's annotation compares request cost against a FIXED worker cost:
    # the worker running the scan at the achievable maximum bandwidth.
    ideal_seconds = netmodel.download_seconds(
        file_bytes, memory_mib=memory_mib, n_connections=8, chunk_bytes=2**24
    )
    return ChunkingPoint(
        chunk_bytes=chunk_bytes,
        n_connections=n_connections,
        bandwidth_bytes_s=file_bytes / seconds,
        n_requests=n_requests,
        request_cost_usd=pricing.request_cost_counts(gets=n_requests),
        worker_cost_usd=pricing.lambda_cost(ideal_seconds, memory_mib),
    )


def sweep(
    chunk_sizes=(2**16, 2**18, 2**20, 2**22, 2**24),
    connections=(1, 2, 4, 8),
    **kw,
) -> list[ChunkingPoint]:
    """The Fig 7 parameter sweep."""
    return [scan_point(c, n, **kw) for c in chunk_sizes for n in connections]
