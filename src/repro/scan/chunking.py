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

#: Fig 7's download: a 1 GB file on a 3008 MiB worker
FILE_BYTES = 10**9
MEMORY_MIB = 3008
#: Fig 7's sweep: chunk sizes of 64 KiB to 16 MiB over 1-8 connections
CHUNK_SIZES = (2**16, 2**18, 2**20, 2**22, 2**24)
CONNECTIONS = (1, 2, 4, 8)


@dataclasses.dataclass(frozen=True)
class ChunkingPoint:
    """One point of Fig 7: downloading :data:`FILE_BYTES` with a given chunk
    size and connection count on a worker of :data:`MEMORY_MIB`."""

    chunk_bytes: int
    n_connections: int
    bandwidth_bytes_s: float
    n_requests: int
    request_cost_usd: float
    worker_cost_usd: float

    @property
    def request_to_worker_cost_ratio(self) -> float:
        return self.request_cost_usd / self.worker_cost_usd


def scan_point(chunk_bytes: int, n_connections: int) -> ChunkingPoint:
    """Model one (chunk size, connections) configuration of the Fig 7 sweep."""
    if chunk_bytes < 1 or n_connections < 1:
        raise ValueError("chunk size and connection count must be positive")
    seconds = netmodel.download_seconds(
        FILE_BYTES,
        memory_mib=MEMORY_MIB,
        n_connections=n_connections,
        chunk_bytes=chunk_bytes,
    )
    n_requests = math.ceil(FILE_BYTES / chunk_bytes)
    # Fig 7's annotation compares request cost against a FIXED worker cost:
    # the worker running the scan at the achievable maximum bandwidth.
    ideal_seconds = netmodel.download_seconds(
        FILE_BYTES, memory_mib=MEMORY_MIB, n_connections=8, chunk_bytes=2**24
    )
    return ChunkingPoint(
        chunk_bytes=chunk_bytes,
        n_connections=n_connections,
        bandwidth_bytes_s=FILE_BYTES / seconds,
        n_requests=n_requests,
        request_cost_usd=pricing.request_cost_counts(gets=n_requests),
        worker_cost_usd=pricing.lambda_cost(ideal_seconds, MEMORY_MIB),
    )


def sweep() -> list[ChunkingPoint]:
    """The Fig 7 parameter sweep."""
    return [scan_point(c, n) for c in CHUNK_SIZES for n in CONNECTIONS]
