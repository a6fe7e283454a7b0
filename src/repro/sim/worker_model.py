"""Per-worker latency and per-query latency/cost models (Figs 10-12).

Input is what a worker *measured* (``WorkerMetrics``: bytes downloaded,
uncompressed bytes decompressed+scanned, request counts, pruning) — possibly
scaled to paper-size volumes by :mod:`repro.sim.scaling` — plus the worker
configuration (memory, cold/hot). The model:

  worker time = overhead + max(download time, compute time)      (overlapped)
  query time  = invocation (two-level tree) + slowest worker + result fetch
  query cost  = Lambda GB-seconds + S3 request costs

Download overlaps decompression/scanning via the scan operator's dedicated
row-group threads (paper §4.3.2); gzip scanning is CPU-bound at >= 1792 MiB
(paper §5.2), which emerges here because the burst credit covers most of a
~500 MB per-worker download.
"""
from __future__ import annotations

import dataclasses

from ..core.metrics import QueryMetrics, WorkerMetrics
from ..faas import cpu_model, invocation
from ..s3 import pricing
from . import constants as C
from . import netmodel


def worker_seconds(m: WorkerMetrics, memory_mib: int, *, cold: bool = False) -> float:
    """Simulated execution time of one worker's fragment (excl. invocation)."""
    if m.pruned_all:
        # metadata round-trip(s), prune everything, return empty (Fig 11)
        return C.PRUNED_WORKER_S * (C.COLD_EXEC_PENALTY if cold else 1.0)
    download = netmodel.download_seconds(
        m.ledger_obj().bytes_read, memory_mib=memory_mib, n_connections=4
    )
    compute = cpu_model.compute_seconds(
        m.uncompressed_bytes / C.SCAN_BYTES_PER_VCPU_S, memory_mib, C.WORKER_THREADS
    )
    t = C.WORKER_OVERHEAD_S + C.S3_RTT_S + max(download, compute)
    return t * (C.COLD_EXEC_PENALTY if cold else 1.0)


@dataclasses.dataclass
class QueryEstimate:
    """Paper-scale latency/cost of one query execution."""

    invocation_s: float
    slowest_worker_s: float
    result_fetch_s: float
    lambda_cost_usd: float
    request_cost_usd: float
    worker_seconds: list

    @property
    def latency_s(self) -> float:
        return self.invocation_s + self.slowest_worker_s + self.result_fetch_s

    @property
    def cost_usd(self) -> float:
        return self.lambda_cost_usd + self.request_cost_usd


def estimate_query(
    metrics: QueryMetrics,
    memory_mib: int,
    *,
    cold: bool = False,
) -> QueryEstimate:
    """Latency and cost of a query from its per-worker metrics, its workers
    invoked from us-east-1."""
    reg = invocation.REGIONS["us"]
    times = [worker_seconds(w, memory_mib, cold=cold) for w in metrics.workers]
    tree = invocation.simulate_two_level(max(1, metrics.n_workers), reg, cold=cold)
    slowest = max(times) * C.QUERY_STRAGGLER_FACTOR
    lam = sum(pricing.lambda_cost(t, memory_mib) for t in times)
    req = pricing.request_cost(metrics.total_ledger)
    return QueryEstimate(
        invocation_s=tree.all_running,
        slowest_worker_s=slowest,
        result_fetch_s=C.RESULT_FETCH_S,
        lambda_cost_usd=lam,
        request_cost_usd=req,
        worker_seconds=times,
    )
