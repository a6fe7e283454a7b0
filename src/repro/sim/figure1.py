"""The introduction's motivating simulation (Fig 1).

The paper obtains Fig 1 "through simulation": scanning 1 TB from S3 with

* **job-scoped IaaS**: 1-256 c5n.xlarge instances, 2 min start-up;
* **FaaS**: 8-4096 concurrent 2 GiB Lambda workers, 4 s start-up;
* **always-on IaaS** (Fig 1b): enough VMs to answer in <= 10 s from DRAM
  (3x r5.12xlarge), NVMe (7x i3.16xlarge) or S3 (13x c5n.18xlarge), whose
  hourly cost is compared against the per-query prices of FaaS and QaaS
  multiplied by the query frequency.

This module is also the "Spark executor model vs serverless task scheduling"
comparison: job-scoped IaaS *is* the job-scoped Spark cluster (fixed
executors, amortised startup), FaaS is Lambada's function-per-file scheduler.
"""
from __future__ import annotations

import dataclasses

from ..s3 import pricing
from . import constants as C
from . import netmodel

#: the scan Fig 1 simulates: 1 TB from S3
DATA_BYTES = 1e12


@dataclasses.dataclass(frozen=True)
class CostPoint:
    """One configuration of the Fig 1a sweep."""

    kind: str  # "iaas" | "faas"
    workers: int
    latency_s: float
    cost_usd: float


def iaas_job_scoped(data_bytes: float, n_instances: int) -> CostPoint:
    """Start c5n.xlarge instances, scan, tear down; billed per second while
    running."""
    usd_h, s3_bw, _, _ = pricing.EC2_INSTANCES["c5n.xlarge"]
    scan = data_bytes / (n_instances * s3_bw * 1e6)
    latency = C.IAAS_STARTUP_S + scan
    return CostPoint("iaas", n_instances, latency, n_instances * usd_h / 3600.0 * latency)


def faas_job_scoped(data_bytes: float, n_workers: int) -> CostPoint:
    """Invoke workers, scan in parallel; billed per GB-second + requests."""
    per_worker = data_bytes / n_workers
    scan = per_worker / netmodel.steady_bandwidth(C.FAAS_WORKER_MEMORY_MIB)
    latency = C.FAAS_STARTUP_S + scan
    n_requests = max(1, int(data_bytes / (16 * 2**20)))  # 16 MB chunks
    cost = pricing.lambda_cost(scan, C.FAAS_WORKER_MEMORY_MIB, n_workers) + pricing.request_cost_counts(
        gets=n_requests
    )
    return CostPoint("faas", n_workers, latency, cost)


def figure1a() -> dict:
    """The two job-scoped sweeps of Fig 1a."""
    return {
        "iaas": [iaas_job_scoped(DATA_BYTES, 2**i) for i in range(0, 9)],
        "faas": [faas_job_scoped(DATA_BYTES, 2**i) for i in range(3, 13)],
    }


#: Fig 1b's always-on tiers: enough instances to answer the 1 TB scan in
#: <= 10 s at the tier's scan bandwidth (paper footnote 3).
ALWAYS_ON_TIERS = {
    "dram": ("r5.12xlarge", 3),
    "nvme": ("i3.16xlarge", 7),
    "s3": ("c5n.18xlarge", 13),
}


def always_on_hourly(tier: str) -> float:
    """$/hour of an always-on tier, independent of query frequency."""
    instance, n = ALWAYS_ON_TIERS[tier]
    return n * pricing.EC2_INSTANCES[instance][0]


def tier_latency(tier: str) -> float:
    """Latency of the 1 TB scan on the tier (must meet the 10 s target)."""
    instance, n = ALWAYS_ON_TIERS[tier]
    bw = pricing.EC2_INSTANCES[instance][2] * 1e6
    return DATA_BYTES / (n * bw)


def faas_per_query_cost() -> float:
    """$/query for FaaS sized to meet the interactive latency target."""
    bw = netmodel.steady_bandwidth(C.FAAS_WORKER_MEMORY_MIB)
    n_workers = int(DATA_BYTES / (bw * (C.INTERACTIVE_TARGET_S - C.FAAS_STARTUP_S))) + 1
    return faas_job_scoped(DATA_BYTES, n_workers).cost_usd


def qaas_per_query_cost() -> float:
    """$/query for QaaS: $5/TiB of input."""
    return pricing.qaas_cost(DATA_BYTES)


def figure1b_hourly(queries_per_hour: float) -> dict:
    """$/hour of every option at a given query frequency (Fig 1b lines)."""
    out = {tier: always_on_hourly(tier) for tier in ALWAYS_ON_TIERS}
    out["faas"] = queries_per_hour * faas_per_query_cost()
    out["qaas"] = queries_per_hour * qaas_per_query_cost()
    return out


def faas_breakeven_queries_per_hour() -> float:
    """Query frequency above which the cheapest always-on tier beats FaaS."""
    cheapest = min(always_on_hourly(t) for t in ALWAYS_ON_TIERS)
    return cheapest / faas_per_query_cost()
