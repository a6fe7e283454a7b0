"""Pricing constants and cost functions (paper §4.3, §4.4, Fig 9).

The paper's wording on request prices is internally inconsistent (§4.3 says
reads cost $0.4/M; §4.4.1 lists "$5 and $0.4 for 1M read and write requests").
The ">12 workers" crossover in §4.4.3 — replacing P² extra reads with P list
requests is cheaper beyond ~12 workers, with lists "charged the price of write
requests" — only holds if GET = $0.4/M and PUT = LIST = $5/M (P·5e-6 < P²·4e-7
⟺ P > 12.5), which also matches real AWS prices. We use that resolution.
"""
from __future__ import annotations

from .store import Ledger

#: $ per one million GET requests (us-east-1).
GET_PER_MILLION = 0.4
#: $ per one million PUT requests.
PUT_PER_MILLION = 5.0
#: $ per one million LIST requests ("AWS charges list requests for the price
#: of write requests", §4.4.3).
LIST_PER_MILLION = 5.0
#: HEAD requests are priced like GETs on AWS. DELETE requests are free.
HEAD_PER_MILLION = 0.4

#: $ per GB-second of AWS Lambda compute. Paper §4.4.4: "each second costs
#: $3.3e-5 (the current price on AWS for workers with 2 GiB RAM)".
LAMBDA_PER_GB_SECOND = 3.3e-5 / 2.0
#: $ per one million Lambda invocations.
LAMBDA_INVOKE_PER_MILLION = 0.2

#: QaaS price: $5 per TiB of input bytes (both Athena and BigQuery, §5.4.1).
QAAS_PER_TIB = 5.0

#: On-demand EC2 catalogue used by the Fig 1 simulation (us-east-1, 2019-era
#: prices as in the paper's setting): $/hour, S3-facing scan bandwidth in
#: MB/s, and the memory-hierarchy scan bandwidth for always-on serving.
EC2_INSTANCES = {
    # name: (usd_per_hour, s3_scan_MBps, local_scan_MBps, note)
    # c5n.xlarge: "up to 25 Gbit" NIC; ~10 Gbit sustained S3 scan — this is
    # what makes job-scoped IaaS "up to an order of magnitude cheaper" than
    # FaaS per scanned byte in Fig 1a.
    "c5n.xlarge": (0.216, 1200.0, 1200.0, "job-scoped S3 scan unit (Fig 1a)"),
    "r5.12xlarge": (3.024, 1150.0, 36000.0, "DRAM tier (Fig 1b): ~36 GB/s mem scan"),
    "i3.16xlarge": (4.992, 2500.0, 16000.0, "NVMe tier (Fig 1b): ~16 GB/s NVMe"),
    "c5n.18xlarge": (3.888, 8000.0, 8000.0, "S3 tier (Fig 1b): 100 Gbit NIC"),
}


def request_cost(ledger: Ledger) -> float:
    """Dollar cost of all requests recorded in a ledger (DELETEs are free)."""
    return request_cost_counts(
        gets=ledger.gets, puts=ledger.puts, lists=ledger.lists, heads=ledger.heads
    )


def request_cost_counts(*, gets: int = 0, puts: int = 0, lists: int = 0, heads: int = 0) -> float:
    """Dollar cost from raw counts (used by the Table 2 / Fig 9 cost model)."""
    return (
        gets * GET_PER_MILLION
        + puts * PUT_PER_MILLION
        + lists * LIST_PER_MILLION
        + heads * HEAD_PER_MILLION
    ) / 1e6


def lambda_cost(duration_s: float, memory_mib: int, n_workers: int = 1) -> float:
    """Dollar cost of running ``n_workers`` functions for ``duration_s`` each.

    AWS bills GB-seconds; the paper's $3.3e-5/s for 2 GiB workers is exactly
    ``LAMBDA_PER_GB_SECOND * 2``.
    """
    gb = memory_mib / 1024.0
    return n_workers * (
        duration_s * gb * LAMBDA_PER_GB_SECOND + LAMBDA_INVOKE_PER_MILLION / 1e6
    )


def qaas_cost(billed_bytes: float) -> float:
    """QaaS query price: $5/TiB of billed input bytes."""
    return billed_bytes / 2**40 * QAAS_PER_TIB
