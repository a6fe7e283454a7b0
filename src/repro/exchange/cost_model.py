"""Closed-form cost models of the S3 exchange algorithms (Table 2, Fig 9).

Table 2 of the paper:

    | algo  | #reads      | #writes     | #lists | #scans |
    | 1l    | P^2         | P^2         | O(P)   | 1      |
    | 1l-wc | P^2         | P           | O(P)   | 1      |
    | 2l    | 2 P sqrt(P) | 2 P sqrt(P) | O(P)   | 2      |
    | 2l-wc | 2 P sqrt(P) | 2 P         | O(P)   | 2      |
    | 3l    | 3 P cbrt(P) | 3 P cbrt(P) | O(P)   | 3      |
    | 3l-wc | 3 P cbrt(P) | 3 P         | O(P)   | 3      |

Fig 9 prices these counts and compares them against the cost of *running* the
workers: at 85 MiB/s per worker and $3.3e-5/s per 2 GiB worker, scanning
between 100 MiB once (lower edge) and 1 GiB three times (upper edge).
"""
from __future__ import annotations

import dataclasses

from ..s3 import pricing
from .algorithms import ExchangeSpec

#: Fig 9's worker throughput assumption ("we assume that they achieve 85 MiB/s").
FIG9_WORKER_BW = 85 * 2**20
FIG9_WORKER_MEMORY_MIB = 2048


def table2_counts(n_workers: int, spec: ExchangeSpec) -> dict:
    """The paper's idealised closed forms (real P^(1/k), no integrality)."""
    p = float(n_workers)
    k = spec.levels
    reads = k * p * p ** (1.0 / k)
    writes = k * p if spec.write_combining else reads
    return {"reads": reads, "writes": writes, "lists": k * p, "scans": k}


@dataclasses.dataclass(frozen=True)
class ExchangeCost:
    """Dollar costs of one exchange execution (Fig 9's bar components)."""

    read_cost: float
    write_cost: float
    list_cost: float
    worker_cost_low: float  # one scan of 100 MiB per worker (Fig 9 lower edge)
    worker_cost_high: float  # three scans of 1 GiB per worker (upper edge)

    @property
    def request_cost(self) -> float:
        return self.read_cost + self.write_cost + self.list_cost


def exchange_cost(n_workers: int, spec: ExchangeSpec) -> ExchangeCost:
    """Price the Table 2 counts at the S3 request rates (Fig 9)."""
    c = table2_counts(n_workers, spec)
    # Fig 9's horizontal range is algorithm-independent: one scan of 100 MiB
    # (lower edge) to three scans of 1 GiB (upper edge) per worker.
    low = 100 * 2**20 / FIG9_WORKER_BW
    high = 3 * 2**30 / FIG9_WORKER_BW
    return ExchangeCost(
        read_cost=c["reads"] * pricing.GET_PER_MILLION / 1e6,
        write_cost=c["writes"] * pricing.PUT_PER_MILLION / 1e6,
        list_cost=c["lists"] * pricing.LIST_PER_MILLION / 1e6,
        worker_cost_low=pricing.lambda_cost(low, FIG9_WORKER_MEMORY_MIB, n_workers),
        worker_cost_high=pricing.lambda_cost(high, FIG9_WORKER_MEMORY_MIB, n_workers),
    )


def figure9(worker_counts=(16, 64, 256, 1024, 4096)) -> list[dict]:
    """The Fig 9 sweep: Table 2's request counts (rounded to whole requests)
    and their costs for all six algorithms vs worker count."""
    rows = []
    for p in worker_counts:
        for spec in ALL_SPECS:
            counts = table2_counts(p, spec)
            cost = exchange_cost(p, spec)
            rows.append(
                {
                    "workers": p,
                    "algorithm": spec.label,
                    **{k: round(v) for k, v in counts.items()},
                    "read_cost_usd": cost.read_cost,
                    "write_cost_usd": cost.write_cost,
                    "list_cost_usd": cost.list_cost,
                    "request_cost_usd": cost.request_cost,
                    "worker_cost_low_usd": cost.worker_cost_low,
                    "worker_cost_high_usd": cost.worker_cost_high,
                }
            )
    return rows


def offsets_variant_costs(n_workers: int) -> dict:
    """§4.4.3's two wc-offset variants: the sidecar file doubles read
    requests; the filename variant costs one LIST (priced as a write) per
    worker. The filename variant wins beyond ~12 workers."""
    p = n_workers
    return {
        "sidecar_extra_usd": p * p * pricing.GET_PER_MILLION / 1e6,
        "filename_extra_usd": p * pricing.LIST_PER_MILLION / 1e6,
    }


ALL_SPECS = [
    ExchangeSpec(levels=1, write_combining=False),
    ExchangeSpec(levels=1, write_combining=True),
    ExchangeSpec(levels=2, write_combining=False),
    ExchangeSpec(levels=2, write_combining=True),
    ExchangeSpec(levels=3, write_combining=False),
    ExchangeSpec(levels=3, write_combining=True),
]
