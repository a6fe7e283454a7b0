"""Amazon Athena baseline model (paper §5.4).

Observed behaviour the paper reports, which this model reproduces:

* *in-situ* querying of the same Parquet files, no loading step;
* a **fixed resource pool** — "Amazon Athena does not seem to dedicate more
  resources for the larger data sets since their running time increases
  linearly";
* pricing: $5/TiB where "only the selected rows of these columns are
  counted", i.e. selections are pushed into the cost model;
* no cold/hot difference ("we observed no noticeable difference").

Result correctness is real (the query executes on Spark SQL via
:func:`repro.qaas.base.run_sql`); latency/price are models over measured
byte/selectivity quantities.
"""
from __future__ import annotations

from ..s3 import pricing
from .base import QaaSEstimate

#: Aggregate scan rate of Athena's (fixed) pool over gzip Parquet.
#: Calibrated to Fig 12: Q1 at SF 1k runs ~4x slower than Lambada's ~5 s.
POOL_BYTES_PER_S = 5.5 * 2**30
#: Fixed planning/queueing overhead per query.
STARTUP_S = 2.0


def billed_bytes(used_column_compressed_bytes: float, row_selectivity: float) -> float:
    """Used columns x selected rows (selection pushed into the cost model)."""
    return used_column_compressed_bytes * row_selectivity


def estimate(
    query: str,
    used_column_compressed_bytes: float,
    *,
    row_selectivity: float,
) -> QaaSEstimate:
    """Latency and price of one query at paper scale.

    Latency scales with the **full** used-column bytes: the paper observed
    Athena's "running time increases linearly" with the dataset for both
    queries, i.e. min/max pruning did not shorten its runtime (it enters the
    *price* via the selected-rows rule).
    """
    return QaaSEstimate(
        system="athena",
        query=query,
        latency_s=STARTUP_S + used_column_compressed_bytes / POOL_BYTES_PER_S,
        cost_usd=pricing.qaas_cost(billed_bytes(used_column_compressed_bytes, row_selectivity)),
        billed_bytes=billed_bytes(used_column_compressed_bytes, row_selectivity),
    )
