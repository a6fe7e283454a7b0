"""Python frontend in the style of the paper's Listing 1:

    data = lambada.from_parquet('s3://bucket/*.parquet')
                  .filter(col('l_discount') >= 0.05)
                  .map(revenue=col('l_extendedprice') * col('l_discount'))
                  .reduce('sum', col('revenue'))

The paper's frontend takes opaque Python UDFs and Numba-compiles them; ours
takes expressions from :mod:`repro.core.expr` (vectorised instead of JIT-
inlined — same no-interpretation property) so push-downs can be derived
automatically, which the paper's IR also does after translation.
"""
from __future__ import annotations

from . import expr as ex
from . import plan as pl
from ..s3.store import S3Client


class Dataset:
    """Immutable query-building handle; each method returns a new Dataset."""

    def __init__(self, plan: pl.Plan):
        self.plan = plan

    def filter(self, predicate: ex.Pred) -> "Dataset":
        return Dataset(pl.FilterNode(self.plan, predicate))

    def map(self, **exprs: ex.Expr) -> "Dataset":
        """Projection: keyword args name the output columns."""
        return Dataset(pl.ProjectNode(self.plan, dict(exprs)))

    def aggregate(self, keys: list[str], aggs: list[pl.AggSpec]) -> "Dataset":
        return Dataset(pl.AggregateNode(self.plan, list(keys), list(aggs)))

    def reduce(self, fn: str, expr: ex.Expr, out_name: str = "value") -> "Dataset":
        """Listing-1 style global reduction."""
        return Dataset(pl.AggregateNode(self.plan, [], [pl.AggSpec(out_name, fn, expr)]))


class Lambada:
    """Entry point bound to a simulated-S3 root (the driver's 'installation')."""

    def __init__(self, store_root: str):
        self.store_root = str(store_root)

    def from_parquet(self, bucket: str, prefix: str) -> Dataset:
        """Expand ``s3://bucket/prefix*`` on the driver (one LIST request,
        a driver-scope pre-processing step in the paper's terms)."""
        client = S3Client(self.store_root)
        keys = [k for k in client.list(bucket, prefix) if k.endswith(".parquet")]
        if not keys:
            raise FileNotFoundError(f"no parquet files under {bucket}/{prefix}")
        return Dataset(pl.ScanNode([(bucket, k) for k in keys]))

    def from_files(self, files: list[tuple[str, str]]) -> Dataset:
        return Dataset(pl.ScanNode(list(files)))
