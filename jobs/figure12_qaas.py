"""Fig 12: Lambada vs Amazon Athena vs Google BigQuery — latency and price
for Q1/Q6 at SF 1k and 10k.

Runs the real engine + Spark SQL baselines for correctness, then reports the
paper-scale model numbers.

Usage: python jobs/figure12_qaas.py [sf] [n_files]
"""
import sys
import tempfile

from _common import get_spark, print_table

from repro.core import dataset, queries
from repro.qaas.spark_baseline import run_sql_baseline
from repro.s3.store import S3Store
from repro.sim import experiments as X


def main(sf: float = 0.02, n_files: int = 32) -> None:
    spark = get_spark("figure12")
    tmp = tempfile.mkdtemp(prefix="lambada-f12-")
    info, pdf = dataset.prepare_lineitem(spark, S3Store(tmp), sf=sf, n_files=n_files)
    rows = []
    for q in ("q1", "q6"):
        mq = X.measure_query(spark, tmp, info, q)
        rows.extend(X.figure12_rows(mq))
    print_table(rows, "Fig 12: latency and cost at paper scale")
    print("paper: Lambada ~4x faster than Athena (Q1, SF1k), 26x/15x at SF10k;")
    print("       ~1 order cheaper than Athena, ~2 orders cheaper than BigQuery;")
    print("       BigQuery hot faster at SF1k but needs 40 min (SF1k) / 6.7 h (SF10k) loading")

    # sanity: the QaaS engines' *results* on real Spark SQL (small scale)
    for name, sql in (("q1", queries.Q1_SQL), ("q6", queries.Q6_SQL)):
        _, secs = run_sql_baseline(spark, sql, lineitem=pdf)
        print(f"Spark SQL baseline {name}: {secs:.2f}s local wall time at SF {sf}")
    spark.stop()


if __name__ == "__main__":
    main(
        float(sys.argv[1]) if len(sys.argv) > 1 else 0.02,
        int(sys.argv[2]) if len(sys.argv) > 2 else 32,
    )
