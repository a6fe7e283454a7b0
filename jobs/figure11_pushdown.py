"""Fig 11: effect of selection/projection push-down — per-worker processing
time distribution for Q1 and Q6.

Usage: python jobs/figure11_pushdown.py [sf] [n_files]
"""
import sys
import tempfile

from _common import get_spark, print_table

from repro.core import dataset
from repro.s3.store import S3Store
from repro.sim import experiments as X


def main(sf: float = 0.02, n_files: int = 32) -> None:
    spark = get_spark("figure11")
    tmp = tempfile.mkdtemp(prefix="lambada-f11-")
    info, _ = dataset.prepare_lineitem(spark, S3Store(tmp), sf=sf, n_files=n_files)
    rows = []
    for q in ("q1", "q6"):
        mq = X.measure_query(spark, tmp, info, q)
        d = X.figure11_distribution(mq)
        rows.append({k: v for k, v in d.items() if k != "times_s"})
    print_table(rows, "Fig 11: worker processing-time distribution (scaled to SF 1k)")
    print("paper: two categories of workers — metadata-only (0.1-0.2 s, pruned) and 2-3 s (scanning);")
    print("       ~2% of Q1 workers and ~80% of Q6 workers prune everything")
    spark.stop()


if __name__ == "__main__":
    main(
        float(sys.argv[1]) if len(sys.argv) > 1 else 0.02,
        int(sys.argv[2]) if len(sys.argv) > 2 else 32,
    )
