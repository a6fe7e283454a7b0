"""Fig 10: TPC-H Q1 with varying worker memory (M) and files per worker (F).

Runs the real engine over the simulated S3 at a small scale factor, then
projects latency/cost to the paper's SF 1000 layout (320 files).

Usage: python jobs/figure10_worker_config.py [sf] [n_files]
"""
import sys
import tempfile

from _common import get_spark, print_table

from repro.core import dataset
from repro.s3.store import S3Store
from repro.sim import experiments as X


def main(sf: float = 0.02, n_files: int = 32) -> None:
    spark = get_spark("figure10")
    tmp = tempfile.mkdtemp(prefix="lambada-f10-")
    info, _ = dataset.prepare_lineitem(spark, S3Store(tmp), sf=sf, n_files=n_files)
    mq1 = X.measure_query(spark, tmp, info, "q1")

    print_table(
        X.figure10_memory_sweep(mq1),
        "Fig 10a: Q1, F=1 (320 workers at SF 1k), memory sweep",
    )
    print("paper: faster 512->1792 MiB, no speedup beyond (price grows); cold ~20% slower; all <10 s")

    print_table(
        X.figure10_files_sweep(spark, tmp, info),
        "Fig 10b: Q1, M=1792 MiB, files-per-worker sweep",
    )
    print("paper: more workers -> faster but diminishing gains and higher cost")
    spark.stop()


if __name__ == "__main__":
    main(
        float(sys.argv[1]) if len(sys.argv) > 1 else 0.02,
        int(sys.argv[2]) if len(sys.argv) > 2 else 32,
    )
