"""Benchmark fixtures: SF 0.1 dataset (~100 MB scale per the task brief)."""
import pytest

from repro.core import dataset
from repro.s3.store import S3Store

BENCH_SF = 0.1
BENCH_FILES = 16


@pytest.fixture(scope="session")
def bench_store_root(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("bench-s3root"))


@pytest.fixture(scope="session")
def bench_ds(spark, bench_store_root):
    return dataset.prepare_lineitem(
        spark, S3Store(bench_store_root), sf=BENCH_SF, n_files=BENCH_FILES, row_groups_per_file=2
    )
