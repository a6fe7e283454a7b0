"""Shared fixtures: one simulated-S3 store with a prepared LINEITEM layout.

The sorted-Parquet dataset (SF 0.01, 16 files, 2 row groups each) is built
once per session; engine runs of Q1/Q6 over it are also session-scoped since
many tests only inspect their metrics.
"""
import pytest

from repro.core import dataset
from repro.s3.store import S3Store
from repro.scan.parquet_scan import ParquetScanOperator
from repro.sim import experiments as X

SF = 0.01
N_FILES = 16


@pytest.fixture(scope="session")
def store_root(tmp_path_factory) -> str:
    return str(tmp_path_factory.mktemp("s3root"))


@pytest.fixture(scope="session")
def store(store_root) -> S3Store:
    return S3Store(store_root)


@pytest.fixture(scope="session")
def lineitem_ds(spark, store_root):
    """(DatasetInfo, sorted pandas frame) of the prepared LINEITEM layout."""
    return dataset.prepare_lineitem(
        spark, S3Store(store_root), sf=SF, n_files=N_FILES, row_groups_per_file=2
    )


@pytest.fixture(scope="session")
def mq1(spark, store_root, lineitem_ds):
    info, _ = lineitem_ds
    return X.measure_query(spark, store_root, info, "q1")


@pytest.fixture(scope="session")
def mq6(spark, store_root, lineitem_ds):
    info, _ = lineitem_ds
    return X.measure_query(spark, store_root, info, "q6")


@pytest.fixture()
def scan_decisions(monkeypatch) -> list:
    """The in-process scans' decisions, one per row group in scan order:
    None for a pruned row group, else the residual conjuncts its statistics
    left open (``[]`` when they prove every conjunct)."""
    seen = []
    decide = ParquetScanOperator._open_conjuncts

    def spy(self, *args):
        out = decide(self, *args)
        seen.append(out)
        return out

    monkeypatch.setattr(ParquetScanOperator, "_open_conjuncts", spy)
    return seen
