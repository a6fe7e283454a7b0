"""Experiment orchestration: run the real engine small, report paper-scale.

Glues together the measured runs (``repro.core.engine`` at SF <= 0.1 over the
simulated S3) and the models (``scaling``, ``worker_model``, ``qaas.*``) into
the tables of §5:

* :func:`measure_query` — one oracle-checkable engine run with metrics;
* :func:`lambada_estimate` — Fig 10/12's Lambada latency+cost at SF 1k/10k;
* :func:`qaas_estimates` — Fig 12's Athena/BigQuery rows;
* :func:`figure10_memory_sweep` / :func:`figure10_files_sweep` — §5.2;
* :func:`figure11_distribution` — §5.3's per-worker processing times.
"""
from __future__ import annotations

import dataclasses

from pyspark.sql import SparkSession

from ..core import dataset, engine, queries
from ..core.frontend import Lambada
from ..qaas import athena, bigquery
from ..qaas.base import QaaSEstimate
from ..s3.store import S3Store
from . import constants as C
from . import scaling, worker_model

QUERIES = {
    "q1": (queries.q1, queries.Q1_SQL, queries.Q1_COLUMNS),
    "q6": (queries.q6, queries.Q6_SQL, queries.Q6_COLUMNS),
}
#: the paper's worker size for Figs 10-12 (§5.2: M = 1792)
MEMORY_MIB = 1792


@dataclasses.dataclass
class MeasuredQuery:
    """One real engine run plus everything the models need."""

    name: str
    result: engine.QueryResult
    info: dataset.DatasetInfo
    columns: list

    @property
    def row_selectivity(self) -> float:
        out = sum(w.rows_out for w in self.result.metrics.workers)
        return out / self.info.n_rows

    @property
    def pruned_worker_fraction(self) -> float:
        return self.result.metrics.n_pruned / self.result.metrics.n_workers

    @property
    def used_uncompressed_fraction(self) -> float:
        _, used = self.info.used_column_bytes(self.columns)
        return used / self.info.total_uncompressed_bytes


def prepare(spark: SparkSession, store_root: str, *, sf: float = 0.01, n_files: int = 16, row_groups_per_file: int = 2):
    """Create the sorted LINEITEM layout once; returns (info, sorted pdf)."""
    return dataset.prepare_lineitem(
        spark, S3Store(store_root), sf=sf, n_files=n_files, row_groups_per_file=row_groups_per_file
    )


def measure_query(
    spark: SparkSession,
    store_root: str,
    info: dataset.DatasetInfo,
    name: str,
    *,
    files_per_worker: int = 1,
) -> MeasuredQuery:
    """Run one evaluation query for real on the engine.

    The chunk size (4 KiB) and footer prefetch (16 KiB) are the
    paper's 1 MiB-chunk / 64 KiB-footer configuration scaled down to our
    ~tens-of-KB measurement files, so projection push-down and request
    accounting behave like they do on ~500 MB files.
    """
    build, _, columns = QUERIES[name]
    src = Lambada(store_root).from_files(info.files)
    res = engine.run_query(
        spark,
        store_root,
        build(src),
        files_per_worker=files_per_worker,
        chunk_bytes=1 << 12,
        footer_hint=1 << 14,
    )
    return MeasuredQuery(name, res, info, columns)


def lambada_estimate(
    mq: MeasuredQuery,
    scale: scaling.PaperScale,
    *,
    memory_mib: int = MEMORY_MIB,
    files_per_worker: int = 1,
    cold: bool = False,
) -> worker_model.QueryEstimate:
    """Paper-scale Lambada latency/cost for a measured query."""
    rows_per_worker = mq.info.n_rows / mq.result.n_workers
    scaled = scaling.scale_query(mq.result.metrics, rows_per_worker, scale, files_per_worker)
    return worker_model.estimate_query(scaled, memory_mib, cold=cold)


def qaas_estimates(mq: MeasuredQuery, scale: scaling.PaperScale) -> dict:
    """Athena and BigQuery rows of Fig 12 for one query at one scale."""
    row_factor = scale.rows_total / mq.info.n_rows
    used_comp, _ = mq.info.used_column_bytes(mq.columns)
    table_bytes = mq.info.total_compressed_bytes * row_factor
    return {
        "athena": athena.estimate(
            mq.name,
            used_comp * row_factor,
            row_selectivity=mq.row_selectivity,
        ),
        "bigquery": bigquery.estimate(mq.name, table_bytes, mq.used_uncompressed_fraction),
    }


def figure12_rows(mq: MeasuredQuery) -> list[dict]:
    """Fig 12: Lambada vs Athena vs BigQuery at SF 1k and 10k."""
    rows = []
    for scale, sf_label in ((scaling.SF1K, "1k"), (scaling.SF10K, "10k")):
        lam = lambada_estimate(mq, scale)
        q = qaas_estimates(mq, scale)
        rows.append(
            {
                "query": mq.name,
                "sf": sf_label,
                "system": "lambada",
                "latency_s": lam.latency_s,
                "cost_usd": lam.cost_usd,
            }
        )
        for sys_name, est in q.items():
            rows.append(
                {
                    "query": mq.name,
                    "sf": sf_label,
                    "system": sys_name,
                    "latency_s": est.latency_s,
                    "cost_usd": est.cost_usd,
                    **({"cold_latency_s": est.cold_latency_s} if est.load_s else {}),
                }
            )
    return rows


MEMORY_SWEEP = (512, 1024, 1792, 2048, 3008)
FILES_SWEEP = (4, 2, 1)


def figure10_memory_sweep(mq: MeasuredQuery) -> list[dict]:
    """§5.2: Q1 at SF 1k with F=1 and varying worker memory, hot and cold."""
    rows = []
    for m in MEMORY_SWEEP:
        for cold in (False, True):
            est = lambada_estimate(mq, scaling.SF1K, memory_mib=m, cold=cold)
            rows.append(
                {
                    "memory_mib": m,
                    "run": "cold" if cold else "hot",
                    "latency_s": est.latency_s,
                    "cost_usd": est.cost_usd,
                }
            )
    return rows


def figure10_files_sweep(
    spark: SparkSession, store_root: str, info: dataset.DatasetInfo
) -> list[dict]:
    """§5.2: Q1 at SF 1k with M=1792 and F in {4, 2, 1} (W = files/F)."""
    rows = []
    for f in FILES_SWEEP:
        mq = measure_query(spark, store_root, info, "q1", files_per_worker=f)
        est = lambada_estimate(mq, scaling.SF1K, files_per_worker=f)
        rows.append(
            {
                "files_per_worker": f,
                "workers": scaling.SF1K.n_files // f,
                "latency_s": est.latency_s,
                "cost_usd": est.cost_usd,
            }
        )
    return rows


def figure11_distribution(mq: MeasuredQuery) -> dict:
    """§5.3: per-worker processing-time distribution and pruning fractions."""
    times = sorted(
        worker_model.worker_seconds(
            scaling.scale_worker(w, scaling.SF1K.rows_per_worker() / (mq.info.n_rows / mq.result.n_workers)),
            MEMORY_MIB,
        )
        for w in mq.result.metrics.workers
    )
    return {
        "query": mq.name,
        "pruned_fraction": mq.pruned_worker_fraction,
        "row_selectivity": mq.row_selectivity,
        "fastest_s": times[0],
        "median_s": times[len(times) // 2],
        "slowest_s": times[-1],
        "times_s": times,
    }
