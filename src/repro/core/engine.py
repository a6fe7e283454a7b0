"""Lambada driver and execution engine (paper §3, Fig 3).

The driver compiles the plan, assigns input files to serverless workers,
"invokes" them, and collects results through shared storage only. A query is
one Spark job with one stage: ``spark.range(n_workers).mapInArrow`` at the
default parallelism, each task running several worker IDs one after another
(the reproduction's function-per-fragment scheduler). Worker ``w`` scans
``files[w::n_workers]``, returns its partial states as Arrow task output and
posts its success/error message + metrics into a result queue (the
``qresults`` bucket, standing in for SQS). The driver-scope final
aggregation is the paper's small driver scope: one Arrow group-by over the
collected partial states, in the driver process.

Real wall-clock at SF<=0.1 validates *correctness*; paper-scale latency and
cost come from ``repro.sim.worker_model`` fed with the measured metrics.
"""
from __future__ import annotations

import dataclasses
import math
import uuid
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.types import from_arrow_schema, to_arrow_schema

from ..s3.store import S3Client, S3Store
from ..scan.s3file import S3RandomAccessFile
from . import compile as qc
from . import frontend
from .metrics import QueryMetrics, WorkerMetrics
from .worker import execute_fragment

RESULT_BUCKET = "qresults"

class WorkerError(RuntimeError):
    """At least one worker posted an error message to the result queue."""


@dataclasses.dataclass
class QueryResult:
    """Result of one Lambada query execution."""

    spark_df: DataFrame  # ``result`` as a Spark DataFrame (no worker reruns)
    result: pd.DataFrame  # the final (driver-scope) result, collected
    metrics: QueryMetrics
    n_workers: int
    files_per_worker: int


def _arrow_schema(store_root: str, f) -> pa.Schema:
    """Driver-scope pre-processing: one footer read of the first file."""
    client = S3Client(store_root)
    fobj = S3RandomAccessFile(client, f[0], f[1])
    schema = pq.ParquetFile(fobj).schema_arrow
    fobj.close()
    return schema


def _partial_arrow_schema(phys: qc.PhysicalQuery, arrow: pa.Schema) -> pa.Schema:
    """Worker output: partial states, or the rows of a query without
    aggregation. Counts are int64; sums, minima, maxima and projections
    are float64; keys and scanned columns keep their file type."""
    if phys.aggs:
        return pa.schema(
            arrow.field(c.name)
            if c.kind == "key"
            else (c.name, pa.int64() if c.kind == "count" else pa.float64())
            for c in phys.partial_schema()
        )
    if phys.projections is not None:
        return pa.schema((name, pa.float64()) for name in phys.projections)
    return pa.schema(arrow.field(name) for name in phys.scan_columns or arrow.names)


def _final_aggregation(partials: pa.Table, phys: qc.PhysicalQuery) -> pa.Table:
    """Driver scope: combine the partial states with one Arrow group-by
    (counts are summed, every other state combines with its own kind)."""
    states = [c for c in phys.partial_schema() if c.kind != "key"]
    specs = [(c.name, "sum" if c.kind == "count" else c.kind) for c in states]
    combined = partials.group_by(phys.keys, use_threads=False).aggregate(specs)
    # the group-by output puts the keys first, then one column per state
    cols = dict(zip([c.name for c in states], combined.columns[len(phys.keys):]))
    out = {k: combined[k] for k in phys.keys}
    for a in phys.aggs:
        if a.fn == "avg":
            out[a.out_name] = pc.divide(cols[a.out_name + "__sum"], cols[a.out_name + "__cnt"])
        else:
            out[a.out_name] = cols[a.out_name]
    return pa.table(out)


def run_query(
    spark: SparkSession,
    store_root: str,
    query,
    *,
    n_workers: int | None = None,
    files_per_worker: int | None = None,
    chunk_bytes: int = 1 << 20,
    footer_hint: int = 1 << 16,
    memory_limit_mib: int | None = None,
    run_id: str | None = None,
) -> QueryResult:
    """Execute a Lambada plan with ``n_workers`` serverless workers.

    ``query`` may be a frontend :class:`Dataset`, a logical plan, or an
    already-compiled :class:`PhysicalQuery`. Exactly one of ``n_workers`` /
    ``files_per_worker`` may be given; the default is one worker per file
    (the paper's F=1).
    """
    if isinstance(query, frontend.Dataset):
        query = query.plan
    phys = query if isinstance(query, qc.PhysicalQuery) else qc.compile_plan(query)
    n_files = len(phys.files)
    if n_workers is not None and files_per_worker is not None:
        raise ValueError("give n_workers or files_per_worker, not both")
    if n_workers is None:
        fpw = files_per_worker or 1
        n_workers = math.ceil(n_files / fpw)
    n_workers = min(n_workers, n_files)
    run_id = run_id or uuid.uuid4().hex[:12]

    S3Store(store_root).create_bucket(RESULT_BUCKET)
    partial_schema = from_arrow_schema(
        _partial_arrow_schema(phys, _arrow_schema(store_root, phys.files[0])),
        prefer_timestamp_ntz=True,
    )
    out_schema = to_arrow_schema(partial_schema)

    def _run_workers(batches):
        for batch in batches:
            for wid in batch.column(0).to_pylist():
                queue = S3Client(store_root)  # result-queue client (SQS stand-in)
                try:
                    partial, m = execute_fragment(
                        store_root,
                        wid,
                        phys.files[wid::n_workers],
                        phys,
                        chunk_bytes=chunk_bytes,
                        footer_hint=footer_hint,
                        memory_limit_mib=memory_limit_mib,
                    )
                except Exception as e:  # report instead of dying silently
                    msg = WorkerMetrics(worker_id=wid, status="error", error=repr(e))
                    queue.put(RESULT_BUCKET, f"{run_id}/w{wid}.json", msg.to_json().encode())
                    continue
                queue.put(RESULT_BUCKET, f"{run_id}/w{wid}.json", m.to_json().encode())
                yield from partial.select(out_schema.names).cast(out_schema).to_batches()

    partials = spark.range(n_workers).mapInArrow(_run_workers, partial_schema)
    collected = partials.toPandas()  # the only Spark action: runs every worker

    # driver polls the result queue until it heard back from all workers
    qdir = Path(store_root) / RESULT_BUCKET / run_id
    reports = sorted(qdir.glob("w*.json"))
    workers = [WorkerMetrics.from_json(p.read_text()) for p in reports]
    missing = set(range(n_workers)) - {w.worker_id for w in workers}
    if missing:
        raise WorkerError(f"workers {sorted(missing)} never reported")
    errors = [w for w in workers if w.status == "error"]
    if errors:
        raise WorkerError(
            "; ".join(f"worker {w.worker_id}: {w.error}" for w in errors)
        )
    workers.sort(key=lambda w: w.worker_id)

    if phys.aggs:
        states = pa.Table.from_pandas(collected, schema=out_schema, preserve_index=False)
        final = _final_aggregation(states, phys)
        result = final.to_pandas()
        final_schema = from_arrow_schema(final.schema, prefer_timestamp_ntz=True)
    else:
        result, final_schema = collected, partial_schema
    return QueryResult(
        spark_df=spark.createDataFrame(result, schema=final_schema),
        result=result,
        metrics=QueryMetrics(workers),
        n_workers=n_workers,
        files_per_worker=math.ceil(n_files / n_workers),
    )
