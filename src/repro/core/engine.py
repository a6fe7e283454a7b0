"""Lambada driver and execution engine (paper §3, Fig 3).

The driver compiles the plan, assigns input files to serverless workers,
"invokes" them, and collects results through shared storage only. A query is
one Spark job with one stage: ``spark.range(n_workers).mapInArrow`` at the
default parallelism, each task running several worker IDs one after another
(the reproduction's function-per-fragment scheduler). Worker ``w`` scans
``files[w::n_workers]``, returns its partial states as Arrow task output and
posts its success/error message + metrics into a result queue (the
``qresults`` bucket, standing in for SQS), which the driver reads back key
by key, ``w0`` to ``w{n-1}``. The job's output schema is what the worker's
own post-scan pipeline (``worker.run_pipeline``) emits over zero typed rows
of the first file, so no driver code decides the type of a partial state.
The driver-scope final aggregation is the paper's small driver scope: one
Arrow group-by over the collected partial states, in the driver process
(``avg`` divides as float, also over integer sums). The job is
:func:`repro.pytask.run_on_workers`, whose tasks prepare their Python worker
process once, so a reused worker does not re-read its import archives before
every query.

Real wall-clock at SF<=0.1 validates *correctness*; paper-scale latency and
cost come from ``repro.sim.worker_model`` fed with the measured metrics.
"""
from __future__ import annotations

import dataclasses
import math
import uuid

import pandas as pd
import pyarrow as pa
from pyspark.sql import SparkSession
from pyspark.sql.pandas.types import from_arrow_schema, to_arrow_schema

from ..pytask import run_on_workers
from ..s3.store import NoSuchKey, S3Client, S3Store
from ..scan.parquet_scan import ParquetScanOperator
from ..scan.s3file import DEFAULT_CHUNK_BYTES, DEFAULT_FOOTER_HINT
from . import compile as qc
from . import expr as ex
from . import frontend
from .metrics import QueryMetrics, WorkerMetrics
from .worker import PARTIAL_STATES, execute_fragment, run_pipeline

RESULT_BUCKET = "qresults"

class WorkerError(RuntimeError):
    """At least one worker posted an error message to the result queue."""


@dataclasses.dataclass
class QueryResult:
    """Result of one Lambada query execution."""

    result: pd.DataFrame  # the final (driver-scope) result, collected
    metrics: QueryMetrics
    n_workers: int


def _final_aggregation(partials: pa.Table, phys: qc.PhysicalQuery) -> pa.Table:
    """Driver scope: combine the partial states with one Arrow group-by,
    each state by the driver combine of :data:`worker.PARTIAL_STATES`."""
    specs = [
        (a.out_name + suffix, combine)
        for a in phys.aggs
        for suffix, _, combine in PARTIAL_STATES[a.fn]
    ]
    combined = partials.group_by(phys.keys, use_threads=False).aggregate(specs)
    # the group-by output puts the keys first, then one column per state
    states = dict(zip([name for name, _ in specs], combined.columns[len(phys.keys):]))
    out = {k: combined[k] for k in phys.keys}
    for a in phys.aggs:
        parts = [states[a.out_name + suffix] for suffix, _, _ in PARTIAL_STATES[a.fn]]
        out[a.out_name] = ex._true_divide(*parts) if a.fn == "avg" else parts[0]
    return pa.table(out)


def run_query(
    spark: SparkSession,
    store_root: str,
    query: frontend.Dataset,
    *,
    files_per_worker: int = 1,
    chunk_bytes: int = DEFAULT_CHUNK_BYTES,
    footer_hint: int = DEFAULT_FOOTER_HINT,
    memory_limit_mib: int | None = None,
    run_id: str | None = None,
) -> QueryResult:
    """Execute a frontend query with one serverless worker per
    ``files_per_worker`` input files (the paper's F; W = ceil(files / F))."""
    if not isinstance(files_per_worker, int) or files_per_worker < 1:
        raise ValueError(f"files_per_worker must be an int >= 1, not {files_per_worker!r}")
    phys = qc.compile_plan(query.plan)
    n_workers = math.ceil(len(phys.files) / files_per_worker)
    run_id = run_id or uuid.uuid4().hex[:12]

    S3Store(store_root).create_bucket(RESULT_BUCKET)
    # the worker's own pipeline over zero typed rows of the first file
    client = S3Client(store_root)
    first = ParquetScanOperator(
        client,
        phys.files[:1],
        columns=phys.scan_columns,
        chunk_bytes=chunk_bytes,
        footer_hint=footer_hint,
    )
    empty_out = run_pipeline(first.empty_table(), phys)
    spark_schema = from_arrow_schema(empty_out.schema, prefer_timestamp_ntz=True)
    out_schema = to_arrow_schema(spark_schema)  # Spark's timestamps are [us]

    def _worker(wid):
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
            # fails here, in this worker, on a file typed unlike the first
            partial = partial.cast(out_schema)
        except Exception as e:  # report instead of dying silently
            m = WorkerMetrics(worker_id=wid, status="error", error=repr(e))
            partial = out_schema.empty_table()
        queue.put(RESULT_BUCKET, f"{run_id}/w{wid}.json", m.to_json().encode())
        yield from partial.to_batches()

    partials = run_on_workers(spark, n_workers, _worker, spark_schema)
    collected = partials.toPandas()  # the only Spark action: runs every worker

    # driver reads the result queue: exactly one report per worker of this run
    workers, missing = [], []
    for wid in range(n_workers):
        try:
            report = client.get(RESULT_BUCKET, f"{run_id}/w{wid}.json")
        except NoSuchKey:
            missing.append(wid)
            continue
        workers.append(WorkerMetrics.from_json(report.decode()))
    if missing:
        raise WorkerError(f"workers {missing} never reported")
    errors = [w for w in workers if w.status == "error"]
    if errors:
        raise WorkerError(
            "; ".join(f"worker {w.worker_id}: {w.error}" for w in errors)
        )

    result = collected
    if phys.aggs:
        states = pa.Table.from_pandas(collected, schema=out_schema, preserve_index=False)
        result = _final_aggregation(states, phys).to_pandas()
    return QueryResult(result=result, metrics=QueryMetrics(workers), n_workers=n_workers)
