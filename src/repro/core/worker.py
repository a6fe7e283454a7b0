"""Serverless worker: executes one plan fragment over its files (paper §3.3).

Mirrors the paper's event handler: it receives a worker ID, the fragment, and
its input file list; runs the execution engine under a memory guard so that
out-of-memory situations are *reported* to the driver instead of the worker
"dying silently"; and posts a success-or-error message (with metrics) to the
result queue.

The fragment pipeline is: S3 Parquet scan (with push-downs) -> residual
filter -> projection, evaluated with ``pyarrow.compute`` over the scanned
Arrow tables (the stand-in for the paper's JiT-compiled pipelines) ->
partial aggregation, one Arrow group-by over all of the worker's rows. The
fragment returns an Arrow table: the partial states, or the rows of a query
without aggregation.
"""
from __future__ import annotations

import time

import pyarrow as pa
import pyarrow.compute as pc

from ..s3.store import S3Client
from ..scan.parquet_scan import ParquetScanOperator
from . import compile as qc
from . import expr as ex
from .metrics import WorkerMetrics

_ALL_ROWS = pc.CountOptions(mode="all")


class WorkerOOM(MemoryError):
    """Fragment would exceed the function's memory limit."""


def _column(e: ex.Expr, table: pa.Table):
    """``e`` over ``table``'s rows; a scalar result (an expression that reads
    no column) is repeated once per row."""
    v = e.eval(table)
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        return v
    return pa.repeat(v, table.num_rows)


def _filter_project(table: pa.Table, phys: qc.PhysicalQuery) -> pa.Table:
    """Residual filter, then projection, of the scanned rows."""
    if phys.residual_predicate is not None:
        table = table.filter(_column(phys.residual_predicate, table))
    if phys.projections is not None:
        out = {name: _column(e, table) for name, e in phys.projections.items()}
        for k in phys.keys:
            out.setdefault(k, table[k])
        table = pa.table(out)
    return table


def _partial_aggregate(rows: pa.Table, phys: qc.PhysicalQuery) -> pa.Table:
    """Partial aggregation states of one worker's rows, named as in
    ``phys.partial_schema()``.

    Each aggregate expression is evaluated once over the whole table, then
    one Arrow group-by computes every state. Like SQL, ``count`` counts
    every row and the other functions skip nulls (``avg`` is a sum and a
    count of the non-null values). A keyless aggregate yields one row even
    over no rows: its counts are 0 and its other states null.
    """
    cols = {k: rows[k] for k in phys.keys}
    specs = []
    for a in phys.aggs:
        if a.fn == "count":
            states = [(a.out_name, pa.nulls(rows.num_rows), "count", _ALL_ROWS)]
        elif a.fn == "avg":
            values = _column(a.expr, rows)
            states = [
                (a.out_name + "__sum", values, "sum", None),
                (a.out_name + "__cnt", values, "count", None),
            ]
        else:
            states = [(a.out_name, _column(a.expr, rows), a.fn, None)]
        for name, values, fn, options in states:
            cols[name] = values
            specs.append((name, fn, options))
    # the group-by output puts the keys first, then one column per spec
    out = pa.table(cols).group_by(phys.keys, use_threads=False).aggregate(specs)
    return out.rename_columns([*phys.keys, *(s[0] for s in specs)])


def execute_fragment(
    store_root: str,
    worker_id: int,
    files: list,
    phys: qc.PhysicalQuery,
    *,
    chunk_bytes: int = 1 << 20,
    footer_hint: int = 1 << 16,
    memory_limit_mib: int | None = None,
) -> tuple[pa.Table, WorkerMetrics]:
    """Run the serverless fragment; returns (partial states or rows, metrics).

    Raises :class:`WorkerOOM` when the scanned data would not fit the
    function's memory budget (the engine runs "with a memory limit slightly
    lower than that of the serverless function").
    """
    t0 = time.monotonic()
    client = S3Client(store_root)
    scan = ParquetScanOperator(
        client,
        files,
        columns=phys.scan_columns or None,
        predicate=phys.scan_predicate,
        chunk_bytes=chunk_bytes,
        footer_hint=footer_hint,
    )
    parts = []
    budget = None if memory_limit_mib is None else int(memory_limit_mib * 0.9) * 2**20
    consumed = 0
    for tbl in scan.tables():
        consumed += tbl.nbytes
        if budget is not None and consumed > budget:
            raise WorkerOOM(
                f"worker {worker_id}: fragment needs >{consumed >> 20} MiB, "
                f"limit {memory_limit_mib} MiB"
            )
        parts.append(tbl)
    rows = _filter_project(pa.concat_tables(parts or [scan.empty_table()]), phys)
    partial = _partial_aggregate(rows, phys) if phys.aggs else rows
    m = WorkerMetrics(
        worker_id=worker_id,
        n_files=len(files),
        row_groups_total=scan.metrics.row_groups_total,
        row_groups_scanned=scan.metrics.row_groups_scanned,
        rows_read=scan.metrics.rows_read,
        rows_out=rows.num_rows,
        compressed_bytes=scan.metrics.compressed_bytes,
        uncompressed_bytes=scan.metrics.uncompressed_bytes,
        wall_time_s=time.monotonic() - t0,
        ledger=vars(client.ledger).copy(),
    )
    return partial, m
