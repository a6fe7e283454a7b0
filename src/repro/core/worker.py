"""Serverless worker: executes one plan fragment over its files (paper §3.3).

Mirrors the paper's event handler: it receives a worker ID, the fragment, and
its input file list; runs the execution engine under a memory guard so that
out-of-memory situations are *reported* to the driver instead of the worker
"dying silently"; and posts a success-or-error message (with metrics) to the
result queue.

The fragment pipeline is: S3 Parquet scan (with push-downs, and the
residual filter on each row group whose statistics do not prove it) ->
projection, evaluated with ``pyarrow.compute`` over the scanned Arrow tables
(the stand-in for the paper's JiT-compiled pipelines) -> partial
aggregation, one Arrow group-by over all of the worker's rows. The scan
reads the group keys that are string columns as Arrow dictionaries, so the
group-by hashes small integer indices; the partial aggregation unifies the
row groups' dictionaries first and casts the keys back to strings after.
The fragment returns an Arrow table: the partial states, or the rows of a
query without aggregation, typed by this pipeline alone (the driver runs
:func:`run_pipeline` over zero typed rows to learn the output schema).
"""
from __future__ import annotations

import time

import pyarrow as pa

from ..s3.store import S3Client
from ..scan.parquet_scan import ParquetScanOperator
from . import compile as qc
from . import expr as ex
from .metrics import WorkerMetrics

#: The partial states of each aggregate function, for the worker and the
#: driver alike: (column suffix, worker aggregate, driver combine). A state
#: column is named ``out_name + suffix``; the worker aggregate is an Arrow
#: hash aggregate with its options, the driver combine one over the states
#: of all workers. Like SQL, every function skips nulls (``count(*)``
#: counts a column without any): ``avg`` is a sum and a count of the
#: non-null values, which the driver divides.
PARTIAL_STATES = {
    "sum": (("", ("sum",), "sum"),),
    "count": (("", ("count",), "sum"),),
    "avg": (("__sum", ("sum",), "sum"), ("__cnt", ("count",), "sum")),
    "min": (("", ("min",), "min"),),
    "max": (("", ("max",), "max"),),
}


class WorkerOOM(MemoryError):
    """Fragment would exceed the function's memory limit."""


def _project(rows: pa.Table, phys: qc.PhysicalQuery) -> pa.Table:
    """Projection of the rows the scan's residual filter kept."""
    if phys.projections is None:
        return rows
    out = {name: ex.over_rows(e, rows) for name, e in phys.projections.items()}
    for k in phys.keys:
        out.setdefault(k, rows[k])
    return pa.table(out)


def _decoded(values):
    """``values`` with a dictionary type cast to its value type."""
    if pa.types.is_dictionary(values.type):
        return values.cast(values.type.value_type)
    return values


def _partial_aggregate(rows: pa.Table, phys: qc.PhysicalQuery) -> pa.Table:
    """Partial aggregation states of one worker's rows: the keys, then the
    :data:`PARTIAL_STATES` of each aggregate in order.

    Each aggregate expression is evaluated once over the whole table and
    decoded when it is a dictionary (Arrow has no min/max over one), then
    one Arrow group-by computes every state. Dictionary keys are grouped
    over the unified dictionaries of all row groups and decoded in the
    output, so the states are typed as over plain columns. A keyless
    aggregate yields one row even over no rows: its counts are 0 and its
    other states null.
    """
    cols = {k: rows[k] for k in phys.keys}
    specs = []
    for a in phys.aggs:
        # count(*) reads no column: it counts the entries of a null-free one
        if a.expr is None:
            values = pa.repeat(True, rows.num_rows)
        else:
            values = _decoded(ex.over_rows(a.expr, rows))
        for suffix, worker_agg, _ in PARTIAL_STATES[a.fn]:
            name = a.out_name + suffix
            cols[name] = values
            specs.append((name, *worker_agg))
    grouped = pa.table(cols).unify_dictionaries().group_by(phys.keys, use_threads=False)
    out = grouped.aggregate(specs)
    # the group-by output puts the keys first, then one column per spec
    names = [*phys.keys, *(s[0] for s in specs)]
    return pa.table(dict(zip(names, map(_decoded, out.columns))))


def run_pipeline(rows: pa.Table, phys: qc.PhysicalQuery) -> pa.Table:
    """The fragment after the scan, which has applied the residual filter:
    projection, then partial aggregation when the query aggregates. Returns
    the fragment's output (partial states, or the rows of a query without
    aggregation). Over the scan's typed empty table it gives the output
    schema, which is how the driver learns it."""
    rows = _project(rows, phys)
    return _partial_aggregate(rows, phys) if phys.aggs else rows


def execute_fragment(
    store_root: str,
    worker_id: int,
    files: list,
    phys: qc.PhysicalQuery,
    *,
    chunk_bytes: int,
    footer_hint: int,
    memory_limit_mib: int | None = None,
) -> tuple[pa.Table, WorkerMetrics]:
    """Run the serverless fragment; returns (partial states or rows, metrics).

    Raises :class:`WorkerOOM` when the scanned data would not fit the
    function's memory budget (the engine runs "with a memory limit slightly
    lower than that of the serverless function").
    """
    t0 = time.monotonic()
    client = S3Client(store_root)
    m = WorkerMetrics(worker_id=worker_id, n_files=len(files))
    scan = ParquetScanOperator(
        client,
        files,
        columns=phys.scan_columns,
        residual=phys.residual_predicate,
        dictionary=phys.keys,
        chunk_bytes=chunk_bytes,
        footer_hint=footer_hint,
    )
    scan.metrics = m  # the scan counts straight into this worker's record
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
    # from_batches, not concat_tables: it keeps the row count of tables
    # without columns (a count(*) reads none)
    batches = [b for t in parts for b in t.to_batches()]
    rows = pa.Table.from_batches(batches) if batches else scan.empty_table()
    m.rows_out = rows.num_rows
    out = run_pipeline(rows, phys)
    m.wall_time_s = time.monotonic() - t0
    m.ledger = vars(client.ledger).copy()
    return out, m
