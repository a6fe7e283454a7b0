"""Spark-phased executor for the S3 exchange operators (paper §4.4, Alg 1-2).

Every phase of the exchange is one Spark job whose tasks are the serverless
workers; **all data moves through the simulated S3, never through Spark's own
shuffle**, reproducing the paper's communication topology. The Spark action at
the end of each phase is the barrier that the paper realises by polling S3
until all senders' files exist. Payloads are ``pyarrow.Table``s, stored as
Arrow IPC.

Phases for a k-level exchange:

  0. *distribute* (``groupBy(src).applyInArrow``): each source worker writes
     its input share R_p ("in/w{p}");
  1..k. *level l* (``spark.range(P).mapInArrow``, so empty workers run too):
     every worker reads the level-(l-1) files addressed to it (or its input
     share), splits the rows by the level-l coordinate of their partition ID,
     and writes one file per group member (or one combined file under write
     combining — offsets in the key, discovered via LIST);
  k+1. *collect*: every worker reads its final files and returns the rows,
     which must now all satisfy ``partition_id == worker_id``.

Workers add their request ledgers to one Spark accumulator per phase, so the
ledgers return with the phase's job; the input-share reads use their own
client. The driver snapshots them into an :class:`ExchangeReport`, which
tests assert equals :func:`algorithms.expected_requests` exactly.
"""
from __future__ import annotations

import dataclasses
import json
import uuid

import numpy as np
import pyarrow as pa
from pyspark import AccumulatorParam
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql import functions as F
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import IntegerType, StructField, StructType

from ..s3.store import Ledger, NoSuchKey, S3Client, S3Store
from . import algorithms as alg
from . import naming, serde

#: what the distribute and level phases return: rows handled per worker
_COUNTS_DDL = "worker int, rows long"
_COUNTS = pa.schema([("worker", pa.int32()), ("rows", pa.int64())])


def _count(p: int, rows: pa.Table) -> pa.RecordBatch:
    return pa.record_batch([[p], [rows.num_rows]], schema=_COUNTS)


@dataclasses.dataclass
class ExchangeReport:
    """Accounting of one exchange run."""

    spec: alg.ExchangeSpec
    n_workers: int
    dims: tuple
    input_rows: int
    output_rows: int
    ledger: Ledger  # exchange requests only (levels + collect)
    input_ledger: Ledger  # the distribute/read-input traffic (the "scan")
    per_phase: list  # Ledger per level phase

    @property
    def requests(self) -> dict:
        return {"puts": self.ledger.puts, "gets": self.ledger.gets, "lists": self.ledger.lists}


class _LedgerSum(AccumulatorParam):
    """Accumulates the workers' :class:`Ledger`s of one phase."""

    def zero(self, value: Ledger) -> Ledger:
        return Ledger()

    def addInPlace(self, a: Ledger, b: Ledger) -> Ledger:
        return a.merge(b)


def _read_level_files(
    client: S3Client, run_id: str, level: int, p: int, dims: tuple, spec: alg.ExchangeSpec
) -> list[pa.Table]:
    """Read the level-``level`` parts addressed to worker ``p``."""
    d = dims[level]
    gid = alg.group_id(p, dims, level)
    bucket = naming.bucket_for_group(gid, spec.n_buckets)
    my = alg.level_coord(p, dims, level)
    tables = []
    if spec.write_combining and spec.offsets_mode == "filename":
        # one LIST discovers every sender's key, offsets included in the name
        keys = client.list(bucket, naming.group_prefix(run_id, level, gid))
        if len(keys) != d:
            raise RuntimeError(f"group {gid} level {level}: saw {len(keys)} of {d} senders")
        for key in keys:
            _, lengths = naming.parse_combined(key)
            off, length = serde.part_range(lengths, my)
            blob = client.get(bucket, key, offset=off, length=length)
            if length:
                tables.append(serde.bytes_to_frame(blob))
    elif spec.write_combining:  # sidecar offsets file: two GETs per sender
        for s in range(d):
            lengths = json.loads(
                client.get(bucket, naming.sidecar_offsets_key(run_id, level, gid, s))
            )
            off, length = serde.part_range(lengths, my)
            blob = client.get(
                bucket, naming.sidecar_data_key(run_id, level, gid, s), offset=off, length=length
            )
            if length:
                tables.append(serde.bytes_to_frame(blob))
    else:
        # readiness poll: one LIST per worker (Table 2's O(P) #lists)
        client.list(bucket, naming.group_prefix(run_id, level, gid))
        for s in range(d):
            blob = client.get(bucket, naming.part_key(run_id, level, gid, s, my))
            tables.append(serde.bytes_to_frame(blob))
    return tables


def _write_level_files(
    client: S3Client,
    run_id: str,
    level: int,
    p: int,
    dims: tuple,
    spec: alg.ExchangeSpec,
    rows: pa.Table,
):
    """Split ``rows`` by the level coordinate of pid and write all parts
    (empty parts included — receivers poll for every sender's file)."""
    d = dims[level]
    gid = alg.group_id(p, dims, level)
    bucket = naming.bucket_for_group(gid, spec.n_buckets)
    me = alg.level_coord(p, dims, level)
    # one stable sort by target makes every receiver's part a contiguous slice
    target = alg.level_coords(rows["pid"].to_numpy(), dims, level)
    rows = rows.take(np.argsort(target, kind="stable"))
    sizes = np.bincount(target, minlength=d)
    ends = np.cumsum(sizes)
    starts = ends - sizes
    parts = [serde.frame_to_bytes(rows.slice(a, b - a)) for a, b in zip(starts, ends)]
    if spec.write_combining:
        blob, lengths = serde.combine(parts)
        if spec.offsets_mode == "filename":
            client.put(bucket, naming.combined_key(run_id, level, gid, me, lengths), blob)
        else:
            client.put(
                bucket,
                naming.sidecar_offsets_key(run_id, level, gid, me),
                json.dumps(lengths).encode(),
            )
            client.put(bucket, naming.sidecar_data_key(run_id, level, gid, me), blob)
    else:
        for v, payload in enumerate(parts):
            client.put(bucket, naming.part_key(run_id, level, gid, me, v), payload)


def run_exchange(
    spark: SparkSession,
    df: DataFrame,
    n_workers: int,
    spec: alg.ExchangeSpec,
    store: S3Store,
    *,
    key_col: str = "k",
    run_id: str | None = None,
) -> tuple[DataFrame, ExchangeReport]:
    """Exchange ``df`` among ``n_workers`` serverless workers so that every
    record ends on the worker given by ``hash(key) % n_workers``.

    Returns the collected output (with ``pid`` and ``worker`` columns, which
    must agree) and the request accounting. The output is cached; the caller
    owns it and should ``unpersist()`` it when done. The report is a snapshot:
    re-evaluating the output reads the store again but does not change it.
    """
    run_id = run_id or uuid.uuid4().hex[:8]
    dims = alg.grid_dims(n_workers, spec.levels)
    for b in naming.exchange_buckets(spec.n_buckets):
        store.create_bucket(b)
    root = str(store.root)
    sc = spark.sparkContext
    input_acc = sc.accumulator(Ledger(), _LedgerSum())
    level_accs = [sc.accumulator(Ledger(), _LedgerSum()) for _ in range(spec.levels)]
    collect_acc = sc.accumulator(Ledger(), _LedgerSum())

    # partition ID and source-worker assignment (both hash-based, as in Alg 1)
    k = F.col(key_col)
    df2 = df.withColumns(
        {
            "pid": F.pmod(F.xxhash64(k), F.lit(n_workers)).cast("int"),
            "src": F.pmod(F.xxhash64(k, F.lit(run_id)), F.lit(n_workers)).cast("int"),
        }
    )
    schema = StructType([f for f in df2.schema.fields if f.name != "src"])
    # Workers without rows still exchange typed empty tables. Spark converts
    # an empty frame of the payload schema for them; no job runs over df.
    empty = spark.createDataFrame(sc.emptyRDD(), schema).toPandas()
    template = pa.Table.from_pandas(
        empty, schema=to_arrow_schema(schema), preserve_index=False
    ).replace_schema_metadata()
    in_bucket = naming.bucket_for_group(0, spec.n_buckets)

    def _on_workers(fn, out_schema) -> DataFrame:
        """One job over all worker IDs, ``fn(p)`` yielding each one's batches."""

        def tasks(batches):
            for batch in batches:
                for p in batch.column(0).to_pylist():
                    yield from fn(p)

        return spark.range(n_workers).mapInArrow(tasks, out_schema)

    def _received(client: S3Client, level: int, p: int) -> pa.Table:
        tables = _read_level_files(client, run_id, level, p, dims, spec)
        return pa.concat_tables(tables) if tables else template

    # ---- phase 0: distribute input shares (the relation R of Algorithm 1)
    def _distribute(key, table):
        p = key[0].as_py()
        client = S3Client(root)
        share = serde.frame_to_bytes(table.drop_columns(["src"]))
        client.put(in_bucket, naming.input_key(run_id, p), share)
        input_acc.add(client.ledger)
        return pa.Table.from_batches([_count(p, table)])

    n_in = sum(r.rows for r in df2.groupBy("src").applyInArrow(_distribute, _COUNTS_DDL).collect())

    # ---- level phases: read previous, partition, write this level
    def _level_phase(level):
        def fn(p):
            client = S3Client(root)
            if level == 0:
                reader = S3Client(root)  # the input share belongs to the scan
                try:
                    rows = serde.bytes_to_frame(reader.get(in_bucket, naming.input_key(run_id, p)))
                except NoSuchKey:  # source worker had no rows: nothing billed
                    rows = template
                input_acc.add(reader.ledger)
            else:
                rows = _received(client, level - 1, p)
            _write_level_files(client, run_id, level, p, dims, spec, rows)
            level_accs[level].add(client.ledger)
            yield _count(p, rows)

        return fn

    for level in range(spec.levels):
        # the action is the barrier
        moved = sum(r.rows for r in _on_workers(_level_phase(level), _COUNTS_DDL).collect())
        if moved != n_in:
            raise RuntimeError(f"level {level} moved {moved} of {n_in} rows")

    # ---- collect phase: read the final level's files
    def _collect(p):
        client = S3Client(root)
        rows = _received(client, spec.levels - 1, p)
        collect_acc.add(client.ledger)
        worker = pa.array(np.full(rows.num_rows, p, np.int32))
        yield from rows.append_column("worker", worker).to_batches()

    out_schema = StructType(schema.fields + [StructField("worker", IntegerType())])
    out = _on_workers(_collect, out_schema).cache()
    n_out = out.count()

    # ---- accounting: snapshots, so re-evaluating ``out`` leaves them as is
    per_phase = [Ledger().merge(acc.value) for acc in level_accs]
    total = Ledger()
    for phase in per_phase:
        total.merge(phase)
    report = ExchangeReport(
        spec=spec,
        n_workers=n_workers,
        dims=dims,
        input_rows=int(n_in),
        output_rows=int(n_out),
        ledger=total.merge(collect_acc.value),
        input_ledger=Ledger().merge(input_acc.value),
        per_phase=per_phase,
    )
    return out, report
