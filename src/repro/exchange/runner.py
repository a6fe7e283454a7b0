"""Spark-phased executor for the S3 exchange operators (paper §4.4, Alg 1-2).

Every phase of the exchange is one Spark job whose tasks are the serverless
workers; **all data moves through the simulated S3, never through Spark's own
shuffle**, reproducing the paper's communication topology. The Spark action at
the end of each phase is the barrier that the paper realises by polling S3
until all senders' files exist. Payloads are ``pyarrow.Table``s, stored as
Arrow IPC.

A record's partition ID is Spark's ``pmod(xxhash64(k), P)`` of its key
``k``, bit for bit (:func:`partition_ids`). The workers compute it where they
need it, from the key; no phase stores it.

Every phase is a :func:`repro.pytask.run_on_workers` job over the worker
IDs (``spark.range(P).mapInArrow``, so workers without rows run too), whose
tasks prepare their Python worker processes once.
Phases for a k-level exchange:

  0. *distribute*: the driver reads the input once as an Arrow table
     (``DataFrame.toArrow``) and broadcasts it; source worker p stores the
     contiguous slice of rows ``[p*n//P, (p+1)*n//P)`` as its input share
     R_p ("in/w{p}"), the input rows and nothing else. An empty share is not
     stored. The input must therefore fit in the driver;
  1..k. *level l*: every worker reads the level-(l-1) files addressed to it
     (or its input share), splits the rows by the level-l coordinate of their
     partition ID, and writes one file per group member (or one combined file
     under write combining — offsets in the key, discovered via LIST);
  k+1. *collect*: every worker reads its final files and returns the rows
     with their partition ID and its worker ID, which must be equal. The
     output is not cached: its ``count()`` is the phase's barrier, and a
     caller that evaluates it again reads the store again.

Under write combining, the driver builds the longest key each level could
write before the distribute job, so a group too large for the 1 KiB key
limit fails before any worker PUTs (:class:`naming.KeyTooLong`).

Workers add their request ledgers to one Spark accumulator per phase, so the
ledgers return with the phase's job; the input-share writes and reads use
clients of their own. The driver snapshots them into an :class:`ExchangeReport`,
which tests assert equals :func:`algorithms.expected_requests` exactly.
"""
from __future__ import annotations

import dataclasses
import math
import uuid

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark import AccumulatorParam
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.types import from_arrow_schema, to_arrow_schema
from pyspark.sql.types import IntegerType, LongType, StructField, StructType

from ..pytask import run_on_workers
from ..s3.store import Ledger, NoSuchKey, S3Client, S3Store
from . import algorithms as alg
from . import naming, serde

#: the column whose hash decides a record's partition
KEY = "k"
#: what the distribute and level phases return: rows handled per worker
_COUNTS = pa.schema([("worker", pa.int32()), ("rows", pa.int64())])


# XXH64's primes, as unsigned 64-bit integers
_P1, _P2, _P3, _P4, _P5 = (
    np.uint64(c)
    for c in (
        0x9E3779B185EBCA87,
        0xC2B2AE3D27D4EB4F,
        0x165667B19E3779F9,
        0x85EBCA77C2B2AE63,
        0x27D4EB2F165667C5,
    )
)
#: the seed of Spark's ``xxhash64``, which is also the hash of a null
_SEED = np.uint64(42)


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def partition_ids(keys, n: int) -> np.ndarray:
    """``pmod(xxhash64(k), n)`` of int64 ``keys`` (an Arrow array or chunked
    array) as int32, equal to Spark's expression bit for bit: it ports
    ``XXH64.hashLong`` with Spark's seed, with numpy's uint64 arithmetic
    wrapping as Java's long does. A null key hashes to the seed."""
    x = pc.fill_null(keys, 0).to_numpy().view(np.uint64)
    h = _SEED + _P5 + np.uint64(8)
    h = h ^ (_rotl(x * _P2, 31) * _P1)
    h = _rotl(h, 27) * _P1 + _P4
    h ^= h >> np.uint64(33)
    h *= _P2
    h ^= h >> np.uint64(29)
    h *= _P3
    h ^= h >> np.uint64(32)
    if keys.null_count:
        h[pc.is_null(keys).to_numpy(zero_copy_only=False)] = _SEED
    return np.mod(h.view(np.int64), n).astype(np.int32)


def _split(rows: pa.Table, target: np.ndarray, d: int) -> list[pa.Table]:
    """``rows`` split into ``d`` parts, part ``t`` holding the rows whose
    ``target`` is ``t``, in their order."""
    # one stable sort by target makes every part a contiguous slice
    rows = rows.take(np.argsort(target, kind="stable"))
    sizes = np.bincount(target, minlength=d)
    starts = np.cumsum(sizes) - sizes
    return [rows.slice(a, n) for a, n in zip(starts, sizes)]


def _count(p: int, rows: pa.Table) -> pa.RecordBatch:
    return pa.record_batch([[p], [rows.num_rows]], schema=_COUNTS)


@dataclasses.dataclass
class ExchangeReport:
    """Accounting of one exchange run."""

    input_rows: int
    output_rows: int
    ledger: Ledger  # exchange requests only (levels + collect)
    input_ledger: Ledger  # the distribute/read-input traffic (the "scan")
    per_phase: list  # Ledger per level phase


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
    my = alg.level_coords(p, dims, level)
    tables = []
    if spec.write_combining:
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
    """Split ``rows`` by the level coordinate of their partition ID (computed
    from ``KEY``) and write all parts (empty parts included — receivers poll
    for every sender's file)."""
    gid = alg.group_id(p, dims, level)
    bucket = naming.bucket_for_group(gid, spec.n_buckets)
    me = alg.level_coords(p, dims, level)
    target = alg.level_coords(partition_ids(rows[KEY], math.prod(dims)), dims, level)
    parts = [serde.frame_to_bytes(t) for t in _split(rows, target, dims[level])]
    if spec.write_combining:
        blob, lengths = serde.combine(parts)
        client.put(bucket, naming.combined_key(run_id, level, gid, me, lengths), blob)
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
    run_id: str | None = None,
) -> tuple[DataFrame, ExchangeReport]:
    """Exchange ``df`` among ``n_workers`` serverless workers so that every
    record ends on worker ``pmod(xxhash64(k), n_workers)`` of its int64 key
    ``k`` (column :data:`KEY`), Spark's own expression, computed by
    :func:`partition_ids` wherever a worker needs it rather than stored.

    ``df`` is read once, whole, into the driver (``toArrow``), and source
    worker p starts from the p-th contiguous slice of its rows, so the input
    must fit in the driver. Nothing else of ``df`` but its schema is used.

    Returns the collected output (the input columns, then ``pid`` and
    ``worker``, which must agree) and the request accounting. The output is
    not cached: every evaluation reads the final level's files from the
    store again. The report is a snapshot of the run, which such reads leave
    as it is.

    Raises ``TypeError`` before any Spark job when :data:`KEY` is not a
    bigint column. Under write combining, raises :class:`naming.KeyTooLong`
    after reading the input and before any worker job when a level's key
    could exceed 1 KiB. That key has the level's largest group ID and sender
    coordinate, and d part lengths of :func:`serde.max_frame_bytes` over the
    input with P batches: a level-0 part is one batch, and each later level
    concatenates one part from each of its senders, so no part holds more
    batches than the product of the earlier levels' group sizes.
    """
    schema = df.schema
    key_type = schema[KEY].dataType
    if not isinstance(key_type, LongType):
        raise TypeError(f"exchange key {KEY!r} must be bigint, not {key_type.simpleString()}")
    run_id = run_id or uuid.uuid4().hex[:8]
    dims = alg.grid_dims(n_workers, spec.levels)
    for b in naming.exchange_buckets(spec.n_buckets):
        store.create_bucket(b)
    root = str(store.root)
    sc = spark.sparkContext
    input_acc = sc.accumulator(Ledger(), _LedgerSum())
    level_accs = [sc.accumulator(Ledger(), _LedgerSum()) for _ in range(spec.levels)]
    collect_acc = sc.accumulator(Ledger(), _LedgerSum())
    counts_schema = from_arrow_schema(_COUNTS)

    # Workers without rows still exchange typed empty tables. Spark converts
    # an empty frame of the payload schema for them; no job runs over df.
    empty = spark.createDataFrame(sc.emptyRDD(), schema).toPandas()
    template = pa.Table.from_pandas(
        empty, schema=to_arrow_schema(schema), preserve_index=False
    ).replace_schema_metadata()
    in_bucket = naming.bucket_for_group(0, spec.n_buckets)

    def _received(client: S3Client, level: int, p: int) -> pa.Table:
        tables = _read_level_files(client, run_id, level, p, dims, spec)
        return pa.concat_tables(tables) if tables else template

    # ---- phase 0: distribute input shares (the relation R of Algorithm 1).
    # toArrow runs the query Spark already planned for df; any plan stacked
    # on a local relation would be optimised again, rows and all.
    input_table = df.toArrow()
    if spec.write_combining:
        # the longest key each level could write, before any worker PUTs
        bound = serde.max_frame_bytes(input_table, n_workers)
        last = n_workers - 1  # has the largest group ID and coordinate
        for level, d in enumerate(dims):
            gid, me = alg.group_id(last, dims, level), alg.level_coords(last, dims, level)
            naming.combined_key(run_id, level, gid, me, [bound] * d)
    relation = sc.broadcast(input_table)
    del input_table  # the workers read the broadcast; the driver keeps no copy

    def _distribute(p):
        table = relation.value
        n = table.num_rows
        lo, hi = p * n // n_workers, (p + 1) * n // n_workers
        share = table.slice(lo, hi - lo).combine_chunks()
        if share.num_rows:
            client = S3Client(root)
            client.put(in_bucket, naming.input_key(run_id, p), serde.frame_to_bytes(share))
            input_acc.add(client.ledger)
        yield _count(p, share)

    try:
        counts = run_on_workers(spark, n_workers, _distribute, counts_schema)
        n_in = sum(r.rows for r in counts.collect())
    finally:
        relation.destroy()

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
        counts = run_on_workers(spark, n_workers, _level_phase(level), counts_schema)
        moved = sum(r.rows for r in counts.collect())
        if moved != n_in:
            raise RuntimeError(f"level {level} moved {moved} of {n_in} rows")

    # ---- collect phase: read the final level's files
    def _collect(p):
        client = S3Client(root)
        rows = _received(client, spec.levels - 1, p)
        collect_acc.add(client.ledger)
        rows = rows.append_column("pid", pa.array(partition_ids(rows[KEY], n_workers)))
        worker = pa.array(np.full(rows.num_rows, p, np.int32))
        yield from rows.append_column("worker", worker).to_batches()

    out_schema = StructType(
        schema.fields + [StructField("pid", IntegerType()), StructField("worker", IntegerType())]
    )
    out = run_on_workers(spark, n_workers, _collect, out_schema)
    n_out = out.count()

    # ---- accounting: snapshots, so re-evaluating ``out`` leaves them as is
    per_phase = [Ledger().merge(acc.value) for acc in level_accs]
    total = Ledger()
    for phase in per_phase:
        total.merge(phase)
    report = ExchangeReport(
        input_rows=int(n_in),
        output_rows=int(n_out),
        ledger=total.merge(collect_acc.value),
        input_ledger=Ledger().merge(input_acc.value),
        per_phase=per_phase,
    )
    return out, report
