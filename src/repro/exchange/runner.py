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

Phases for a k-level exchange:

  0. *distribute* (``mapInArrow`` splitting each task's rows by source
     worker ``src``, then ``groupBy(src).applyInArrow``): each source worker
     writes its input share R_p ("in/w{p}"), the input rows and nothing else.
     The source worker is ``partition_ids(k, P, seed=crc32(run_id))``, a hash
     of the key seeded by the run ID;
  1..k. *level l* (``spark.range(P).mapInArrow``, so empty workers run too):
     every worker reads the level-(l-1) files addressed to it (or its input
     share), splits the rows by the level-l coordinate of their partition ID,
     and writes one file per group member (or one combined file under write
     combining — offsets in the key, discovered via LIST);
  k+1. *collect*: every worker reads its final files and returns the rows
     with their partition ID and its worker ID, which must be equal.

Workers add their request ledgers to one Spark accumulator per phase, so the
ledgers return with the phase's job; the input-share reads use their own
client. The driver snapshots them into an :class:`ExchangeReport`, which
tests assert equals :func:`algorithms.expected_requests` exactly. Every
phase's task functions are wrapped by :func:`repro.pytask.task`, so a reused
Python worker does not re-read its import archives before every phase; the
level and collect phases are :func:`repro.pytask.run_on_workers` jobs.
"""
from __future__ import annotations

import dataclasses
import math
import uuid
import zlib

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
from pyspark import AccumulatorParam
from pyspark.sql import DataFrame, SparkSession
from pyspark.sql.pandas.types import to_arrow_schema
from pyspark.sql.types import IntegerType, LongType, StructField, StructType

from ..pytask import run_on_workers, task
from ..s3.store import Ledger, NoSuchKey, S3Client, S3Store
from . import algorithms as alg
from . import naming, serde

#: the column whose hash decides a record's partition
KEY = "k"
#: what the distribute and level phases return: rows handled per worker
_COUNTS_DDL = "worker int, rows long"
_COUNTS = pa.schema([("worker", pa.int32()), ("rows", pa.int64())])
#: what the distribute phase shuffles: one part of an input share
_PARTS_DDL = "src int, part binary"
_PARTS = pa.schema([("src", pa.int32()), ("part", pa.binary())])


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


def _rotl(x: np.ndarray, r: int) -> np.ndarray:
    return (x << np.uint64(r)) | (x >> np.uint64(64 - r))


def partition_ids(keys, n: int, seed: int = 42) -> np.ndarray:
    """``pmod(xxhash64(k), n)`` of int64 ``keys`` (an Arrow array or chunked
    array) as int32; a null key hashes to ``seed``. With the default seed it
    equals Spark's expression bit for bit: it ports ``XXH64.hashLong``, with
    numpy's uint64 arithmetic wrapping as Java's long does."""
    x = pc.fill_null(keys, 0).to_numpy().view(np.uint64)
    h = np.uint64(seed) + _P5 + np.uint64(8)
    h = h ^ (_rotl(x * _P2, 31) * _P1)
    h = _rotl(h, 27) * _P1 + _P4
    h ^= h >> np.uint64(33)
    h *= _P2
    h ^= h >> np.uint64(29)
    h *= _P3
    h ^= h >> np.uint64(32)
    if keys.null_count:
        h[pc.is_null(keys).to_numpy(zero_copy_only=False)] = seed
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
    my = alg.level_coord(p, dims, level)
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
    me = alg.level_coord(p, dims, level)
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

    Returns the collected output (the input columns, then ``pid`` and
    ``worker``, which must agree) and the request accounting. The output is
    cached; the caller owns it and should ``unpersist()`` it when done. The
    report is a snapshot: re-evaluating the output reads the store again but
    does not change it. Raises ``TypeError`` before any Spark job when
    :data:`KEY` is not a bigint column.
    """
    key_type = df.schema[KEY].dataType
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

    # Workers without rows still exchange typed empty tables. Spark converts
    # an empty frame of the payload schema for them; no job runs over df.
    empty = spark.createDataFrame(sc.emptyRDD(), df.schema).toPandas()
    template = pa.Table.from_pandas(
        empty, schema=to_arrow_schema(df.schema), preserve_index=False
    ).replace_schema_metadata()
    in_bucket = naming.bucket_for_group(0, spec.n_buckets)

    def _received(client: S3Client, level: int, p: int) -> pa.Table:
        tables = _read_level_files(client, run_id, level, p, dims, spec)
        return pa.concat_tables(tables) if tables else template

    # ---- phase 0: distribute input shares (the relation R of Algorithm 1).
    # Each task splits its rows by source worker and hands Spark's shuffle
    # one Arrow IPC part per source, not rows; the source worker joins them.
    src_seed = zlib.crc32(run_id.encode())

    @task
    def _parts(batches):
        rows = pa.Table.from_batches(batches, schema=template.schema)
        src = partition_ids(rows[KEY], n_workers, seed=src_seed)
        for p, part in enumerate(_split(rows, src, n_workers)):
            if part.num_rows:
                yield pa.record_batch([[p], [serde.frame_to_bytes(part)]], schema=_PARTS)

    @task
    def _distribute(parts):
        p = parts["src"][0].as_py()
        share = pa.concat_tables(serde.bytes_to_frame(b.as_py()) for b in parts["part"])
        client = S3Client(root)
        client.put(in_bucket, naming.input_key(run_id, p), serde.frame_to_bytes(share))
        input_acc.add(client.ledger)
        return pa.Table.from_batches([_count(p, share)])

    shares = df.mapInArrow(_parts, _PARTS_DDL).groupBy("src")
    n_in = sum(r.rows for r in shares.applyInArrow(_distribute, _COUNTS_DDL).collect())

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
        counts = run_on_workers(spark, n_workers, _level_phase(level), _COUNTS_DDL)
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
        df.schema.fields + [StructField("pid", IntegerType()), StructField("worker", IntegerType())]
    )
    out = run_on_workers(spark, n_workers, _collect, out_schema).cache()
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
