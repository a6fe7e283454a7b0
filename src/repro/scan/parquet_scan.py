"""S3 Parquet scan operator (paper §4.3.2, Fig 8).

Reads one or more Parquet files from the simulated S3 through
:class:`S3RandomAccessFile`, implementing the push-downs the operator design
relies on:

* **metadata with a single file read** — the footer prefetch in the file
  object serves the Thrift footer and column-chunk offsets with one GET;
* **selection push-down** — row groups whose min/max statistics miss one
  of the compiler's prune intervals ``(column, lo, hi)`` are skipped
  entirely (no data GETs; paper §5.3 / Fig 11). Each surviving row group
  is filtered by the residual conjuncts its statistics leave open, and not
  at all when its statistics prove every conjunct;
* **projection push-down** — only the column chunks of ``columns`` are
  downloaded (ranged GETs, chunk-aligned per Fig 7); none when the query
  reads no column, every one when ``columns`` is ``None``.

Each row group decodes on the calling thread: a worker is a 1792 MiB
function, which the Fig 4 CPU law gives one vCPU, and several workers share
the cores of one Spark executor. The ``dictionary`` columns that are string
columns in a file (a worker passes its query's group keys; pyarrow reads
only BYTE_ARRAY columns so) are read as Arrow dictionaries: decoding and
hashing a few distinct values per row group costs a fraction of building and
hashing one string per row. Each row group has its own dictionary, so a
consumer that needs one unifies them; the typed empty result keeps the
file's own string types.

The operator exposes the open/next/close interface as an iterator of Arrow
tables (one per surviving row group, its residual applied). It counts row
groups, rows before the residual and bytes into ``metrics``, a
:class:`~repro.core.metrics.WorkerMetrics`; a worker points it at its own
record, so each worker has one metrics record.
"""
from __future__ import annotations

import io
from typing import Iterator, Sequence

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..core import expr as ex
from ..core.metrics import WorkerMetrics
from ..s3.store import S3Client
from .s3file import DEFAULT_CHUNK_BYTES, DEFAULT_FOOTER_HINT, S3RandomAccessFile


def _footer_metadata(f: S3RandomAccessFile) -> "pq.FileMetaData":
    """Parse the Parquet footer via the file's prefetched tail window.

    Layout: ... | thrift metadata (mlen bytes) | mlen (4 LE) | "PAR1".
    ``pq.read_metadata`` only looks at a buffer's tail, so feeding it exactly
    ``metadata + length + magic`` works without the rest of the file.
    """
    size = f.size()
    tail = f.read_at(size - 8, 8)
    if tail[4:] != b"PAR1":
        raise ValueError("not a Parquet file (bad magic)")
    mlen = int.from_bytes(tail[:4], "little")
    blob = f.read_at(size - 8 - mlen, mlen + 8)
    return pq.read_metadata(io.BytesIO(blob))


def _provable(typ: pa.DataType) -> bool:
    """Whether a chunk's min/max statistics are exact bounds for the
    residual's kernels: not floats (NaN is outside min/max), not strings
    (statistics may be truncated)."""
    return pa.types.is_integer(typ) or pa.types.is_date(typ) or pa.types.is_timestamp(typ)


def _statistics(rg_meta, names: dict, column: str):
    """The column chunk's statistics, or None when it has no min/max.
    ``names`` maps the file's column names to their indices."""
    idx = names.get(column)
    st = None if idx is None else rg_meta.column(idx).statistics
    return st if st is not None and st.has_min_max else None


def _min_max(st, schema: pa.Schema, column: str) -> pa.Table:
    """A chunk's min and max as two rows of ``column``, typed like its rows
    in ``schema``, so they meet a literal as the rows do in the residual."""
    return pa.table({column: pa.array([st.min, st.max], schema.field(column).type)})


class ParquetScanOperator:
    """Scan ``files`` (list of ``(bucket, key)``) with push-downs applied."""

    def __init__(
        self,
        client: S3Client,
        files: Sequence[tuple[str, str]],
        *,
        columns: Sequence[str] | None,
        intervals: Sequence[tuple] = (),
        residual: ex.Pred | None = None,
        dictionary: Sequence[str] = (),
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        footer_hint: int = DEFAULT_FOOTER_HINT,
    ):
        self.client = client
        self.files = list(files)
        self.columns = None if columns is None else list(columns)
        self.chunk_bytes = chunk_bytes
        self.footer_hint = footer_hint
        self.metrics = WorkerMetrics(worker_id=-1)  # a worker sets its own
        self._schema: pa.Schema | None = None  # cached from the first footer
        self._intervals = list(intervals)
        self._dictionary = list(dictionary)
        # each residual conjunct, with the column whose statistics may prove
        # it: that of a bare column-vs-literal comparison, else None
        self._conjuncts = []
        for p in [] if residual is None else residual.conjuncts():
            iv = p.prune_interval()
            self._conjuncts.append((p, None if iv is None else iv[0]))

    # -- pruning and proofs ---------------------------------------------------
    def _open_conjuncts(self, rg_meta, names: dict, schema: pa.Schema) -> list | None:
        """Prune, prove or filter one row group: None when some prune
        interval misses its statistics, else the residual conjuncts that its
        statistics leave open. A conjunct is proven when its column is
        integer, date or timestamp, the chunk has min/max and no null, and
        the conjunct's own kernel holds on both the min and the max: a
        comparison with a literal is monotone, so it then holds on every
        row."""
        for column, lo, hi in self._intervals:
            st = _statistics(rg_meta, names, column)
            if st is not None:  # no statistics -> cannot prune (conservative)
                stat = _min_max(st, schema, column)[column]
                if not ex.interval_overlaps(lo, hi, stat[0], stat[1]):
                    return None
        open_ = []
        for p, column in self._conjuncts:
            st = None if column is None else _statistics(rg_meta, names, column)
            proven = (
                st is not None
                and st.has_null_count
                and st.null_count == 0
                and _provable(schema.field(column).type)
                and pc.all(p.eval(_min_max(st, schema, column))).as_py()
            )
            if not proven:
                open_.append(p)
        return open_

    # -- operator interface ---------------------------------------------------
    def _open(self, bucket: str, key: str) -> tuple[S3RandomAccessFile, "pq.FileMetaData"]:
        """Open one file and parse its footer from the prefetched tail window.

        Handing pyarrow this FileMetaData makes metadata cost exactly one GET
        ("the library loads this metadata with a single file read") and
        skips pyarrow's own 64 KiB speculative tail read. The first footer
        read also fixes the scan's Arrow schema.
        """
        f = S3RandomAccessFile(
            self.client, bucket, key, chunk_bytes=self.chunk_bytes, footer_hint=self.footer_hint
        )
        meta = _footer_metadata(f)
        if self._schema is None:
            self._schema = meta.schema.to_arrow_schema()
        return f, meta

    def tables(self) -> Iterator[pa.Table]:
        """open/next/close: yields one Arrow table per surviving row group,
        filtered by the conjuncts its statistics leave open."""
        for bucket, key in self.files:
            f, meta = self._open(bucket, key)
            schema = meta.schema.to_arrow_schema()
            dictionary = [
                c for c in self._dictionary
                if c in schema.names and pa.types.is_string(schema.field(c).type)
            ]
            # pre_buffer stays off — its range coalescing merges the gaps
            # between column chunks and would re-download pruned-out columns.
            pf = pq.ParquetFile(f, metadata=meta, pre_buffer=False, read_dictionary=dictionary)
            names = {meta.schema.column(i).name: i for i in range(meta.num_columns)}
            columns = schema.names if self.columns is None else self.columns
            self.metrics.row_groups_total += meta.num_row_groups
            for rg in range(meta.num_row_groups):
                rg_meta = meta.row_group(rg)
                open_ = self._open_conjuncts(rg_meta, names, schema)
                if open_ is None:
                    continue
                self.metrics.row_groups_scanned += 1
                for c in columns:
                    if c in names:
                        cm = rg_meta.column(names[c])
                        self.metrics.compressed_bytes += cm.total_compressed_size
                        self.metrics.uncompressed_bytes += cm.total_uncompressed_size
                tbl = pf.read_row_group(rg, columns=columns, use_threads=False)
                self.metrics.rows_read += tbl.num_rows
                if open_:
                    pred = open_[0] if len(open_) == 1 else ex.And(open_)
                    tbl = tbl.filter(ex.over_rows(pred, tbl))
                yield tbl
            f.close()

    def empty_table(self) -> pa.Table:
        """Typed empty result. Reuses the footer already read by
        :meth:`tables` so a fully pruned worker stays metadata-only (one S3
        round-trip, the 100-200 ms category of Fig 11); otherwise reads the
        first file's footer the same way, under the same ``footer_hint``."""
        if self._schema is None:
            f, _ = self._open(*self.files[0])
            f.close()
        if self.columns is None:
            return self._schema.empty_table()
        return pa.schema([self._schema.field(c) for c in self.columns]).empty_table()
