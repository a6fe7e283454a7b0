"""S3 Parquet scan operator (paper §4.3.2, Fig 8).

Reads one or more Parquet files from the simulated S3 through
:class:`S3RandomAccessFile`, implementing the push-downs the operator design
relies on:

* **metadata with a single file read** — the footer prefetch in the file
  object serves the Thrift footer and column-chunk offsets with one GET;
* **selection push-down** — row groups whose min/max statistics cannot
  satisfy the prunable predicate conjuncts are skipped entirely (no data
  GETs; paper §5.3 / Fig 11);
* **projection push-down** — only the column chunks of projected attributes
  are downloaded (ranged GETs, chunk-aligned per Fig 7).

The operator exposes the open/next/close interface as an iterator of Arrow
tables (one per surviving row group). It counts row groups, rows and bytes
into ``metrics``, a :class:`~repro.core.metrics.WorkerMetrics`; a worker
points it at its own record, so each worker has one metrics record.
"""
from __future__ import annotations

import io
from typing import Iterator, Sequence

import pyarrow as pa
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


class ParquetScanOperator:
    """Scan ``files`` (list of ``(bucket, key)``) with push-downs applied."""

    def __init__(
        self,
        client: S3Client,
        files: Sequence[tuple[str, str]],
        *,
        columns: Sequence[str] | None = None,
        predicate: Sequence[ex.Pred] | None = None,
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        footer_hint: int = DEFAULT_FOOTER_HINT,
    ):
        self.client = client
        self.files = list(files)
        self.columns = list(columns) if columns is not None else None
        self.predicate = list(predicate or [])
        self.chunk_bytes = chunk_bytes
        self.footer_hint = footer_hint
        self.metrics = WorkerMetrics(worker_id=-1)  # a worker sets its own
        self._schema: pa.Schema | None = None  # cached from the first footer
        self._intervals = []
        for p in self.predicate:
            iv = p.prune_interval()
            if iv is None:
                raise ValueError(f"scan predicate {p!r} is not prunable")
            self._intervals.append(iv)

    # -- pruning ------------------------------------------------------------
    def _keep_row_group(self, rg_meta, names: dict, schema: pa.Schema) -> bool:
        """A row group survives unless some conjunct proves it empty.
        ``names`` maps the file's column names to their indices. The
        statistics become Arrow values of the column's type in ``schema``,
        so they meet the literal as the column's rows do in the residual
        filter."""
        for column, lo, hi in self._intervals:
            idx = names.get(column)
            if idx is None:
                continue
            st = rg_meta.column(idx).statistics
            if st is None or not st.has_min_max:
                continue  # no statistics -> cannot prune (conservative)
            typ = schema.field(column).type
            if not ex.interval_overlaps(lo, hi, pa.scalar(st.min, typ), pa.scalar(st.max, typ)):
                return False
        return True

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
        """open/next/close: yields one Arrow table per surviving row group."""
        for bucket, key in self.files:
            f, meta = self._open(bucket, key)
            # pre_buffer stays off — its range coalescing merges the gaps
            # between column chunks and would re-download pruned-out columns.
            pf = pq.ParquetFile(f, metadata=meta, pre_buffer=False)
            names = {meta.schema.column(i).name: i for i in range(meta.num_columns)}
            schema = meta.schema.to_arrow_schema()
            self.metrics.row_groups_total += meta.num_row_groups
            for rg in range(meta.num_row_groups):
                rg_meta = meta.row_group(rg)
                if not self._keep_row_group(rg_meta, names, schema):
                    continue
                self.metrics.row_groups_scanned += 1
                if self.columns is None:
                    self.metrics.compressed_bytes += sum(
                        rg_meta.column(i).total_compressed_size
                        for i in range(rg_meta.num_columns)
                    )
                    self.metrics.uncompressed_bytes += rg_meta.total_byte_size
                else:
                    for c in self.columns:
                        if c in names:
                            cm = rg_meta.column(names[c])
                            self.metrics.compressed_bytes += cm.total_compressed_size
                            self.metrics.uncompressed_bytes += cm.total_uncompressed_size
                tbl = pf.read_row_group(rg, columns=self.columns)
                self.metrics.rows_read += tbl.num_rows
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
        schema = self._schema
        if self.columns is not None:
            schema = pa.schema([schema.field(c) for c in self.columns])
        return schema.empty_table()
