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
tables (one per surviving row group) plus :class:`ScanMetrics` for the
simulation layer.
"""
from __future__ import annotations

import dataclasses
import io
from typing import Iterator, Sequence

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq

from ..core import expr as ex
from ..s3.store import S3Client
from .s3file import DEFAULT_CHUNK_BYTES, DEFAULT_FOOTER_HINT, S3RandomAccessFile


@dataclasses.dataclass
class ScanMetrics:
    """What a scan did — consumed by cost/latency models and tests."""

    files_scanned: int = 0  # files with at least one surviving row group
    row_groups_total: int = 0
    row_groups_scanned: int = 0
    rows_read: int = 0
    compressed_bytes: int = 0  # compressed size of row groups actually read
    uncompressed_bytes: int = 0

    @property
    def pruned_all(self) -> bool:
        return self.row_groups_scanned == 0


def _stats_interval(rg_meta, col_idx):
    """(min, max) statistics of a column chunk, or None when absent."""
    st = rg_meta.column(col_idx).statistics
    if st is None or not st.has_min_max:
        return None
    return st.min, st.max


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


def _normalise(value):
    """Make Parquet stats comparable with predicate literals (timestamps)."""
    if hasattr(value, "timestamp") and not isinstance(value, pd.Timestamp):
        return pd.Timestamp(value)
    return value


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
        self.metrics = ScanMetrics()
        self._schema: pa.Schema | None = None  # cached from the first footer
        self._intervals = []
        for p in self.predicate:
            iv = p.prune_interval()
            if iv is None:
                raise ValueError(f"scan predicate {p!r} is not prunable")
            self._intervals.append(iv)

    # -- pruning ------------------------------------------------------------
    def _keep_row_group(self, pf_meta, rg: int) -> bool:
        """A row group survives unless some conjunct proves it empty."""
        names = {pf_meta.schema.column(i).name: i for i in range(pf_meta.num_columns)}
        rg_meta = pf_meta.row_group(rg)
        for column, lo, hi in self._intervals:
            idx = names.get(column)
            if idx is None:
                continue
            stats = _stats_interval(rg_meta, idx)
            if stats is None:
                continue  # no statistics -> cannot prune (conservative)
            smin, smax = (_normalise(stats[0]), _normalise(stats[1]))
            if not ex.interval_overlaps(lo, hi, smin, smax):
                return False
        return True

    # -- operator interface ---------------------------------------------------
    def tables(self) -> Iterator[pa.Table]:
        """open/next/close: yields one Arrow table per surviving row group."""
        for bucket, key in self.files:
            f = S3RandomAccessFile(
                self.client, bucket, key, chunk_bytes=self.chunk_bytes, footer_hint=self.footer_hint
            )
            # Parse the footer from the prefetched tail window ourselves and
            # hand pyarrow the FileMetaData: metadata costs exactly one GET
            # ("the library loads this metadata with a single file read") and
            # pyarrow skips its own 64 KiB speculative tail read. pre_buffer
            # stays off — its range coalescing merges the gaps between column
            # chunks and would re-download pruned-out columns.
            meta_obj = _footer_metadata(f)
            pf = pq.ParquetFile(f, metadata=meta_obj, pre_buffer=False)
            if self._schema is None:
                self._schema = pf.schema_arrow
            meta = pf.metadata
            self.metrics.row_groups_total += meta.num_row_groups
            any_scanned = False
            for rg in range(meta.num_row_groups):
                if not self._keep_row_group(meta, rg):
                    continue
                any_scanned = True
                self.metrics.row_groups_scanned += 1
                rg_meta = meta.row_group(rg)
                if self.columns is None:
                    self.metrics.compressed_bytes += sum(
                        rg_meta.column(i).total_compressed_size
                        for i in range(rg_meta.num_columns)
                    )
                    self.metrics.uncompressed_bytes += rg_meta.total_byte_size
                else:
                    names = {
                        meta.schema.column(i).name: i for i in range(meta.num_columns)
                    }
                    for c in self.columns:
                        if c in names:
                            cm = rg_meta.column(names[c])
                            self.metrics.compressed_bytes += cm.total_compressed_size
                            self.metrics.uncompressed_bytes += cm.total_uncompressed_size
                tbl = pf.read_row_group(rg, columns=self.columns)
                self.metrics.rows_read += tbl.num_rows
                yield tbl
            if any_scanned:
                self.metrics.files_scanned += 1
            f.close()

    def read_all(self) -> pa.Table:
        """Materialise the whole scan as one Arrow table (empty-but-typed
        when everything was pruned)."""
        return pa.concat_tables(list(self.tables()) or [self.empty_table()])

    def empty_table(self) -> pa.Table:
        """Typed empty result. Reuses the footer already read by
        :meth:`tables` so a fully pruned worker stays metadata-only (one S3
        round-trip, the 100-200 ms category of Fig 11)."""
        schema = self._schema
        if schema is None:
            bucket, key = self.files[0]
            f = S3RandomAccessFile(self.client, bucket, key, chunk_bytes=self.chunk_bytes)
            schema = pq.ParquetFile(f).schema_arrow
            f.close()
        if self.columns is not None:
            schema = pa.schema([schema.field(c) for c in self.columns])
        return schema.empty_table()
