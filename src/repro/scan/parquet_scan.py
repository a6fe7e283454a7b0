"""S3 Parquet scan operator (paper §4.3.2, Fig 8).

Reads one or more Parquet files from the simulated S3 and decides every
request itself, implementing the push-downs the operator design relies on:

* **metadata with a single file read** — per file, one HEAD and one GET of
  its last ``footer_hint`` bytes, from which the footer (the Thrift metadata
  with the column-chunk offsets) is parsed; a footer longer than that window
  fetches its missing head by the chunk rule below;
* **selection push-down** — the scan takes the query's residual predicate.
  A row group whose min/max statistics miss the prune interval
  ``(column, lo, hi)`` of one of its conjuncts is skipped entirely (no
  data GETs; paper §5.3 / Fig 11). Each surviving row group is filtered by
  the conjuncts its statistics leave open, and not at all when its
  statistics prove every conjunct;
* **projection push-down** — only the column chunks of ``columns`` are
  downloaded; none when the query reads no column, every one when
  ``columns`` is ``None``. Before a surviving row group is decoded, its
  column chunks' byte ranges are fetched with one ranged GET per
  ``chunk_bytes``-aligned chunk not fetched yet (Fig 7), each ending where
  the footer window begins (:func:`~repro.scan.s3file.fetch_chunks`).

Every fetched byte is written into an image of the file, ``np.zeros`` of
its size, whose zero pages the OS maps only once they are written, so only
fetched pages become resident. pyarrow decodes the row groups from that
image with the parsed footer, so it reads only bytes the scan fetched.

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

import functools
from typing import Callable, Iterator, Sequence

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from ..core import expr as ex
from ..core.metrics import WorkerMetrics
from ..s3.store import S3Client
from .s3file import DEFAULT_CHUNK_BYTES, DEFAULT_FOOTER_HINT, fetch_chunks


def _column_range(cm) -> tuple[int, int]:
    """A column chunk's bytes ``[start, end)``: from its dictionary page when
    it has one ahead of its data pages, else from its first data page."""
    start = cm.data_page_offset
    if cm.dictionary_page_offset and cm.dictionary_page_offset < start:
        start = cm.dictionary_page_offset
    return start, start + cm.total_compressed_size


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
        residual: ex.Pred | None = None,
        dictionary: Sequence[str] = (),
        chunk_bytes: int = DEFAULT_CHUNK_BYTES,
        footer_hint: int = DEFAULT_FOOTER_HINT,
    ):
        # checked before any request: a footer window holds at least the
        # footer's length and magic
        if chunk_bytes < 1:
            raise ValueError(f"chunk_bytes must be >= 1, not {chunk_bytes}")
        if footer_hint < 8:
            raise ValueError(f"footer_hint must be >= 8, not {footer_hint}")
        self.client = client
        self.files = list(files)
        self.columns = None if columns is None else list(columns)
        self.chunk_bytes = chunk_bytes
        self.footer_hint = footer_hint
        self.metrics = WorkerMetrics(worker_id=-1)  # a worker sets its own
        self._schema: pa.Schema | None = None  # cached from the first footer
        self._dictionary = list(dictionary)
        # each residual conjunct with its prune interval (column, lo, hi),
        # which is None unless it compares a bare column with a literal
        self._conjuncts = [
            (p, p.prune_interval()) for p in ([] if residual is None else residual.conjuncts())
        ]

    # -- pruning and proofs ---------------------------------------------------
    def _open_conjuncts(self, rg_meta, names: dict, schema: pa.Schema) -> list | None:
        """Prune, prove or filter one row group in one pass over the
        conjuncts: None when its statistics miss some conjunct's prune
        interval, else the conjuncts they leave open. A conjunct is proven
        when its column is integer, date or timestamp, the chunk has min/max
        and no null, and the conjunct's own kernel holds on both the min and
        the max: a comparison with a literal is monotone, so it then holds
        on every row."""
        open_ = []
        for p, iv in self._conjuncts:
            st = None if iv is None else _statistics(rg_meta, names, iv[0])
            if st is not None:  # no statistics -> neither prune nor prove
                column, lo, hi = iv
                bounds = _min_max(st, schema, column)
                if not ex.interval_overlaps(lo, hi, *bounds[column]):
                    return None
                if (
                    st.has_null_count
                    and st.null_count == 0
                    and _provable(schema.field(column).type)
                    and pc.all(p.eval(bounds)).as_py()
                ):
                    continue  # proven
            open_.append(p)
        return open_

    # -- operator interface ---------------------------------------------------
    def _open(self, bucket: str, key: str) -> tuple[np.ndarray, Callable, "pq.FileMetaData"]:
        """HEAD one file, GET its last ``footer_hint`` bytes and parse its
        footer. Returns the file's image, a function that fetches byte
        ranges into it, and the footer.

        Layout: ... | thrift metadata (mlen bytes) | mlen (4 LE) | "PAR1".
        The image is ``np.zeros`` of the file's size, not ``bytearray``
        (which writes every page): only the pages that fetched bytes are
        written into become resident. Handing pyarrow the parsed footer makes
        metadata cost exactly one GET ("the library loads this metadata with
        a single file read") when it fits the window. The first footer read
        also fixes the scan's Arrow schema.
        """
        size = self.client.head(bucket, key)
        limit = max(0, size - self.footer_hint)  # where the footer window begins
        image = np.zeros(size, np.uint8)
        fetch = functools.partial(
            fetch_chunks, self.client, bucket, key, image, held=set(), chunk_bytes=self.chunk_bytes, limit=limit
        )
        window = self.client.get(bucket, key, offset=limit)
        meta_start = size - 8 - int.from_bytes(window[-8:-4], "little")
        if len(window) < 8 or window[-4:] != b"PAR1" or meta_start < 0:
            raise ValueError(f"{bucket}/{key} is not a Parquet file (bad magic or footer length)")
        image[limit:] = np.frombuffer(window, np.uint8)
        fetch([(meta_start, limit)])  # a footer longer than the window
        meta = pq.read_metadata(pa.BufferReader(pa.py_buffer(image[meta_start:])))
        if self._schema is None:
            self._schema = meta.schema.to_arrow_schema()
        return image, fetch, meta

    def tables(self) -> Iterator[pa.Table]:
        """open/next/close: yields one Arrow table per surviving row group,
        filtered by the conjuncts its statistics leave open. A row group's
        selected column chunks are fetched before it is decoded."""
        for bucket, key in self.files:
            image, fetch, meta = self._open(bucket, key)
            schema = meta.schema.to_arrow_schema()
            dictionary = [
                c for c in self._dictionary
                if c in schema.names and pa.types.is_string(schema.field(c).type)
            ]
            # pre_buffer stays off: its range coalescing would also read the
            # gaps between the fetched column chunks.
            pf = pq.ParquetFile(
                pa.BufferReader(pa.py_buffer(image)),
                metadata=meta,
                pre_buffer=False,
                read_dictionary=dictionary,
            )
            names = {meta.schema.column(i).name: i for i in range(meta.num_columns)}
            columns = schema.names if self.columns is None else self.columns
            self.metrics.row_groups_total += meta.num_row_groups
            for rg in range(meta.num_row_groups):
                rg_meta = meta.row_group(rg)
                open_ = self._open_conjuncts(rg_meta, names, schema)
                if open_ is None:
                    continue
                self.metrics.row_groups_scanned += 1
                ranges = []
                for c in columns:
                    if c in names:
                        cm = rg_meta.column(names[c])
                        self.metrics.compressed_bytes += cm.total_compressed_size
                        self.metrics.uncompressed_bytes += cm.total_uncompressed_size
                        ranges.append(_column_range(cm))
                fetch(ranges)
                tbl = pf.read_row_group(rg, columns=columns, use_threads=False)
                self.metrics.rows_read += tbl.num_rows
                if open_:
                    pred = open_[0] if len(open_) == 1 else ex.And(open_)
                    tbl = tbl.filter(ex.over_rows(pred, tbl))
                yield tbl

    def empty_table(self) -> pa.Table:
        """Typed empty result. Reuses the footer already read by
        :meth:`tables` so a fully pruned worker stays metadata-only (one S3
        round-trip, the 100-200 ms category of Fig 11); otherwise reads the
        first file's footer the same way, under the same ``footer_hint``."""
        if self._schema is None:
            self._open(*self.files[0])
        if self.columns is None:
            return self._schema.empty_table()
        return pa.schema([self._schema.field(c) for c in self.columns]).empty_table()
