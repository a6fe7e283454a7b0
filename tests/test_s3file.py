"""Chunk-aligned ranged GETs over simulated S3 (the scan's request substrate)."""
import io
import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro.s3.store import S3Store
from repro.scan.parquet_scan import ParquetScanOperator
from repro.scan.s3file import fetch_chunks

SIZE = 300_000
CHUNK = 2**16  # 64 KiB chunks for the tests
FOOTER = 2**14  # 16 KiB footer window


class Blob:
    """One stored object and a file-sized image that fetches fill."""

    def __init__(self, store, bucket, key, data, *, chunk_bytes=CHUNK, limit=None):
        self.client = store.client()
        self.bucket, self.key, self.data = bucket, key, data
        self.image = np.zeros(len(data), np.uint8)
        self.held = set()
        self.chunk_bytes = chunk_bytes
        self.limit = len(data) if limit is None else limit

    def fetch(self, *ranges):
        fetch_chunks(
            self.client, self.bucket, self.key, self.image, ranges, self.held,
            chunk_bytes=self.chunk_bytes, limit=self.limit,
        )

    def holds(self, start, end) -> bool:
        """Whether the image holds the object's bytes ``[start, end)``."""
        return self.image[start:end].tobytes() == self.data[start:end]


@pytest.fixture()
def blob_store(tmp_path):
    store = S3Store(tmp_path)
    store.create_bucket("b")
    data = bytes(i % 251 for i in range(SIZE))
    store.client().put("b", "blob", data)
    return store, data


@pytest.fixture()
def blob(blob_store):
    """The object with no footer window held: chunks run to its end."""
    store, data = blob_store
    return Blob(store, "b", "blob", data)


@pytest.fixture()
def windowed(blob_store):
    """The object with its last ``FOOTER`` bytes held: chunks stop there."""
    store, data = blob_store
    return Blob(store, "b", "blob", data, limit=SIZE - FOOTER)


def _parquet(tmp_path, table, **write):
    store = S3Store(tmp_path)
    store.create_bucket("p")
    buf = io.BytesIO()
    pq.write_table(table, buf, **write)
    store.client().put("p", "t.parquet", buf.getvalue())
    return store, buf.getvalue()


class TestReads:
    def test_sequential_read_matches(self, blob):
        """Consecutive ranges inside one chunk: the second is already held."""
        blob.fetch((0, 100))
        blob.fetch((100, 200))
        assert blob.holds(0, 200)
        assert blob.client.ledger.gets == 1

    def test_read_all(self, blob):
        blob.fetch((0, SIZE))
        assert blob.image.tobytes() == blob.data

    @pytest.mark.parametrize("offset,n", [(0, 10), (65535, 2), (131072, 65536), (SIZE - 5, 100)])
    def test_read_at(self, blob, offset, n):
        """A range's bytes land at their own offsets in the image."""
        blob.fetch((offset, offset + n))
        assert blob.holds(offset, offset + n)

    def test_size_via_head(self, tmp_path):
        """The scan learns a file's size from one HEAD, and its image is
        that size."""
        store, data = _parquet(tmp_path, pa.table({"a": np.arange(100)}))
        client = store.client()
        image, _, _ = ParquetScanOperator(client, [("p", "t.parquet")], columns=None)._open("p", "t.parquet")
        assert len(image) == len(data)
        assert client.ledger.heads == 1

    def test_read_past_eof(self, blob):
        blob.fetch((SIZE + 10, SIZE + 15))
        assert blob.client.ledger.gets == 0


class TestRequestAccounting:
    def test_one_get_per_chunk(self, blob):
        blob.fetch((0, CHUNK))  # exactly one chunk
        assert blob.client.ledger.gets == 1
        blob.fetch((0, CHUNK))  # held: no new request
        assert blob.client.ledger.gets == 1

    def test_no_chunk_fetched_twice(self, blob):
        """Overlapping ranges, in one call or over several, GET each chunk
        they cover once."""
        blob.fetch((10, 2 * CHUNK + 5), (CHUNK + 1, CHUNK + 2))
        blob.fetch((CHUNK, 3 * CHUNK))
        assert blob.client.ledger.gets == 3
        assert blob.client.ledger.bytes_read == 3 * CHUNK
        assert blob.held == {0, 1, 2}

    def test_spanning_read_fetches_both_chunks(self, blob):
        blob.fetch((CHUNK - 10, CHUNK + 10))
        assert blob.client.ledger.gets == 2
        assert blob.holds(0, 2 * CHUNK)

    def test_footer_is_a_single_get(self, tmp_path):
        """Paper: 'The library loads this metadata with a single file read'.
        A scan that reads no column costs one HEAD and one GET per file."""
        store, _ = _parquet(tmp_path, pa.table({"a": np.arange(10_000), "b": np.arange(10_000.0)}))
        client = store.client()
        op = ParquetScanOperator(client, [("p", "t.parquet")], columns=[], footer_hint=FOOTER)
        assert sum(t.num_rows for t in op.tables()) == 10_000
        assert (client.ledger.heads, client.ledger.gets) == (1, 1)

    def test_cold_sequential_read_takes_one_get_per_chunk(self, blob):
        """Fig 7's request counts: with no footer window held, a whole-object
        read takes one GET per chunk, the last one short."""
        blob.fetch((0, SIZE))
        assert blob.client.ledger.gets == math.ceil(SIZE / CHUNK)
        assert blob.client.ledger.bytes_read == SIZE

    def test_chunk_gets_stop_at_the_held_footer_window(self, windowed):
        """A range that crosses into the footer window fetches only the
        chunks below it, and the last of them ends where the window begins."""
        limit = SIZE - FOOTER
        windowed.fetch((limit - 100, limit + 100))
        assert windowed.holds(limit - 100, limit)
        assert windowed.client.ledger.gets == 1
        assert windowed.client.ledger.bytes_read == limit % CHUNK
        windowed.fetch((limit, SIZE))  # wholly inside the window
        assert windowed.client.ledger.gets == 1

    def test_scan_reads_each_file_byte_at_most_once(self, tmp_path):
        """A Parquet scan whose last column chunk straddles the footer
        window downloads that chunk's tail only with the footer GET."""
        g = np.random.default_rng(5)
        t = pa.table({c: g.integers(0, 2**40, 5_000) for c in ("a", "b", "c")})
        store, data = _parquet(tmp_path, t, compression="none")
        meta = pq.read_metadata(io.BytesIO(data))
        last = meta.row_group(0).column(2)
        start = last.dictionary_page_offset or last.data_page_offset
        end = start + last.total_compressed_size
        footer_hint = len(data) - (start + end) // 2  # the window starts mid-chunk
        client = store.client()
        op = ParquetScanOperator(
            client, [("p", "t.parquet")], columns=t.column_names, chunk_bytes=1 << 12, footer_hint=footer_hint
        )
        got = pa.concat_tables(op.tables())
        assert got.equals(t)
        assert start < len(data) - footer_hint < end
        assert client.ledger.bytes_read <= len(data)

    def test_smaller_chunks_mean_more_requests(self, tmp_path):
        store = S3Store(tmp_path)
        store.create_bucket("c")
        data = b"\x01" * 2**20
        store.client().put("c", "x", data)
        counts = {}
        for chunk in (2**16, 2**18):
            b = Blob(store, "c", "x", data, chunk_bytes=chunk)
            b.fetch((0, len(data)))
            counts[chunk] = b.client.ledger.gets
        assert counts == {2**16: 16, 2**18: 4}

    def test_invalid_chunk_size(self, blob_store):
        """The scan rejects a chunk size below one byte when it is built,
        before the HEAD and footer GET of its first file."""
        store, _ = blob_store
        client = store.client()
        with pytest.raises(ValueError, match="chunk_bytes"):
            ParquetScanOperator(client, [("b", "blob")], columns=None, chunk_bytes=0)
        assert client.ledger.requests == 0
