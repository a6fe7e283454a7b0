"""Chunked random-access file over simulated S3 (scan operator substrate)."""
import io
import math

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro.s3.store import S3Store
from repro.scan.parquet_scan import ParquetScanOperator
from repro.scan.s3file import S3RandomAccessFile

SIZE = 300_000
CHUNK = 2**16  # 64 KiB chunks for the tests
FOOTER = 2**14  # 16 KiB footer window


@pytest.fixture()
def blobfile(tmp_path):
    store = S3Store(tmp_path)
    store.create_bucket("b")
    c = store.client()
    data = bytes(i % 251 for i in range(SIZE))
    c.put("b", "blob", data)
    client = store.client()
    f = S3RandomAccessFile(client, "b", "blob", chunk_bytes=CHUNK, footer_hint=FOOTER)
    return f, client, data


class TestReads:
    def test_sequential_read_matches(self, blobfile):
        f, _, data = blobfile
        assert f.read(100) == data[:100]
        assert f.read(100) == data[100:200]

    def test_read_all(self, blobfile):
        f, _, data = blobfile
        assert f.read() == data

    @pytest.mark.parametrize("offset,n", [(0, 10), (65535, 2), (131072, 65536), (SIZE - 5, 100)])
    def test_read_at(self, blobfile, offset, n):
        f, _, data = blobfile
        assert f.read_at(offset, n) == data[offset : offset + n]

    def test_seek_whence(self, blobfile):
        f, _, data = blobfile
        f.seek(-10, 2)
        assert f.read(10) == data[-10:]
        f.seek(5)
        f.seek(5, 1)
        assert f.tell() == 10

    def test_size_via_head(self, blobfile):
        f, client, _ = blobfile
        assert f.size() == SIZE
        assert client.ledger.heads == 1

    def test_read_past_eof(self, blobfile):
        f, _, _ = blobfile
        assert f.read_at(SIZE + 10, 5) == b""

    def test_negative_seek_rejected(self, blobfile):
        f, _, _ = blobfile
        with pytest.raises(ValueError):
            f.seek(-1)


class TestRequestAccounting:
    def test_one_get_per_chunk(self, blobfile):
        f, client, _ = blobfile
        f.read_at(0, CHUNK)  # exactly one chunk
        assert client.ledger.gets == 1
        f.read_at(0, CHUNK)  # cached: no new request
        assert client.ledger.gets == 1

    def test_spanning_read_fetches_both_chunks(self, blobfile):
        f, client, _ = blobfile
        f.read_at(CHUNK - 10, 20)
        assert client.ledger.gets == 2

    def test_footer_is_a_single_get(self, blobfile):
        """Paper: 'The library loads this metadata with a single file read'."""
        f, client, _ = blobfile
        f.seek(-100, 2)
        f.read(100)
        f.read_at(SIZE - FOOTER + 1, 50)  # anywhere in the footer window
        assert client.ledger.gets == 1

    def test_full_scan_requests_bounded_by_chunks(self, blobfile):
        f, client, data = blobfile
        assert f.read() == data
        assert client.ledger.gets <= math.ceil((SIZE - FOOTER) / CHUNK) + 1  # + footer

    def test_cold_sequential_read_takes_one_get_per_chunk(self, blobfile):
        """Fig 7's request counts: with the footer window not yet held, a
        read takes one GET per chunk, also for the chunks the window covers."""
        f, client, data = blobfile
        assert f.read() == data
        assert client.ledger.gets == math.ceil(SIZE / CHUNK)

    def test_chunk_gets_stop_at_the_held_footer_window(self, blobfile):
        f, client, data = blobfile
        f.read_at(SIZE - 8, 8)  # the footer GET
        assert f.read_at(SIZE - FOOTER - 100, 200) == data[SIZE - FOOTER - 100 : SIZE - FOOTER + 100]
        assert client.ledger.gets == 2
        assert client.ledger.bytes_read == FOOTER + (SIZE - FOOTER) % CHUNK

    def test_scan_reads_each_file_byte_at_most_once(self, tmp_path):
        """A Parquet scan whose last column chunk straddles the footer
        window downloads that chunk's tail only with the footer GET."""
        g = np.random.default_rng(5)
        t = pa.table({c: g.integers(0, 2**40, 5_000) for c in ("a", "b", "c")})
        buf = io.BytesIO()
        pq.write_table(t, buf, compression="none")
        data = buf.getvalue()
        store = S3Store(tmp_path)
        store.create_bucket("p")
        store.client().put("p", "t.parquet", data)
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
        store.client().put("c", "x", b"\x01" * 2**20)
        counts = {}
        for chunk in (2**16, 2**18):
            cl = store.client()
            f = S3RandomAccessFile(cl, "c", "x", chunk_bytes=chunk, footer_hint=0)
            f.read()
            counts[chunk] = cl.ledger.gets
        assert counts[2**16] == pytest.approx(4 * counts[2**18], abs=2)

    def test_invalid_chunk_size(self, tmp_path):
        store = S3Store(tmp_path)
        store.create_bucket("c")
        store.client().put("c", "x", b"abc")
        with pytest.raises(ValueError):
            S3RandomAccessFile(store.client(), "c", "x", chunk_bytes=0)
