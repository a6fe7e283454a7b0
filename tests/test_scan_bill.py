"""The scan's bill in closed form, and the bytes pyarrow decodes.

The bill rule, per file: one HEAD; one GET of the last ``footer_hint``
bytes; if the footer is longer than that window, the chunks its head covers;
then, for each row group that survives pruning, one GET per
``chunk_bytes``-aligned chunk that its selected column chunks cover and no
earlier GET fetched, each ending where the footer window begins. A column
chunk starts at its dictionary page when that lies ahead of its first data
page. The bill is computed here from ``pq.read_metadata`` of the stored
bytes and the row-group statistics, with none of the scan's code, and each
worker's ledger must equal it exactly.
"""
import datetime
import io

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro.core import compile as qc
from repro.core import expr as ex
from repro.core import queries
from repro.core.frontend import Lambada
from repro.core.plan import AggSpec
from repro.core.worker import execute_fragment
from repro.s3.store import S3Client, S3Store

_D = datetime.datetime


def _keeps(stats: dict, column: str, lo=None, hi=None) -> bool:
    """Whether a row group's ``[min, max]`` of ``column`` meets ``[lo, hi]``."""
    mn, mx = stats[column]
    return (lo is None or mx >= lo) and (hi is None or mn <= hi)


#: query -> (build, whether a row group's statistics keep it), the second
#: from the query's literal bounds, as closed intervals
CASES = {
    "q1": (queries.q1, lambda s: _keeps(s, "l_shipdate", hi=_D(1998, 9, 2))),
    "q6": (
        queries.q6,
        lambda s: _keeps(s, "l_shipdate", lo=_D(1994, 1, 1), hi=_D(1995, 1, 1))
        and _keeps(s, "l_discount", 0.05, 0.07)
        and _keeps(s, "l_quantity", hi=24),
    ),
    "count": (lambda d: d.aggregate([], [AggSpec("n", "count")]), lambda s: True),
    "all-columns": (lambda d: d, lambda s: True),
}


def expected_bill(data: bytes, columns, keeps, *, chunk_bytes: int, footer_hint: int) -> dict:
    """``gets``, ``heads``, ``bytes_read`` and ``row_groups_scanned`` of one
    file's scan under the bill rule; ``columns`` None reads every column."""
    size = len(data)
    meta = pq.read_metadata(io.BytesIO(data))
    mlen = int.from_bytes(data[-8:-4], "little")
    assert mlen == meta.serialized_size
    limit = max(0, size - footer_hint)
    bill = {"gets": 1, "heads": 1, "bytes_read": size - limit, "row_groups_scanned": 0}
    held = set()

    def fetch(ranges):
        wanted = set()
        for start, end in ranges:
            if start < min(end, limit):
                wanted |= set(range(start // chunk_bytes, -(-min(end, limit) // chunk_bytes)))
        for c in sorted(wanted - held):
            bill["gets"] += 1
            bill["bytes_read"] += min(chunk_bytes, limit - c * chunk_bytes)
        held.update(wanted)

    fetch([(size - 8 - mlen, limit)])
    names = [meta.schema.column(i).name for i in range(meta.num_columns)]
    for r in range(meta.num_row_groups):
        rg = meta.row_group(r)
        stats = {
            n: (rg.column(i).statistics.min, rg.column(i).statistics.max)
            for i, n in enumerate(names)
        }
        if not keeps(stats):
            continue
        bill["row_groups_scanned"] += 1
        ranges = []
        for i, n in enumerate(names):
            if columns is not None and n not in columns:
                continue
            cm = rg.column(i)
            start = cm.data_page_offset
            if cm.has_dictionary_page and 0 < cm.dictionary_page_offset < start:
                start = cm.dictionary_page_offset
            ranges.append((start, start + cm.total_compressed_size))
        fetch(ranges)
    return bill


class TestExactBill:
    @pytest.mark.parametrize(
        "query,chunk_bytes,footer_hint",
        [
            ("q1", 1 << 12, 1 << 14),  # the benchmark's setting
            ("q1", 1 << 12, 1 << 10),  # the footer is longer than the window
            ("q6", 1 << 12, 1 << 14),
            ("q6", 1 << 16, 1 << 12),
            ("count", 1 << 12, 1 << 14),
            ("count", 1 << 12, 1 << 10),
            ("all-columns", 1 << 16, 1 << 12),
            ("all-columns", 1 << 12, 1 << 10),
        ],
    )
    def test_ledger_equals_the_bill_rule(self, store_root, lineitem_ds, query, chunk_bytes, footer_hint):
        info, _ = lineitem_ds
        build, keeps = CASES[query]
        phys = qc.compile_plan(build(Lambada(store_root).from_files(info.files)).plan)
        reader = S3Client(store_root)
        footers_longer = 0
        for w, (bucket, key) in enumerate(phys.files):
            data = reader.get(bucket, key)
            footers_longer += int.from_bytes(data[-8:-4], "little") + 8 > footer_hint
            want = expected_bill(
                data, phys.scan_columns, keeps, chunk_bytes=chunk_bytes, footer_hint=footer_hint
            )
            _, m = execute_fragment(
                store_root, w, [(bucket, key)], phys, chunk_bytes=chunk_bytes, footer_hint=footer_hint
            )
            got = {k: m.ledger[k] for k in ("gets", "heads", "bytes_read")}
            assert got | {"row_groups_scanned": m.row_groups_scanned} == want, key
            assert m.ledger["puts"] == m.ledger["lists"] == m.ledger["deletes"] == 0
        if footer_hint == 1 << 10:
            assert footers_longer == len(phys.files)


class _Recorder(io.RawIOBase):
    """A buffer pyarrow reads, as a file over the same memory that checks
    each read against the byte ranges the store has served for its key so
    far (the image fills as the scan fetches, so nothing is copied). The
    buffer is a tail of the file's image, which starts at ``base``."""

    def __init__(self, buf, base: int, fetched: list, bad: list, reads: list):
        super().__init__()
        self.view, self.pos, self.base = memoryview(buf), 0, base
        self.fetched, self.bad, self.reads = fetched, bad, reads

    def readable(self):
        return True

    def seekable(self):
        return True

    def seek(self, offset, whence=io.SEEK_SET):
        self.pos = (offset, self.pos + offset, len(self.view) + offset)[whence]
        return self.pos

    def tell(self):
        return self.pos

    def read(self, n=-1):
        start = self.pos
        end = len(self.view) if n is None or n < 0 else min(len(self.view), start + n)
        self.pos = max(start, end)
        at = (self.base + start, end - start)  # in the file
        self.reads.append(at)
        covered = at[0]
        for s, e in sorted(self.fetched):
            if s <= covered < e:
                covered = e
        if covered < at[0] + at[1]:
            self.bad.append(at)
        return self.view[start:end].tobytes()


@pytest.fixture()
def checked_reads(monkeypatch):
    """Every read pyarrow makes of a scan's image: ``(reads, bad)``, where
    ``bad`` lists the reads that leave the ranges fetched for that file
    before the read, footer window included."""
    fetched, sizes, reads, bad, current = {}, {}, [], [], []
    get, head = S3Client.get, S3Client.head

    def spy_head(self, bucket, key):
        sizes[bucket, key] = head(self, bucket, key)
        return sizes[bucket, key]

    def spy_get(self, bucket, key, *, offset=0, length=None):
        data = get(self, bucket, key, offset=offset, length=length)
        fetched.setdefault((bucket, key), []).append((offset, offset + len(data)))
        current[:] = [(bucket, key)]
        return data

    def recorder(buf):
        key = current[0]
        return _Recorder(buf, sizes[key] - len(buf), fetched[key], bad, reads)

    monkeypatch.setattr(S3Client, "get", spy_get)
    monkeypatch.setattr(S3Client, "head", spy_head)
    monkeypatch.setattr(pa, "BufferReader", recorder)
    return reads, bad


class TestEveryReadWasFetched:
    @pytest.mark.parametrize("query", ["q1", "q6"])
    def test_lineitem(self, store_root, lineitem_ds, checked_reads, query):
        info, _ = lineitem_ds
        reads, bad = checked_reads
        phys = qc.compile_plan(CASES[query][0](Lambada(store_root).from_files(info.files)).plan)
        for w, f in enumerate(phys.files):
            execute_fragment(store_root, w, [f], phys, chunk_bytes=1 << 12, footer_hint=1 << 12)
        assert reads and bad == []

    def test_uncompressed(self, tmp_path, checked_reads):
        """Without compression or dictionaries, a page whose header was
        fetched but whose values were not would decode the image's zeros
        without an error."""
        reads, bad = checked_reads
        g = np.random.default_rng(3)
        t = pa.table({c: g.integers(0, 2**40, 6_000) for c in ("a", "b", "c", "d")})
        store = S3Store(tmp_path)
        store.create_bucket("p")
        buf = io.BytesIO()
        pq.write_table(t, buf, compression="none", use_dictionary=False, row_group_size=2_000)
        store.client().put("p", "t.parquet", buf.getvalue())
        files = [("p", "t.parquet")]
        q = Lambada(str(tmp_path)).from_files(files).filter(ex.col("a") >= 0).map(s=ex.col("b") + ex.col("d"))
        rows, m = execute_fragment(
            str(tmp_path), 0, files, qc.compile_plan(q.plan), chunk_bytes=1 << 10, footer_hint=1 << 10
        )
        assert reads and bad == []
        assert rows.column("s").to_pylist() == pa.compute.add(t["b"], t["d"]).to_pylist()
        assert m.row_groups_scanned == 3
