"""Sorted-Parquet LINEITEM layout in the simulated S3 (paper §5.1)."""
import io
import itertools

import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro.core import dataset
from repro.s3.store import S3Client, S3Store


class TestPreparedLayout:
    def test_row_count_matches_sf(self, lineitem_ds):
        info, pdf = lineitem_ds
        assert info.n_rows == 60_000 == len(pdf)

    def test_file_count(self, lineitem_ds):
        info, _ = lineitem_ds
        assert info.n_files == 16
        assert len(info.files) == 16

    def test_sorted_by_shipdate(self, lineitem_ds):
        """'we sort the LINEITEM relation by l_shipdate in order to show the
        effect of selection push downs'."""
        _, pdf = lineitem_ds
        assert pdf["l_shipdate"].is_monotonic_increasing

    def test_files_cover_disjoint_date_ranges(self, store_root, lineitem_ds):
        info, _ = lineitem_ds
        client = S3Client(store_root)
        ranges = []
        for bucket, key in info.files:
            meta = pq.ParquetFile(io.BytesIO(client.get(bucket, key))).metadata
            cols = {meta.schema.column(i).name: i for i in range(meta.num_columns)}
            idx = cols["l_shipdate"]
            mins = [meta.row_group(r).column(idx).statistics.min for r in range(meta.num_row_groups)]
            maxs = [meta.row_group(r).column(idx).statistics.max for r in range(meta.num_row_groups)]
            ranges.append((min(mins), max(maxs)))
        for (_, hi), (lo, _) in zip(ranges, ranges[1:]):
            assert hi <= lo

    def test_row_groups_have_statistics(self, store_root, lineitem_ds):
        info, _ = lineitem_ds
        client = S3Client(store_root)
        meta = pq.ParquetFile(io.BytesIO(client.get(*info.files[0]))).metadata
        assert meta.num_row_groups == 2
        assert meta.row_group(0).column(0).statistics is not None

    def test_column_byte_accounting_sums_to_total(self, lineitem_ds):
        info, _ = lineitem_ds
        comp = sum(c for c, _ in info.column_bytes.values())
        # compressed column chunks are most of the file (rest is metadata)
        assert 0.7 * info.total_compressed_bytes < comp <= info.total_compressed_bytes

    def test_used_column_bytes_subset(self, lineitem_ds):
        info, _ = lineitem_ds
        comp, unc = info.used_column_bytes(["l_quantity", "l_discount"])
        assert 0 < comp < info.total_compressed_bytes
        assert comp < unc

    def test_round_trip_content(self, store_root, lineitem_ds):
        info, pdf = lineitem_ds
        client = S3Client(store_root)
        first = pq.read_table(io.BytesIO(client.get(*info.files[0]))).to_pandas()
        assert len(first) == 60_000 // 16
        assert first["l_shipdate"].max() <= pdf["l_shipdate"].iloc[len(first)]

    def test_bad_file_count_rejected(self, spark, store, lineitem_ds):
        from repro.core.dataset import prepare_lineitem

        with pytest.raises(ValueError):
            prepare_lineitem(spark, store, sf=0.0001, n_files=10**9)


def _serial_reference(pdf, n_files, row_groups_per_file, bucket="data", prefix="lineitem"):
    """The files and manifest of ``pdf``, encoded one file after another:
    ({key: file bytes}, DatasetInfo)."""
    n = len(pdf)
    files, col_bytes, total_c, total_u = {}, {}, 0, 0
    per_file = -(-n // n_files)
    for i in range(n_files):
        part = pdf.iloc[i * per_file : (i + 1) * per_file]
        if part.empty:
            break
        buf = io.BytesIO()
        pq.write_table(
            pa.Table.from_pandas(part, preserve_index=False),
            buf,
            compression="gzip",
            row_group_size=max(1, -(-len(part) // row_groups_per_file)),
            write_statistics=True,
        )
        data = buf.getvalue()
        files[f"{prefix}/part-{i:05d}.parquet"] = data
        meta = pq.ParquetFile(io.BytesIO(data)).metadata
        for rg in range(meta.num_row_groups):
            rgm = meta.row_group(rg)
            total_u += rgm.total_byte_size
            for ci in range(rgm.num_columns):
                cm = rgm.column(ci)
                c, u = col_bytes.get(meta.schema.column(ci).name, (0, 0))
                col_bytes[meta.schema.column(ci).name] = (
                    c + cm.total_compressed_size,
                    u + cm.total_uncompressed_size,
                )
        total_c += len(data)
    info = dataset.DatasetInfo(
        bucket=bucket,
        prefix=prefix,
        keys=list(files),
        n_rows=n,
        n_files=len(files),
        total_compressed_bytes=total_c,
        total_uncompressed_bytes=total_u,
        column_bytes=col_bytes,
    )
    return files, info


#: 9.5 rows' worth of a scale factor: the generator makes 9 rows
NINE_ROWS_SF = 9.5 / 6_000_000


class TestConcurrentEncoding:
    """The files encode concurrently, and store what the serial loop did."""

    @pytest.mark.parametrize(
        "sf,n_files,row_groups,stored",
        [(0.0005, 8, 2, 8), (0.001, 7, 3, 7), (NINE_ROWS_SF, 4, 2, 3)],
        ids=["even", "uneven", "trailing-file-empty"],
    )
    def test_same_files_and_manifest_as_serial(self, spark, tmp_path, sf, n_files, row_groups, stored):
        info, pdf = dataset.prepare_lineitem(
            spark, S3Store(tmp_path), sf=sf, n_files=n_files, row_groups_per_file=row_groups
        )
        files, want = _serial_reference(pdf, n_files, row_groups)
        assert info == want
        assert info.n_files == stored
        client = S3Client(str(tmp_path))
        assert client.list(info.bucket, info.prefix + "/") == list(files)
        for key, data in files.items():
            assert client.get(info.bucket, key) == data

    def test_failed_encode_stores_nothing(self, spark, tmp_path, monkeypatch):
        """Every file encodes before the first PUT: one failing file leaves
        the store without any object."""
        calls, write_table = itertools.count(), pq.write_table

        def flaky(table, where, **kwargs):
            if next(calls) == 1:
                raise OSError("injected fault")
            return write_table(table, where, **kwargs)

        monkeypatch.setattr(pq, "write_table", flaky)
        with pytest.raises(OSError, match="injected fault"):
            dataset.prepare_lineitem(spark, S3Store(tmp_path), sf=0.0005, n_files=8)
        assert not [f for f in tmp_path.rglob("*") if f.is_file()]
