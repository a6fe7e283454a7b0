"""S3 Parquet scan operator: correctness, push-downs, request accounting.

Pure pyarrow/pandas (no Spark): files are written straight into the store.
"""
import io

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro.core import expr as ex
from repro.s3.store import S3Store
from repro.scan.parquet_scan import ParquetScanOperator

N = 8000
N_FILES = 4
ROW_GROUPS = 2  # per file


def _frame() -> pd.DataFrame:
    g = np.random.default_rng(7)
    return pd.DataFrame(
        {
            "x": np.arange(N, dtype="int64"),  # sorted: prunable
            "y": g.random(N),
            "z": g.integers(0, 100, N).astype("float64"),
            "tag": g.choice(list("ABC"), N),
        }
    )


def _read_all(op: ParquetScanOperator) -> pa.Table:
    """The whole scan as one Arrow table (empty but typed when everything
    was pruned), as a worker assembles it."""
    return pa.concat_tables(list(op.tables()) or [op.empty_table()])


@pytest.fixture(scope="module")
def scan_env(tmp_path_factory):
    root = tmp_path_factory.mktemp("scanstore")
    store = S3Store(root)
    store.create_bucket("d")
    client = store.client()
    pdf = _frame()
    files = []
    per = N // N_FILES
    for i in range(N_FILES):
        part = pdf.iloc[i * per : (i + 1) * per]
        buf = io.BytesIO()
        pq.write_table(
            pa.Table.from_pandas(part, preserve_index=False),
            buf,
            compression="gzip",
            row_group_size=per // ROW_GROUPS,
        )
        key = f"f{i}.parquet"
        client.put("d", key, buf.getvalue())
        files.append(("d", key))
    return store, files, pdf


class TestCorrectness:
    def test_full_scan_matches_source(self, scan_env):
        store, files, pdf = scan_env
        op = ParquetScanOperator(store.client(), files)
        got = _read_all(op).to_pandas()
        pd.testing.assert_frame_equal(got.reset_index(drop=True), pdf.reset_index(drop=True))

    def test_projection_returns_only_columns(self, scan_env):
        store, files, pdf = scan_env
        op = ParquetScanOperator(store.client(), files, columns=["x", "z"])
        got = _read_all(op).to_pandas()
        assert list(got.columns) == ["x", "z"]
        pd.testing.assert_series_equal(got["z"], pdf["z"], check_index=False)

    def test_one_table_per_surviving_row_group(self, scan_env):
        store, files, _ = scan_env
        op = ParquetScanOperator(store.client(), files)
        tables = list(op.tables())
        assert len(tables) == N_FILES * ROW_GROUPS

    def test_predicate_does_not_drop_rows_only_groups(self, scan_env):
        """Pruning is row-group granular: surviving groups keep all rows."""
        store, files, pdf = scan_env
        pred = [(ex.col("x") < ex.lit(1))]
        op = ParquetScanOperator(store.client(), files, predicate=pred)
        got = _read_all(op).to_pandas()
        rg_rows = N // (N_FILES * ROW_GROUPS)
        assert len(got) == rg_rows
        assert got["x"].max() < rg_rows

    def test_empty_table_reads_one_footer_under_the_hint(self, tmp_path):
        """Without a scan before it, ``empty_table`` reads the first file's
        footer like ``tables`` does: one HEAD and one GET of the operator's
        ``footer_hint``, not a default 64 KiB tail."""
        store = S3Store(tmp_path)
        store.create_bucket("d")
        g = np.random.default_rng(3)
        buf = io.BytesIO()
        pq.write_table(pa.table({"y": g.random(20_000), "z": g.random(20_000)}), buf)
        assert len(buf.getvalue()) > 1 << 16
        store.client().put("d", "big.parquet", buf.getvalue())
        client = store.client()
        op = ParquetScanOperator(client, [("d", "big.parquet")], columns=["z"], footer_hint=1 << 14)
        out = op.empty_table()
        assert out.num_rows == 0 and out.schema.names == ["z"]
        assert (client.ledger.heads, client.ledger.gets) == (1, 1)
        assert client.ledger.bytes_read <= 1 << 14

    def test_empty_table_has_schema(self, scan_env):
        store, files, _ = scan_env
        pred = [(ex.col("x") > ex.lit(10 * N))]
        op = ParquetScanOperator(store.client(), files, columns=["y"], predicate=pred)
        out = _read_all(op)
        assert out.num_rows == 0
        assert out.schema.names == ["y"]


class TestPruning:
    @pytest.mark.parametrize(
        "cutoff,expected_groups",
        [(N // 8 - 1, 1), (N // 2 - 1, 4), (N - 1, 8)],
    )
    def test_rowgroups_scanned_tracks_selectivity(self, scan_env, cutoff, expected_groups):
        store, files, _ = scan_env
        op = ParquetScanOperator(
            store.client(), files, predicate=[(ex.col("x") <= ex.lit(cutoff))]
        )
        _read_all(op)
        assert op.metrics.row_groups_scanned == expected_groups
        assert op.metrics.row_groups_total == N_FILES * ROW_GROUPS

    def test_fully_pruned_file_costs_one_metadata_get(self, scan_env):
        """Fig 11: pruned workers 'load the metadata ... (inducing one
        round-trip to S3) ... and immediately return'."""
        store, files, _ = scan_env
        client = store.client()
        op = ParquetScanOperator(
            client, files[-1:], predicate=[(ex.col("x") < ex.lit(0))]
        )
        out = _read_all(op)
        assert out.num_rows == 0
        assert op.metrics.pruned_all
        # HEAD for the size + the single footer GET; no data chunks
        assert client.ledger.gets == 1

    def test_unprunable_conjunct_rejected(self, scan_env):
        store, files, _ = scan_env
        with pytest.raises(ValueError):
            ParquetScanOperator(
                store.client(), files, predicate=[(ex.col("x") * 2 <= ex.lit(5))]
            )

    def test_predicate_on_statless_column_keeps_groups(self, scan_env):
        store, files, _ = scan_env
        op = ParquetScanOperator(
            store.client(), files, predicate=[(ex.col("nosuchcol") <= ex.lit(5))]
        )
        _read_all(op)
        assert op.metrics.row_groups_scanned == N_FILES * ROW_GROUPS


class TestRequestAccounting:
    # small chunks/footer so the test files (~tens of KB) span many requests
    IO = dict(chunk_bytes=2**12, footer_hint=2**12)

    def test_projection_reduces_bytes_read(self, scan_env):
        store, files, _ = scan_env
        c_all, c_two = store.client(), store.client()
        _read_all(ParquetScanOperator(c_all, files, **self.IO))
        _read_all(ParquetScanOperator(c_two, files, columns=["x"], **self.IO))
        assert c_two.ledger.bytes_read < c_all.ledger.bytes_read
        assert c_two.ledger.gets < c_all.ledger.gets

    def test_pruning_reduces_requests(self, scan_env):
        store, files, _ = scan_env
        c_all, c_pruned = store.client(), store.client()
        _read_all(ParquetScanOperator(c_all, files, **self.IO))
        _read_all(
            ParquetScanOperator(c_pruned, files, predicate=[(ex.col("x") < ex.lit(1))], **self.IO)
        )
        assert c_pruned.ledger.gets < c_all.ledger.gets
        assert c_pruned.ledger.bytes_read < c_all.ledger.bytes_read

    def test_metrics_byte_accounting_positive(self, scan_env):
        store, files, _ = scan_env
        op = ParquetScanOperator(store.client(), files, columns=["x", "y"])
        _read_all(op)
        m = op.metrics
        assert m.rows_read == N
        assert 0 < m.compressed_bytes <= m.uncompressed_bytes * 1.1

    def test_smaller_chunks_more_requests(self, scan_env):
        store, files, _ = scan_env
        counts = {}
        for chunk in (2**12, 2**14):
            c = store.client()
            _read_all(ParquetScanOperator(c, files, chunk_bytes=chunk, footer_hint=2**12))
            counts[chunk] = c.ledger.gets
        assert counts[2**12] > counts[2**14]
