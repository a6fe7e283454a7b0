"""S3 Parquet scan operator: correctness, push-downs, request accounting.

Pure pyarrow/pandas (no Spark): files are written straight into the store.
"""
import datetime
import io

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro import oracle
from repro.core import compile as qc
from repro.core import expr as ex
from repro.core.frontend import Lambada
from repro.core.plan import AggSpec
from repro.core.worker import execute_fragment, run_pipeline
from repro.s3.store import S3Store
from repro.scan.parquet_scan import ParquetScanOperator

N = 8000
N_FILES = 4
ROW_GROUPS = 2  # per file
COLUMNS = ["x", "y", "z", "tag"]  # every column of the files


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


def assert_duckdb_rows(got: pa.Table, pdf: pd.DataFrame, where: str) -> None:
    """``got`` holds exactly DuckDB's rows of ``pdf`` under ``where``, in
    ``got``'s columns."""
    con = duckdb.connect()
    try:
        con.register("t", pdf)
        want = con.execute(f"SELECT {', '.join(got.column_names)} FROM t WHERE {where}").fetchdf()
    finally:
        con.close()
    pd.testing.assert_frame_equal(oracle._canon(got.to_pandas()), oracle._canon(want))


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
        op = ParquetScanOperator(store.client(), files, columns=COLUMNS)
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
        op = ParquetScanOperator(store.client(), files, columns=COLUMNS)
        tables = list(op.tables())
        assert len(tables) == N_FILES * ROW_GROUPS

    def test_predicate_does_not_drop_rows_only_groups(self, scan_env):
        """Pruning is row-group granular: the surviving group is read
        whole, and the residual then keeps DuckDB's rows of it."""
        store, files, pdf = scan_env
        op = ParquetScanOperator(store.client(), files, columns=COLUMNS, residual=ex.col("x") <= 1)
        got = _read_all(op)
        assert op.metrics.row_groups_scanned == 1
        assert op.metrics.rows_read == N // (N_FILES * ROW_GROUPS)
        assert_duckdb_rows(got, pdf, "x <= 1")

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

    def test_string_keys_read_as_dictionaries(self, scan_env, monkeypatch):
        """Of the ``dictionary`` columns, the scan reads the string ones as
        Arrow dictionaries and the integer ones as they are: pyarrow reads
        only BYTE_ARRAY columns as dictionaries (asked to read a ``date32``
        one so, pyarrow 16 sometimes aborts the process at exit). The typed
        empty table keeps the file's string type, the fragment's pipeline
        over it types the keys as strings, and so does the fragment over the
        rows."""
        store, files, pdf = scan_env
        asked, open_file = [], pq.ParquetFile

        def spy(*args, read_dictionary, **kwargs):
            asked.append(read_dictionary)
            return open_file(*args, read_dictionary=read_dictionary, **kwargs)

        monkeypatch.setattr(pq, "ParquetFile", spy)
        op = ParquetScanOperator(store.client(), files, columns=["tag", "x", "y"], dictionary=["tag", "x"])
        tables = list(op.tables())
        assert asked == [["tag"]] * N_FILES
        for t in tables:
            assert t.schema.field("tag").type == pa.dictionary(pa.int32(), pa.string())
            assert t.schema.field("x").type == pa.int64()
        got = pa.concat_tables(tables).to_pandas()
        assert got["tag"].astype(str).tolist() == pdf["tag"].tolist()
        empty = op.empty_table()
        assert empty.schema.field("tag").type == pa.string()
        q = Lambada(str(store.root)).from_files(files).aggregate(
            ["tag", "x"], [AggSpec("m", "max", ex.col("tag")), AggSpec("s", "sum", ex.col("y"))]
        )
        phys = qc.compile_plan(q.plan)
        out = run_pipeline(empty, phys)
        assert out.schema.field("tag").type == pa.string()
        assert out.schema.field("m").type == pa.string()
        rows, _ = execute_fragment(str(store.root), 0, files, phys, chunk_bytes=1 << 20, footer_hint=1 << 16)
        assert rows.schema == out.schema

    @pytest.mark.parametrize(
        "blob",
        [b"x" * 100, bytes(20) + (1 << 20).to_bytes(4, "little") + b"PAR1", b"PAR1"],
        ids=["no-magic", "footer-longer-than-the-file", "shorter-than-a-footer"],
    )
    def test_not_a_parquet_file(self, tmp_path, blob):
        """The footer window is checked before any byte of it is used."""
        store = S3Store(tmp_path)
        store.create_bucket("d")
        store.client().put("d", "x.parquet", blob)
        client = store.client()
        with pytest.raises(ValueError, match="not a Parquet file"):
            list(ParquetScanOperator(client, [("d", "x.parquet")], columns=None).tables())
        assert (client.ledger.heads, client.ledger.gets) == (1, 1)

    def test_empty_table_has_schema(self, scan_env):
        store, files, _ = scan_env
        op = ParquetScanOperator(store.client(), files, columns=["x", "y"], residual=ex.col("x") >= 10 * N)
        out = _read_all(op)
        assert out.num_rows == 0
        assert op.metrics.pruned_all
        assert out.schema.names == ["x", "y"]


class TestPruning:
    @pytest.mark.parametrize(
        "cutoff,expected_groups",
        [(N // 8 - 1, 1), (N // 2 - 1, 4), (N - 1, 8)],
    )
    def test_rowgroups_scanned_tracks_selectivity(self, scan_env, cutoff, expected_groups):
        store, files, pdf = scan_env
        op = ParquetScanOperator(
            store.client(), files, columns=COLUMNS, residual=ex.col("x") <= cutoff
        )
        got = _read_all(op)
        assert op.metrics.row_groups_scanned == expected_groups
        assert op.metrics.row_groups_total == N_FILES * ROW_GROUPS
        assert_duckdb_rows(got, pdf, f"x <= {cutoff}")

    def test_fully_pruned_file_costs_one_metadata_get(self, scan_env):
        """Fig 11: pruned workers 'load the metadata ... (inducing one
        round-trip to S3) ... and immediately return'."""
        store, files, _ = scan_env
        client = store.client()
        op = ParquetScanOperator(
            client, files[-1:], columns=COLUMNS, residual=ex.col("x") <= 0
        )
        out = _read_all(op)
        assert out.num_rows == 0
        assert op.metrics.pruned_all
        # HEAD for the size + the single footer GET; no data chunks
        assert client.ledger.gets == 1

    def test_between_prunes_on_its_literal_bound(self, scan_env):
        """``x BETWEEN z AND c`` is ``x >= z AND x <= c``: the literal bound
        skips the row groups above ``c``, and the residual filter keeps
        exactly DuckDB's rows."""
        store, files, pdf = scan_env
        cutoff = N // 4 - 1
        q = Lambada(store.root).from_files(files).filter(ex.col("x").between(ex.col("z"), cutoff))
        rows, m = execute_fragment(
            str(store.root), 0, files, qc.compile_plan(q.plan), chunk_bytes=1 << 20, footer_hint=1 << 16
        )
        assert m.row_groups_scanned == 2
        assert m.row_groups_total == N_FILES * ROW_GROUPS
        assert 0 < rows.num_rows < cutoff + 1
        assert_duckdb_rows(rows, pdf, f"x BETWEEN z AND {cutoff}")

    def test_predicate_on_statless_column_keeps_groups(self, tmp_path, scan_decisions):
        """A conjunct whose column chunks have no statistics can neither
        prune nor prove: every row group stays open to the residual."""
        pdf = _frame()
        store = S3Store(tmp_path)
        store.create_bucket("d")
        buf = io.BytesIO()
        pq.write_table(
            pa.Table.from_pandas(pdf, preserve_index=False), buf,
            row_group_size=N // ROW_GROUPS, write_statistics=["y", "z", "tag"],
        )
        store.client().put("d", "nostats.parquet", buf.getvalue())
        op = ParquetScanOperator(
            store.client(), [("d", "nostats.parquet")], columns=COLUMNS, residual=ex.col("x") <= 5
        )
        got = _read_all(op)
        assert op.metrics.row_groups_scanned == ROW_GROUPS
        assert [len(d) for d in scan_decisions] == [1] * ROW_GROUPS
        assert_duckdb_rows(got, pdf, "x <= 5")


class TestRequestAccounting:
    # small chunks/footer so the test files (~tens of KB) span many requests
    IO = dict(chunk_bytes=2**12, footer_hint=2**12)

    def test_projection_reduces_bytes_read(self, scan_env):
        store, files, _ = scan_env
        c_all, c_two = store.client(), store.client()
        _read_all(ParquetScanOperator(c_all, files, columns=COLUMNS, **self.IO))
        _read_all(ParquetScanOperator(c_two, files, columns=["x"], **self.IO))
        assert c_two.ledger.bytes_read < c_all.ledger.bytes_read
        assert c_two.ledger.gets < c_all.ledger.gets

    def test_pruning_reduces_requests(self, scan_env):
        store, files, _ = scan_env
        c_all, c_pruned = store.client(), store.client()
        _read_all(ParquetScanOperator(c_all, files, columns=COLUMNS, **self.IO))
        _read_all(
            ParquetScanOperator(
                c_pruned, files, columns=COLUMNS, residual=ex.col("x") <= 1, **self.IO
            )
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
            op = ParquetScanOperator(
                c, files, columns=COLUMNS, chunk_bytes=chunk, footer_hint=2**12
            )
            _read_all(op)
            counts[chunk] = c.ledger.gets
        assert counts[2**12] > counts[2**14]


_L = datetime.datetime(1994, 6, 1)  # a microsecond-aligned literal
_L_NS = int((_L - datetime.datetime(1970, 1, 1)).total_seconds()) * 10**9
_DAYS = [datetime.date(1994, m, 1) for m in (1, 3, 6, 9)]
x, y = ex.col("x"), ex.col("y")


class TestStatisticsProofs:
    """A residual conjunct is proven for a row group, and not evaluated on
    its rows, only when it compares a bare integer, date or timestamp column
    with a literal and holds on the chunk's min and max, which has no null.
    Each case is a file of two row groups of two rows, columns ``x`` (the
    case's) and ``y`` (10, 11, 12, 13); the rows always equal DuckDB's."""

    @pytest.mark.parametrize(
        "values,pred,where,decisions",
        [
            pytest.param([1, 2, 3, 4], x <= 3, "x <= 3", ["proven", "open"], id="int"),
            pytest.param(
                pa.array(_DAYS), x <= ex.lit("1994-03-01"), "x <= DATE '1994-03-01'",
                ["proven", "pruned"], id="date32",
            ),
            pytest.param(
                pa.array(_DAYS).cast(pa.timestamp("ns")), x < ex.lit("1994-07-01"),
                "x < TIMESTAMP '1994-07-01'", ["proven", "open"], id="timestamp[ns]",
            ),
            pytest.param(
                pa.array([_L_NS - 1000, _L_NS - 1, _L_NS, _L_NS + 500]).cast(pa.timestamp("ns")),
                x <= ex.lit(_L), "x <= TIMESTAMP '1994-06-01'", ["proven", "open"],
                id="timestamp[ns]-500ns-past-literal",
            ),
            pytest.param([1.0, 2.0, 3.0, 4.0], x <= 5.0, "x <= 5.0", ["open", "open"], id="float"),
            pytest.param([1, None, 3, 4], x <= 5, "x <= 5", ["open", "proven"], id="null"),
            pytest.param([5, 5, 5, 6], x.eq(5), "x = 5", ["proven", "open"], id="eq"),
            pytest.param([1, 3, 4, 5], x < 3, "x < 3", ["open", "pruned"], id="strict-max-equals"),
            pytest.param([1, 2, 3, 4], ex.lit(3) >= x, "3 >= x", ["proven", "open"], id="literal-left"),
            pytest.param([1, 2, 3, 4], x <= y, "x <= y", ["open", "open"], id="column-vs-column"),
        ],
    )
    def test_proofs(self, tmp_path, scan_decisions, values, pred, where, decisions):
        t = pa.table({"x": values, "y": pa.array([10, 11, 12, 13])})
        store = S3Store(tmp_path)
        store.create_bucket("d")
        buf = io.BytesIO()
        pq.write_table(t, buf, row_group_size=2)
        store.client().put("d", "t.parquet", buf.getvalue())
        q = Lambada(str(tmp_path)).from_files([("d", "t.parquet")]).filter(pred)
        rows, m = execute_fragment(
            str(tmp_path), 0, [("d", "t.parquet")], qc.compile_plan(q.plan),
            chunk_bytes=1 << 20, footer_hint=1 << 16,
        )
        kinds = {None: "pruned", 0: "proven", 1: "open"}
        assert [kinds[d if d is None else len(d)] for d in scan_decisions] == decisions
        con = duckdb.connect()
        try:
            con.register("t", t)
            want = con.execute(f"SELECT * FROM t WHERE {where}").arrow()
        finally:
            con.close()
        assert rows.sort_by("y").to_pylist() == want.sort_by("y").to_pylist()
        assert m.rows_out == len(want)
