"""Lambada engine end-to-end: oracle-checked results, worker accounting,
error reporting, the one-job query shape. Q1/Q6 run once (session
fixtures); extra runs here vary the worker count and failure modes."""
import datetime
import io
import uuid
from pathlib import Path

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro import oracle
from repro.core import compile as qc
from repro.core import engine, queries
from repro.core.expr import col, lit
from repro.core.frontend import Lambada
from repro.core.plan import AggSpec
from repro.core.worker import execute_fragment
from repro.s3.store import S3Client, S3Store


class TestQ1:
    def test_result_matches_duckdb(self, mq1, lineitem_ds, result_df):
        _, pdf = lineitem_ds
        oracle.assert_equivalent(result_df(mq1.result), queries.Q1_SQL, lineitem=pdf)

    def test_one_worker_per_file(self, mq1):
        assert mq1.result.n_workers == 16

    def test_all_workers_reported(self, mq1):
        ids = sorted(w.worker_id for w in mq1.result.metrics.workers)
        assert ids == list(range(16))

    def test_selectivity_near_95_percent(self, mq1):
        """Paper: Q1 selects 98 % (ours ~95 % — uniform dates to 1998-12-31)."""
        assert 0.90 < mq1.row_selectivity < 0.99

    def test_most_row_groups_scanned(self, mq1):
        workers = mq1.result.metrics.workers
        scanned = sum(w.row_groups_scanned for w in workers)
        assert scanned > 0.9 * sum(w.row_groups_total for w in workers)

    def test_scan_reads_only_seven_columns(self, mq1):
        """Projection push-down: Q1 'uses seven attributes' — the scan reads
        less than the full table, and the data GETs beyond the footer window
        track the used columns (±chunk rounding)."""
        used_comp, _ = mq1.info.used_column_bytes(queries.Q1_COLUMNS)
        bytes_read = mq1.result.metrics.total_ledger.bytes_read
        assert bytes_read < mq1.info.total_compressed_bytes
        footer_windows = mq1.result.n_workers * (1 << 14)  # one per file
        assert bytes_read - footer_windows < used_comp * 1.6

    def test_statistics_prove_all_but_the_straddling_row_group(
        self, store_root, lineitem_ds, scan_decisions
    ):
        """At the benchmark's layout (16 files of 2 row groups, sorted by
        l_shipdate) the last row group lies wholly above the cutoff and is
        pruned; of the 31 scanned, all but the one that holds the cutoff lie
        wholly below it, so their statistics prove the filter."""
        info, _ = lineitem_ds
        phys = qc.compile_plan(queries.q1(Lambada(store_root).from_files(info.files)).plan)
        for w, f in enumerate(phys.files):
            execute_fragment(store_root, w, [f], phys, chunk_bytes=1 << 12, footer_hint=1 << 14)
        assert len(scan_decisions) == 32
        assert [d for d in scan_decisions if d is not None].count([]) == 30
        assert scan_decisions.count(None) == 1

    def test_four_aggregate_rows(self, mq1):
        # 3 returnflags x 2 linestatuses with data = 6 groups
        assert len(mq1.result.result) == 6


class TestQ6:
    def test_result_matches_duckdb(self, mq6, lineitem_ds, result_df):
        _, pdf = lineitem_ds
        oracle.assert_equivalent(result_df(mq6.result), queries.Q6_SQL, lineitem=pdf)

    def test_selectivity_near_2_percent(self, mq6):
        """Paper: Q6 'selects only 2% of the relation'."""
        assert 0.005 < mq6.row_selectivity < 0.05

    def test_majority_of_workers_pruned(self, mq6):
        """Paper Fig 11: ~80 % of Q6 workers prune all row groups."""
        assert 0.6 <= mq6.pruned_worker_fraction <= 0.95

    def test_pruned_workers_read_almost_nothing(self, mq6):
        pruned = [w for w in mq6.result.metrics.workers if w.pruned_all]
        assert pruned
        for w in pruned:
            assert w.rows_read == 0
            # footer/metadata reads only (a handful at test-file granularity;
            # exactly one at the paper's 64 KiB footer on 500 MB files)
            assert w.ledger_obj().gets <= 4
            assert w.ledger_obj().bytes_read < 0.5 * (
                mq6.info.total_compressed_bytes / mq6.info.n_files
            )

    def test_q6_cheaper_than_q1_in_bytes(self, mq1, mq6):
        """Selection + projection push-down pay off."""
        q6, q1 = mq6.result.metrics.total_ledger, mq1.result.metrics.total_ledger
        assert q6.bytes_read < 0.5 * q1.bytes_read


class TestEngineMechanics:
    def test_listing1_pipeline(self, spark, store_root, lineitem_ds, result_df):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.listing1(src), files_per_worker=4)
        oracle.assert_equivalent(result_df(res), queries.LISTING1_SQL, lineitem=pdf)

    def test_nothing_left_cached(self, spark, store_root, lineitem_ds):
        info, _ = lineitem_ds
        engine.run_query(spark, store_root, queries.q6(Lambada(store_root).from_files(info.files)))
        assert spark._jsparkSession.sharedState().cacheManager().isEmpty()

    def test_fewer_workers_than_files(self, spark, store_root, lineitem_ds, result_df):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.q6(src), files_per_worker=4)
        assert res.n_workers == 4
        oracle.assert_equivalent(result_df(res), queries.Q6_SQL, lineitem=pdf)

    @pytest.mark.parametrize("fpw", [-2, 0])
    def test_bad_files_per_worker_rejected(self, spark, store_root, lineitem_ds, fpw):
        """F must be a whole number of files: a negative F would run a
        negative worker count, and 0 would divide by zero."""
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        with pytest.raises(ValueError, match="files_per_worker"):
            engine.run_query(spark, store_root, queries.q6(src), files_per_worker=fpw)

    @pytest.mark.parametrize(
        "io", [{"chunk_bytes": 0}, {"footer_hint": 7}], ids=["chunk_bytes=0", "footer_hint=7"]
    )
    def test_bad_io_sizes_rejected_before_any_request(self, spark, store_root, lineitem_ds, monkeypatch, io):
        """A chunk size below one byte, or a footer window too short for the
        footer's length and magic, is rejected in the driver: no store
        request is made and no Spark job runs."""
        info, _ = lineitem_ds
        calls = []
        for op in ("get", "head"):
            real = getattr(S3Client, op)
            monkeypatch.setattr(
                S3Client, op, lambda self, *a, _op=op, _real=real, **k: calls.append(_op) or _real(self, *a, **k)
            )
        monkeypatch.setattr(engine, "run_on_workers", lambda *a: calls.append("job"))
        src = Lambada(store_root).from_files(info.files)
        with pytest.raises(ValueError, match=next(iter(io))):
            engine.run_query(spark, store_root, queries.q6(src), **io)
        assert calls == []

    def test_eight_byte_footer_window_reads_the_files(self, spark, store_root, lineitem_ds, result_df):
        """The smallest footer window holds only the footer's length and
        magic; the footer itself is then fetched by the chunk rule."""
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.q6(src), footer_hint=8)
        oracle.assert_equivalent(result_df(res), queries.Q6_SQL, lineitem=pdf)

    def test_oom_reported_not_silent(self, spark, store_root, lineitem_ds):
        """§3.3: the handler reports OOM 'to the driver rather than dying
        silently' through the result queue."""
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        with pytest.raises(engine.WorkerError, match="WorkerOOM"):
            engine.run_query(
                spark, store_root, queries.q1(src), files_per_worker=8, memory_limit_mib=1
            )

    def test_from_parquet_glob(self, spark, store_root, lineitem_ds):
        info, _ = lineitem_ds
        src = Lambada(store_root).from_parquet(info.bucket, info.prefix)
        assert len(src.plan.files) == 16

    def test_from_parquet_missing_prefix(self, store_root):
        with pytest.raises(FileNotFoundError):
            Lambada(store_root).from_parquet("data", "nothing-here")

    ROWS_SQL = "SELECT l_quantity * l_discount AS v FROM lineitem WHERE l_quantity < 3"

    @pytest.mark.parametrize("kind", ["q1", "rows"])
    def test_collected_result_matches_duckdb(self, spark, store_root, lineitem_ds, kind, result_df):
        """``result`` is the driver's final aggregation of the collected
        partial states, or for a query without aggregation the rows the
        workers output."""
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        if kind == "q1":
            q = queries.q1(src)
        else:
            q = src.filter(col("l_quantity") < 3).map(v=col("l_quantity") * col("l_discount"))
        res = engine.run_query(spark, store_root, q)
        sql = queries.Q1_SQL if kind == "q1" else self.ROWS_SQL
        oracle.assert_equivalent(result_df(res), sql, lineitem=pdf)

    ALL_SQL = {
        "filtered": "SELECT * FROM lineitem WHERE l_quantity < 3",
        "unfiltered": "SELECT * FROM lineitem",
    }

    @pytest.mark.parametrize("kind", ["filtered", "unfiltered"])
    def test_row_query_returns_every_column(self, spark, store_root, lineitem_ds, kind, result_df):
        """A query that neither projects nor aggregates returns the table's
        rows with every column, as ``SELECT *`` does."""
        info, pdf = lineitem_ds
        q = Lambada(store_root).from_files(info.files)
        if kind == "filtered":
            q = q.filter(col("l_quantity") < 3)
        res = engine.run_query(spark, store_root, q)
        assert list(res.result.columns) == list(pdf.columns)
        oracle.assert_equivalent(result_df(res), self.ALL_SQL[kind], lineitem=pdf)

    @pytest.mark.parametrize("name", ["q1", "q6"])
    def test_one_spark_job_with_one_stage(self, spark, store_root, lineitem_ds, name):
        """Dispatch, worker fragments and the collect are one Spark job of
        one stage; the final aggregation runs in the driver, not in Spark."""
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        sc = spark.sparkContext
        group = f"shape-{name}-{uuid.uuid4().hex[:8]}"
        sc.setJobGroup(group, "run_query shape")
        try:
            engine.run_query(spark, store_root, getattr(queries, name)(src))
        finally:
            sc.setLocalProperty("spark.jobGroup.id", None)
        tracker = sc.statusTracker()
        jobs = tracker.getJobIdsForGroup(group)
        assert len(jobs) == 1
        assert len(tracker.getJobInfo(jobs[0]).stageIds) == 1

    @pytest.mark.parametrize(
        "workers",
        [{"files_per_worker": 6}, {"files_per_worker": 1}, {"files_per_worker": 3}],
        ids=["n3", "n16", "fpw3"],  # 3, 16 and 6 workers over the 16 files
    )
    def test_file_assignment(self, spark, store_root, lineitem_ds, mq1, workers, result_df):
        """Also when the worker IDs do not split evenly over the job's
        ``defaultParallelism`` tasks (3 and 6 workers), every file is
        scanned by exactly one worker and every worker reports exactly once."""
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        run_id = uuid.uuid4().hex[:12]
        res = engine.run_query(spark, store_root, queries.q1(src), run_id=run_id, **workers)
        ws = res.metrics.workers
        assert sum(w.n_files for w in ws) == 16
        assert sum(w.rows_read for w in ws) == sum(
            w.rows_read for w in mq1.result.metrics.workers
        )
        qdir = Path(store_root) / engine.RESULT_BUCKET / run_id
        reports = sorted(p.name for p in qdir.iterdir())
        assert reports == sorted(f"w{w}.json" for w in range(res.n_workers))
        assert [w.worker_id for w in ws] == list(range(res.n_workers))
        oracle.assert_equivalent(result_df(res), queries.Q1_SQL, lineitem=pdf)


    def test_reused_run_id_reads_only_this_runs_reports(self, spark, store_root, lineitem_ds):
        """The driver reads exactly ``w0..w{n-1}`` of its run: a 2-worker
        run after a 4-worker run under the same ``run_id`` sees 2 reports."""
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        run_id = uuid.uuid4().hex[:12]
        engine.run_query(spark, store_root, queries.q6(src), files_per_worker=4, run_id=run_id)
        res = engine.run_query(spark, store_root, queries.q6(src), files_per_worker=8, run_id=run_id)
        assert res.metrics.n_workers == 2
        assert [w.worker_id for w in res.metrics.workers] == [0, 1]
        assert sum(w.n_files for w in res.metrics.workers) == 16

    def test_type_mismatch_names_the_worker(self, spark, tmp_path):
        """A file whose column type differs from the first file's fails in
        its own worker, which reports the error to the result queue."""
        root = str(tmp_path)
        store = S3Store(root)
        store.create_bucket("mixed")
        for name, v in (("a", pa.array([1, 2], pa.int64())), ("b", pa.array(["x", "y"]))):
            buf = io.BytesIO()
            pq.write_table(pa.table({"v": v}), buf)
            store.client().put("mixed", f"{name}.parquet", buf.getvalue())
        files = [("mixed", "a.parquet"), ("mixed", "b.parquet")]
        q = Lambada(root).from_files(files).reduce("max", col("v"))
        with pytest.raises(engine.WorkerError, match="^worker 1: "):
            engine.run_query(spark, root, q)


class TestDatePruning:
    """A date-string literal prunes the row groups of date and timestamp
    columns by their min/max statistics and keeps every qualifying row."""

    DAYS = ["1994-01-01", "1994-03-01", "1994-05-01", "1994-06-01", "1994-09-01",
            "1994-12-01", "1995-01-01", "1995-03-01", "1995-06-01", "1995-09-01"]
    LO, HI = "1994-06-01", "1995-01-01"
    SQL = (
        "SELECT count(*) AS n, sum(v) AS s FROM t "
        f"WHERE d >= TIMESTAMP '{LO} 00:00:00' AND d < TIMESTAMP '{HI} 00:00:00'"
    )

    @pytest.mark.parametrize(
        "typ", [pa.date32(), pa.timestamp("us"), pa.timestamp("ns")], ids=str
    )
    def test_matches_duckdb_and_scans_the_groups_that_meet(self, spark, tmp_path, typ, result_df):
        days = [datetime.datetime.fromisoformat(d) for d in self.DAYS]
        t = pa.table({"d": pa.array(days).cast(typ), "v": pa.array(range(len(days)))})
        root = str(tmp_path)
        store = S3Store(root)
        store.create_bucket("dates")
        buf = io.BytesIO()
        pq.write_table(t, buf, row_group_size=2)
        store.client().put("dates", "t.parquet", buf.getvalue())
        q = (
            Lambada(root)
            .from_files([("dates", "t.parquet")])
            .filter((col("d") >= lit(self.LO)) & (col("d") < lit(self.HI)))
            .aggregate(keys=[], aggs=[AggSpec("n", "count"), AggSpec("s", "sum", col("v"))])
        )
        res = engine.run_query(spark, root, q)
        oracle.assert_equivalent(result_df(res), self.SQL, t=t)
        lo, hi = (datetime.datetime.fromisoformat(x) for x in (self.LO, self.HI))
        groups = [days[i : i + 2] for i in range(0, len(days), 2)]
        meets = sum(1 for g in groups if max(g) >= lo and min(g) <= hi)
        assert 0 < meets < len(groups)
        assert sum(w.row_groups_scanned for w in res.metrics.workers) == meets


class TestTypedAggregates:
    """Partial states keep the type the worker's pipeline gives them:
    timestamps, strings and integers are not turned into floats."""

    @pytest.mark.parametrize(
        "fn,column",
        [
            ("max", "l_shipdate"),
            ("min", "l_returnflag"),
            ("sum", "l_linenumber"),
            ("avg", "l_linenumber"),
        ],
        ids=["max-timestamp", "min-string", "sum-int", "avg-int"],
    )
    def test_matches_duckdb(self, spark, store_root, lineitem_ds, fn, column, result_df):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, src.reduce(fn, col(column)), files_per_worker=4)
        sql = f"SELECT {fn}({column}) AS value FROM lineitem"
        oracle.assert_equivalent(result_df(res), sql, lineitem=pdf)
        if fn == "sum":
            assert res.result["value"].dtype == "int64"


class TestEmptySelection:
    """Aggregates over a selection no row satisfies, as SQL defines them."""

    AGGS = [AggSpec("n", "count"), AggSpec("s", "sum", col("l_quantity"))]
    SQL = "SELECT {keys}count(*) AS n, sum(l_quantity) AS s FROM lineitem WHERE l_quantity < -1"

    def _run(self, spark, store_root, lineitem_ds, keys, result_df):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        q = src.filter(col("l_quantity") < -1).aggregate(keys=keys, aggs=self.AGGS)
        res = engine.run_query(spark, store_root, q)
        sql = self.SQL.format(keys="".join(f"{k}, " for k in keys))
        if keys:
            sql += " GROUP BY " + ", ".join(keys)
        oracle.assert_equivalent(result_df(res), sql, lineitem=pdf)
        return res.result

    def test_keyless_count_is_zero(self, spark, store_root, lineitem_ds, result_df):
        result = self._run(spark, store_root, lineitem_ds, [], result_df)
        assert len(result) == 1
        assert result["n"].iloc[0] == 0
        assert pd.isna(result["s"].iloc[0])

    def test_grouped_has_no_rows(self, spark, store_root, lineitem_ds, result_df):
        result = self._run(spark, store_root, lineitem_ds, ["l_returnflag"], result_df)
        assert len(result) == 0
        assert list(result.columns) == ["l_returnflag", "n", "s"]


class TestLiteralExpressions:
    """Aggregates and projections whose expression reads no column."""

    SQL = "SELECT sum({v}) AS value FROM lineitem WHERE l_quantity < 10"

    @pytest.mark.parametrize("kind", ["reduce", "map"])
    def test_literal_sum_matches_duckdb(self, spark, store_root, lineitem_ds, kind, result_df):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files).filter(col("l_quantity") < 10)
        if kind == "reduce":
            q, v = src.reduce("sum", lit(1)), "1"
        else:
            q, v = src.map(v=lit(2.0)).reduce("sum", col("v")), "2.0"
        res = engine.run_query(spark, store_root, q, files_per_worker=4)
        oracle.assert_equivalent(result_df(res), self.SQL.format(v=v), lineitem=pdf)


class TestNulls:
    """Nulls in int and float filter and aggregate columns, as SQL treats
    them: a null in a predicate drops the row, aggregates skip nulls, and
    a group whose values are all null aggregates to null."""

    TABLE = pa.table(
        {
            "k": ["a", "b", "c", "a", "b", "c", "a", "b", "c", "a"],
            "i": pa.array([1, None, 3, 4, 5, 6, None, 8, 9, 10], pa.int64()),
            "x": pa.array([0.5, 1.5, 2.5, None, 4.5, 5.5, 6.5, 7.5, 8.5, 9.5]),
            "n": pa.array([None, 2, None, 4, 5, None, 7, None, None, 10], pa.int64()),
            "f": pa.array([1.25, None, None, 4.25, None, None, 7.25, 8.25, None, None]),
        }
    )
    FUNCS = ("sum", "avg", "min", "max")

    @pytest.fixture(scope="class")
    def nulls_files(self, tmp_path_factory):
        root = str(tmp_path_factory.mktemp("nullstore"))
        store = S3Store(root)
        store.create_bucket("nulls")
        buf = io.BytesIO()
        pq.write_table(self.TABLE, buf, row_group_size=4)
        store.client().put("nulls", "t.parquet", buf.getvalue())
        return root, [("nulls", "t.parquet")]

    @pytest.mark.parametrize("keys", [[], ["k"]], ids=["keyless", "grouped"])
    def test_all_aggregates_match_duckdb(self, spark, nulls_files, keys, result_df):
        root, files = nulls_files
        aggs = [AggSpec("cnt", "count")]
        sql = ["count(*) AS cnt"]
        for fn in self.FUNCS:
            for c in ("n", "f"):
                aggs.append(AggSpec(f"{fn}_{c}", fn, col(c)))
                sql.append(f"{fn}({c}) AS {fn}_{c}")
        q = (
            Lambada(root)
            .from_files(files)
            .filter((col("i") >= 1) & (col("x") < 9.0))
            .aggregate(keys=keys, aggs=aggs)
        )
        res = engine.run_query(spark, root, q)
        select = ", ".join([*keys, *sql])
        group = " GROUP BY k" if keys else ""
        oracle.assert_equivalent(
            result_df(res), f"SELECT {select} FROM t WHERE i >= 1 AND x < 9.0{group}", t=self.TABLE
        )

    @pytest.mark.parametrize("keys", [[], ["k"]], ids=["keyless", "grouped"])
    def test_count_of_a_column_skips_nulls(self, spark, nulls_files, keys, result_df):
        root, files = nulls_files
        aggs = [
            AggSpec("cnt", "count"),
            AggSpec("cnt_n", "count", col("n")),
            AggSpec("cnt_f", "count", col("f")),
            # SQL's AND: NULL AND FALSE is false, so it counts (i NULL, x 1.5)
            AggSpec("cnt_and", "count", (col("i") > 1) & (col("x") > 5.0)),
        ]
        q = Lambada(root).from_files(files).aggregate(keys=keys, aggs=aggs)
        res = engine.run_query(spark, root, q)
        select = ", ".join(
            [
                *keys,
                "count(*) AS cnt",
                "count(n) AS cnt_n",
                "count(f) AS cnt_f",
                "count((i > 1) AND (x > 5.0)) AS cnt_and",
            ]
        )
        group = " GROUP BY k" if keys else ""
        oracle.assert_equivalent(
            result_df(res), f"SELECT {select} FROM t{group}", t=self.TABLE
        )

    def test_count_only_reads_no_column_chunk(self, spark, nulls_files, result_df):
        """An unfiltered ``count(*)`` reads no column: each file costs its
        HEAD and one GET of a footer window that holds no column chunk."""
        root, files = nulls_files
        q = Lambada(root).from_files(files).aggregate(keys=[], aggs=[AggSpec("cnt", "count")])
        footer_hint = 1 << 11  # the 4.5 KB file's 1.9 KB footer, not its data
        res = engine.run_query(spark, root, q, footer_hint=footer_hint)
        oracle.assert_equivalent(result_df(res), "SELECT count(*) AS cnt FROM t", t=self.TABLE)
        assert sum(w.compressed_bytes for w in res.metrics.workers) == 0
        ledger = res.metrics.total_ledger
        assert (ledger.heads, ledger.gets) == (len(files), len(files))
        assert ledger.bytes_read <= len(files) * footer_hint


class TestProjectionReusingAnInputName:
    """A projection may name its output like the input column it reads:
    the scan still reads that input."""

    @pytest.mark.parametrize("keys", [[], ["l_returnflag"]], ids=["keyless", "grouped"])
    def test_matches_duckdb(self, spark, store_root, lineitem_ds, keys, result_df):
        info, pdf = lineitem_ds
        q = (
            Lambada(store_root)
            .from_files(info.files)
            .map(l_tax=col("l_tax") * 2)
            .aggregate(keys=keys, aggs=[AggSpec("s", "sum", col("l_tax"))])
        )
        res = engine.run_query(spark, store_root, q, files_per_worker=4)
        select = "".join(f"{k}, " for k in keys)
        group = "".join(f" GROUP BY {k}" for k in keys)
        sql = f"SELECT {select}sum(l_tax) AS s FROM (SELECT {select}l_tax * 2 AS l_tax FROM lineitem){group}"
        oracle.assert_equivalent(result_df(res), sql, lineitem=pdf)


class TestDictionaryKeys:
    """String group keys are read as Arrow dictionaries, one per row group,
    and grouped over their unified dictionaries: results equal DuckDB's on
    keys with nulls, per-row-group and per-file dictionaries, keys the
    filter reads, aggregates of a key, and pruned workers."""

    N_FILES, ROWS_PER_FILE, ROW_GROUP = 4, 12, 6

    @pytest.fixture(scope="class")
    def keyed(self, tmp_path_factory):
        """(store root, files, table): ``i`` is sorted, ``k`` draws each row
        group's values from its own three letters and has nulls, ``j`` is a
        second string column and ``g`` a small integer key."""
        g = np.random.default_rng(11)
        n = self.N_FILES * self.ROWS_PER_FILE
        letters = "abcdefgh"
        k = []
        for rg in range(n // self.ROW_GROUP):
            alphabet = list(letters[rg % 6 : rg % 6 + 3]) + [None]
            k += [alphabet[x] for x in g.integers(0, 4, self.ROW_GROUP)]
        table = pa.table(
            {
                "i": pa.array(np.arange(n), pa.int64()),
                "k": pa.array(k, pa.string()),
                "j": pa.array(g.choice(list(letters), n), pa.string()),
                "g": pa.array(g.integers(0, 3, n), pa.int64()),
                "v": pa.array(g.integers(0, 100, n), pa.int64()),
            }
        )
        root = str(tmp_path_factory.mktemp("keystore"))
        store = S3Store(root)
        store.create_bucket("keys")
        files = []
        for f in range(self.N_FILES):
            buf = io.BytesIO()
            part = table.slice(f * self.ROWS_PER_FILE, self.ROWS_PER_FILE)
            pq.write_table(part, buf, row_group_size=self.ROW_GROUP)
            store.client().put("keys", f"t{f}.parquet", buf.getvalue())
            files.append(("keys", f"t{f}.parquet"))
        return root, files, table

    AGGS = {
        "n": ("count", None),
        "s": ("sum", "v"),
        "lo": ("min", "v"),
        "hi": ("max", "v"),
        "mean": ("avg", "v"),
    }

    def _check(self, spark, keyed, result_df, keys, aggs, where=None, sql_where="", fpw=1):
        root, files, table = keyed
        q = Lambada(root).from_files(files)
        if where is not None:
            q = q.filter(where)
        q = q.aggregate(
            keys=keys,
            aggs=[AggSpec(name, fn, None if c is None else col(c)) for name, (fn, c) in aggs.items()],
        )
        res = engine.run_query(spark, root, q, files_per_worker=fpw)
        select = ", ".join(
            [*keys, *(f"{fn}({c or '*'}) AS {name}" for name, (fn, c) in aggs.items())]
        )
        group = f" GROUP BY {', '.join(keys)}" if keys else ""
        oracle.assert_equivalent(result_df(res), f"SELECT {select} FROM t{sql_where}{group}", t=table)
        return res

    @pytest.mark.parametrize("fpw", [1, 2], ids=["file-per-worker", "two-files-per-worker"])
    def test_null_keys_and_differing_dictionaries(self, spark, keyed, result_df, fpw):
        res = self._check(spark, keyed, result_df, ["k"], self.AGGS, fpw=fpw)
        assert res.result["k"].isna().any()
        assert res.result["k"].map(type).isin([str, type(None)]).all()

    @pytest.mark.parametrize(
        "where,sql_where",
        [(col("k") >= "c", " WHERE k >= 'c'"), (col("k") < col("j"), " WHERE k < j")],
        ids=["key-vs-literal", "key-vs-column"],
    )
    def test_filter_reads_the_key(self, spark, keyed, result_df, where, sql_where):
        self._check(spark, keyed, result_df, ["k"], self.AGGS, where, sql_where, fpw=2)

    def test_aggregates_of_the_key(self, spark, keyed, result_df):
        aggs = {"lo": ("min", "k"), "hi": ("max", "k"), "n": ("count", "k")}
        self._check(spark, keyed, result_df, ["k"], aggs, fpw=2)

    def test_pruned_workers_beside_scanning_ones(self, spark, keyed, result_df):
        res = self._check(spark, keyed, result_df, ["k"], self.AGGS, col("i") >= 30, " WHERE i >= 30")
        scanned = [w.row_groups_scanned for w in res.metrics.workers]
        assert 0 in scanned and max(scanned) > 0

    def test_integer_and_string_keys(self, spark, keyed, result_df):
        res = self._check(spark, keyed, result_df, ["g", "k"], self.AGGS, fpw=2)
        assert res.result["g"].dtype == "int64"
