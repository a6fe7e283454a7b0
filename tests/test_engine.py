"""Lambada engine end-to-end: oracle-checked results, worker accounting,
error reporting, the one-job query shape. Q1/Q6 run once (session
fixtures); extra runs here vary the worker count and failure modes."""
import datetime
import io
import shutil
import uuid
from pathlib import Path

import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import pytest

from repro import oracle
from repro.core import engine, queries
from repro.core.expr import col, lit
from repro.core.frontend import Lambada
from repro.core.plan import AggSpec
from repro.s3.store import S3Store


class TestQ1:
    def test_result_matches_duckdb(self, mq1, lineitem_ds):
        _, pdf = lineitem_ds
        oracle.assert_equivalent(mq1.result.spark_df, queries.Q1_SQL, lineitem=pdf)

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

    def test_four_aggregate_rows(self, mq1):
        # 3 returnflags x 2 linestatuses with data = 6 groups
        assert len(mq1.result.result) == 6


class TestQ6:
    def test_result_matches_duckdb(self, mq6, lineitem_ds):
        _, pdf = lineitem_ds
        oracle.assert_equivalent(mq6.result.spark_df, queries.Q6_SQL, lineitem=pdf)

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
    def test_listing1_pipeline(self, spark, store_root, lineitem_ds):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.listing1(src), files_per_worker=4)
        oracle.assert_equivalent(res.spark_df, queries.LISTING1_SQL, lineitem=pdf)

    def test_fewer_workers_than_files(self, spark, store_root, lineitem_ds):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.q6(src), files_per_worker=4)
        assert res.n_workers == 4
        oracle.assert_equivalent(res.spark_df, queries.Q6_SQL, lineitem=pdf)

    @pytest.mark.parametrize("fpw", [-2, 0])
    def test_bad_files_per_worker_rejected(self, spark, store_root, lineitem_ds, fpw):
        """F must be a whole number of files: a negative F would run a
        negative worker count, and 0 would divide by zero."""
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        with pytest.raises(ValueError, match="files_per_worker"):
            engine.run_query(spark, store_root, queries.q6(src), files_per_worker=fpw)

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
    def test_spark_df_is_the_collected_result(self, spark, store_root, lineitem_ds, kind):
        """``spark_df`` is a DataFrame over ``result``: evaluating it reruns
        no worker, so it needs no result-queue report and posts none. Also
        for a query without aggregation, whose rows are the workers' output."""
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        if kind == "q1":
            q = queries.q1(src)
        else:
            q = src.filter(col("l_quantity") < 3).map(v=col("l_quantity") * col("l_discount"))
        run_id = uuid.uuid4().hex[:12]
        res = engine.run_query(spark, store_root, q, run_id=run_id)
        qdir = Path(store_root) / engine.RESULT_BUCKET / run_id
        shutil.rmtree(qdir)
        got = res.spark_df.toPandas()
        assert not qdir.exists()
        assert list(got.columns) == list(res.result.columns)
        pd.testing.assert_frame_equal(
            oracle._canon(got), oracle._canon(res.result), check_dtype=False
        )
        sql = queries.Q1_SQL if kind == "q1" else self.ROWS_SQL
        oracle.assert_equivalent(res.spark_df, sql, lineitem=pdf)

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
    def test_file_assignment(self, spark, store_root, lineitem_ds, mq1, workers):
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
        oracle.assert_equivalent(res.spark_df, queries.Q1_SQL, lineitem=pdf)


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
    def test_matches_duckdb_and_scans_the_groups_that_meet(self, spark, tmp_path, typ):
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
        oracle.assert_equivalent(res.spark_df, self.SQL, t=t)
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
    def test_matches_duckdb(self, spark, store_root, lineitem_ds, fn, column):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, src.reduce(fn, col(column)), files_per_worker=4)
        sql = f"SELECT {fn}({column}) AS value FROM lineitem"
        oracle.assert_equivalent(res.spark_df, sql, lineitem=pdf)
        if fn == "sum":
            assert res.result["value"].dtype == "int64"


class TestEmptySelection:
    """Aggregates over a selection no row satisfies, as SQL defines them."""

    AGGS = [AggSpec("n", "count"), AggSpec("s", "sum", col("l_quantity"))]
    SQL = "SELECT {keys}count(*) AS n, sum(l_quantity) AS s FROM lineitem WHERE l_quantity < -1"

    def _run(self, spark, store_root, lineitem_ds, keys):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        q = src.filter(col("l_quantity") < -1).aggregate(keys=keys, aggs=self.AGGS)
        res = engine.run_query(spark, store_root, q)
        sql = self.SQL.format(keys="".join(f"{k}, " for k in keys))
        if keys:
            sql += " GROUP BY " + ", ".join(keys)
        oracle.assert_equivalent(res.spark_df, sql, lineitem=pdf)
        return res.result

    def test_keyless_count_is_zero(self, spark, store_root, lineitem_ds):
        result = self._run(spark, store_root, lineitem_ds, [])
        assert len(result) == 1
        assert result["n"].iloc[0] == 0
        assert pd.isna(result["s"].iloc[0])

    def test_grouped_has_no_rows(self, spark, store_root, lineitem_ds):
        result = self._run(spark, store_root, lineitem_ds, ["l_returnflag"])
        assert len(result) == 0
        assert list(result.columns) == ["l_returnflag", "n", "s"]


class TestLiteralExpressions:
    """Aggregates and projections whose expression reads no column."""

    SQL = "SELECT sum({v}) AS value FROM lineitem WHERE l_quantity < 10"

    @pytest.mark.parametrize("kind", ["reduce", "map"])
    def test_literal_sum_matches_duckdb(self, spark, store_root, lineitem_ds, kind):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files).filter(col("l_quantity") < 10)
        if kind == "reduce":
            q, v = src.reduce("sum", lit(1)), "1"
        else:
            q, v = src.map(v=lit(2.0)).reduce("sum", col("v")), "2.0"
        res = engine.run_query(spark, store_root, q, files_per_worker=4)
        oracle.assert_equivalent(res.spark_df, self.SQL.format(v=v), lineitem=pdf)


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
    def test_all_aggregates_match_duckdb(self, spark, nulls_files, keys):
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
            res.spark_df, f"SELECT {select} FROM t WHERE i >= 1 AND x < 9.0{group}", t=self.TABLE
        )

    @pytest.mark.parametrize("keys", [[], ["k"]], ids=["keyless", "grouped"])
    def test_count_of_a_column_skips_nulls(self, spark, nulls_files, keys):
        root, files = nulls_files
        aggs = [
            AggSpec("cnt", "count"),
            AggSpec("cnt_n", "count", col("n")),
            AggSpec("cnt_f", "count", col("f")),
        ]
        q = Lambada(root).from_files(files).aggregate(keys=keys, aggs=aggs)
        res = engine.run_query(spark, root, q)
        select = ", ".join([*keys, "count(*) AS cnt", "count(n) AS cnt_n", "count(f) AS cnt_f"])
        group = " GROUP BY k" if keys else ""
        oracle.assert_equivalent(res.spark_df, f"SELECT {select} FROM t{group}", t=self.TABLE)
