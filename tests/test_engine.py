"""Lambada engine end-to-end: oracle-checked results, worker accounting,
error reporting, the one-job query shape. Q1/Q6 run once (session
fixtures); extra runs here vary the worker count and failure modes."""
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
        assert mq1.rowgroup_scan_fraction > 0.9

    def test_scan_reads_only_seven_columns(self, mq1):
        """Projection push-down: Q1 'uses seven attributes' — the scan reads
        less than the full table, and the data GETs beyond the footer window
        track the used columns (±chunk rounding)."""
        used_comp, _ = mq1.info.used_column_bytes(queries.Q1_COLUMNS)
        bytes_read = mq1.result.metrics.bytes_read
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
        assert mq6.result.metrics.bytes_read < 0.5 * mq1.result.metrics.bytes_read


class TestEngineMechanics:
    def test_listing1_pipeline(self, spark, store_root, lineitem_ds):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.listing1(src), n_workers=4)
        oracle.assert_equivalent(res.spark_df, queries.LISTING1_SQL, lineitem=pdf)

    def test_fewer_workers_than_files(self, spark, store_root, lineitem_ds):
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.q6(src), files_per_worker=4)
        assert res.n_workers == 4
        oracle.assert_equivalent(res.spark_df, queries.Q6_SQL, lineitem=pdf)

    def test_worker_count_capped_at_files(self, spark, store_root, lineitem_ds):
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        res = engine.run_query(spark, store_root, queries.q6(src), n_workers=999)
        assert res.n_workers == 16

    def test_conflicting_worker_args_rejected(self, spark, store_root, lineitem_ds):
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        with pytest.raises(ValueError):
            engine.run_query(
                spark, store_root, queries.q6(src), n_workers=2, files_per_worker=2
            )

    def test_oom_reported_not_silent(self, spark, store_root, lineitem_ds):
        """§3.3: the handler reports OOM 'to the driver rather than dying
        silently' through the result queue."""
        info, _ = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        with pytest.raises(engine.WorkerError, match="WorkerOOM"):
            engine.run_query(
                spark, store_root, queries.q1(src), n_workers=2, memory_limit_mib=1
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
        [{"n_workers": 3}, {"n_workers": 5}, {"n_workers": 16}, {"files_per_worker": 3}],
        ids=["n3", "n5", "n16", "fpw3"],
    )
    def test_file_assignment(self, spark, store_root, lineitem_ds, mq1, workers):
        """Also when the worker IDs do not split evenly over the job's
        ``defaultParallelism`` tasks (3, 5 and 6 workers), every file is
        scanned by exactly one worker and every worker reports exactly once."""
        info, pdf = lineitem_ds
        src = Lambada(store_root).from_files(info.files)
        run_id = uuid.uuid4().hex[:12]
        res = engine.run_query(spark, store_root, queries.q1(src), run_id=run_id, **workers)
        ws = res.metrics.workers
        assert sum(w.n_files for w in ws) == 16
        assert res.metrics.rows_read == mq1.result.metrics.rows_read
        qdir = Path(store_root) / engine.RESULT_BUCKET / run_id
        reports = sorted(p.name for p in qdir.iterdir())
        assert reports == sorted(f"w{w}.json" for w in range(res.n_workers))
        assert [w.worker_id for w in ws] == list(range(res.n_workers))
        oracle.assert_equivalent(res.spark_df, queries.Q1_SQL, lineitem=pdf)


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
        res = engine.run_query(spark, store_root, q, n_workers=4)
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
