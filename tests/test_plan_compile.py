"""Logical plans, the Listing-1 frontend, and compilation push-downs."""
import pyarrow as pa
import pytest

from repro.core import compile as qc
from repro.core import plan as pl
from repro.core import worker
from repro.core.expr import col, lit
from repro.core.frontend import Dataset

FILES = [("data", f"t/part-{i}.parquet") for i in range(4)]


def source() -> Dataset:
    return Dataset(pl.ScanNode(list(FILES)))


class TestPlanShape:
    def test_lineage_order(self):
        p = source().filter(col("a") <= 1).map(v=col("a") * 2).plan
        kinds = [type(n).__name__ for n in p.lineage()]
        assert kinds == ["ScanNode", "FilterNode", "ProjectNode"]

    def test_aggregate_must_be_top(self):
        agg = pl.AggregateNode(
            pl.ScanNode(FILES), [], [pl.AggSpec("s", "sum", col("a"))]
        )
        bad = pl.FilterNode(agg, col("s") <= 1)
        with pytest.raises(ValueError, match="FilterNode above AggregateNode"):
            qc.compile_plan(bad)

    @pytest.mark.parametrize(
        "build,match",
        [
            pytest.param(
                lambda: source().map(v=col("a")).filter(col("v") <= lit(1)),
                "FilterNode above ProjectNode",
                id="filter-after-project",
            ),
            pytest.param(
                lambda: source().map(v=col("a")).map(w=col("v")),
                "ProjectNode above ProjectNode",
                id="two-projections",
            ),
            pytest.param(
                lambda: source().reduce("sum", col("a")).filter(col("value") <= lit(1)),
                "FilterNode above AggregateNode",
                id="filter-after-aggregate",
            ),
            pytest.param(
                lambda: source().reduce("sum", col("a")).map(v=col("value")),
                "ProjectNode above AggregateNode",
                id="project-after-aggregate",
            ),
            pytest.param(
                lambda: Dataset(pl.ScanNode(FILES, child=pl.ScanNode(FILES))),
                "ScanNode above ScanNode",
                id="second-scan",
            ),
            pytest.param(
                lambda: Dataset(pl.ProjectNode(None, {"v": col("a")})),
                "must start with a scan",
                id="non-scan-bottom",
            ),
        ],
    )
    def test_out_of_order_chain_rejected(self, build, match):
        with pytest.raises(ValueError, match=match):
            qc.compile_plan(build().plan)

    def test_duplicate_output_names_rejected(self):
        with pytest.raises(ValueError):
            pl.AggregateNode(
                pl.ScanNode(FILES),
                ["k"],
                [pl.AggSpec("k", "sum", col("a"))],
            )

    def test_unknown_aggregate_rejected(self):
        with pytest.raises(ValueError):
            pl.AggSpec("x", "median", col("a"))

    def test_count_needs_no_expr_others_do(self):
        pl.AggSpec("c", "count")
        with pytest.raises(ValueError):
            pl.AggSpec("s", "sum")

    def test_empty_aggregate_rejected(self):
        with pytest.raises(ValueError):
            pl.AggregateNode(pl.ScanNode(FILES), [], [])

    def test_scan_without_files_rejected(self):
        """Caught at compile time, before the driver probes a first file."""
        q = Dataset(pl.ScanNode([])).reduce("sum", col("a"))
        with pytest.raises(ValueError, match="no files"):
            qc.compile_plan(q.plan)


class TestPushdowns:
    def test_projection_pushdown_collects_used_columns(self):
        q = source().filter(col("a") <= lit(1)).aggregate(
            ["k"], [pl.AggSpec("s", "sum", col("b") * (1 - col("c")))]
        )
        phys = qc.compile_plan(q.plan)
        assert phys.scan_columns == ["a", "b", "c", "k"]

    def test_prunable_conjuncts_become_prune_intervals(self):
        """The scan prunes on the ``prune_interval()`` of each residual
        conjunct that has one."""
        q = source().filter((col("a") <= lit(1)) & (col("b") * 2 >= lit(0)))
        phys = qc.compile_plan(q.plan)
        conjuncts = phys.residual_predicate.conjuncts()
        assert [p.prune_interval() for p in conjuncts] == [("a", None, 1), None]

    def test_residual_keeps_all_conjuncts(self):
        q = source().filter((col("a") <= lit(1)) & (col("b") >= lit(2)))
        phys = qc.compile_plan(q.plan)
        assert set(phys.residual_predicate.columns()) == {"a", "b"}
        assert len(phys.residual_predicate.conjuncts()) == 2

    def test_multiple_filters_merge(self):
        q = source().filter(col("a") <= lit(1)).filter(col("b") >= lit(2))
        phys = qc.compile_plan(q.plan)
        conjuncts = phys.residual_predicate.conjuncts()
        assert conjuncts == [col("a") <= lit(1), col("b") >= lit(2)]
        assert [p.prune_interval() for p in conjuncts] == [("a", None, 1), ("b", 2, None)]

    def test_no_filter_means_no_predicate(self):
        phys = qc.compile_plan(source().plan)
        assert phys.residual_predicate is None
        assert phys.scan_columns is None  # reads every column

    def test_projected_names_not_scan_columns(self):
        q = source().map(v=col("a") * col("b")).reduce("sum", col("v"))
        phys = qc.compile_plan(q.plan)
        assert phys.scan_columns == ["a", "b"]

    def test_projection_reusing_an_input_name_still_reads_it(self):
        """``a`` names both an input the projection reads and the output the
        aggregate reads: the scan reads the input."""
        q = source().map(a=col("a") * 2).aggregate(["k"], [pl.AggSpec("s", "sum", col("a"))])
        phys = qc.compile_plan(q.plan)
        assert phys.scan_columns == ["a", "k"]


class TestPartialSchema:
    """The worker's output columns, as its own pipeline emits them over
    zero typed rows (which is how the driver learns them)."""

    SCAN = pa.schema([(c, pa.float64()) for c in ("a", "k", "k1", "k2")])

    def _names(self, q) -> list:
        out = worker.run_pipeline(self.SCAN.empty_table(), qc.compile_plan(q.plan))
        return out.schema.names

    def test_avg_splits_into_sum_and_count(self):
        q = source().aggregate(
            ["k"],
            [pl.AggSpec("m", "avg", col("a")), pl.AggSpec("n", "count")],
        )
        assert self._names(q) == ["k", "m__sum", "m__cnt", "n"]

    def test_sum_min_max_stay_single_column(self):
        q = source().aggregate(
            [],
            [
                pl.AggSpec("s", "sum", col("a")),
                pl.AggSpec("lo", "min", col("a")),
                pl.AggSpec("hi", "max", col("a")),
            ],
        )
        assert self._names(q) == ["s", "lo", "hi"]

    def test_keys_lead_the_schema(self):
        q = source().aggregate(["k1", "k2"], [pl.AggSpec("s", "sum", col("a"))])
        assert self._names(q) == ["k1", "k2", "s"]
