"""Expression IR: evaluation, column tracking, prune intervals."""
import pandas as pd
import pyarrow as pa
import pytest

from repro.core import expr as ex

BATCH = pa.table(
    {
        "a": [1.0, 2.0, 3.0, 4.0],
        "b": [10.0, 20.0, 30.0, 40.0],
        "d": pd.to_datetime(["1994-01-01", "1994-06-01", "1995-01-01", "1996-01-01"]),
        "i": pa.array([3, 4, 5, 6], pa.int64()),
        "j": pa.array([2, 2, 2, 4], pa.int64()),
    }
)


class TestEval:
    def test_col_and_lit(self):
        assert ex.col("a").eval(BATCH).to_pylist() == [1, 2, 3, 4]
        assert ex.lit(5).eval(BATCH) == 5

    @pytest.mark.parametrize(
        "e,expected",
        [
            (ex.col("a") + ex.col("b"), [11, 22, 33, 44]),
            (ex.col("b") - 5, [5, 15, 25, 35]),
            (ex.col("a") * 2, [2, 4, 6, 8]),
            (ex.col("b") / ex.col("a"), [10, 10, 10, 10]),
            (1 - ex.col("a"), [0, -1, -2, -3]),
            (3 * ex.col("a"), [3, 6, 9, 12]),
            ((1 + ex.col("a")) * (ex.col("b") - 10), [0, 30, 80, 150]),
        ],
    )
    def test_arithmetic(self, e, expected):
        assert e.eval(BATCH).to_pylist() == expected

    def test_division_of_integers_is_true_division(self):
        out = (ex.col("i") / ex.col("j")).eval(BATCH)
        assert out.type == pa.float64()
        assert out.to_pylist() == [1.5, 2.0, 2.5, 1.5]

    @pytest.mark.parametrize(
        "p,expected",
        [
            (ex.col("a") <= 2, [True, True, False, False]),
            (ex.col("a") < 2, [True, False, False, False]),
            (ex.col("a") >= 3, [False, False, True, True]),
            (ex.col("a") > 3, [False, False, False, True]),
            (ex.col("a").eq(2), [False, True, False, False]),
            (ex.col("a").between(2, 3), [False, True, True, False]),
        ],
    )
    def test_comparisons(self, p, expected):
        assert p.eval(BATCH).to_pylist() == expected

    def test_conjunction(self):
        p = (ex.col("a") >= 2) & (ex.col("b") <= 30)
        assert p.eval(BATCH).to_pylist() == [False, True, True, False]

    def test_date_literal(self):
        p = ex.col("d") < ex.lit("1995-01-01")
        assert p.eval(BATCH).to_pylist() == [True, True, False, False]

    def test_null_compares_to_null_and_the_row_is_dropped(self):
        t = pa.table({"x": pa.array([1, None, 3], pa.int64())})
        p = ex.col("x") <= 2
        assert p.eval(t).to_pylist() == [True, None, False]
        assert t.filter(p.eval(t))["x"].to_pylist() == [1]

    def test_non_date_string_stays_string(self):
        assert ex.lit("N").value == "N"


class TestColumns:
    def test_columns_tracked_through_tree(self):
        e = (ex.col("a") * (1 - ex.col("b"))) + ex.col("c")
        assert e.columns() == frozenset({"a", "b", "c"})

    def test_predicate_columns(self):
        p = (ex.col("a") <= 1) & ex.col("d").between(0, 1)
        assert p.columns() == frozenset({"a", "d"})


class TestConjuncts:
    def test_nested_and_flattens(self):
        p = ((ex.col("a") <= 1) & (ex.col("b") <= 2)) & (ex.col("c") <= 3)
        assert len(p.conjuncts()) == 3

    def test_single_predicate_is_own_conjunct(self):
        p = ex.col("a") <= 1
        assert p.conjuncts() == [p]


class TestPruneIntervals:
    @pytest.mark.parametrize(
        "p,expected",
        [
            (ex.col("a") <= ex.lit(5), [("a", None, 5)]),
            (ex.col("a") < ex.lit(5), [("a", None, 5)]),
            (ex.col("a") >= ex.lit(5), [("a", 5, None)]),
            (ex.col("a") > ex.lit(5), [("a", 5, None)]),
            (ex.col("a").eq(5), [("a", 5, 5)]),
            (ex.col("a").between(2, 8), [("a", 2, None), ("a", None, 8)]),
        ],
    )
    def test_bare_column_vs_literal(self, p, expected):
        """One interval per conjunct; BETWEEN is two comparisons."""
        assert [c.prune_interval() for c in p.conjuncts()] == expected

    def test_reversed_comparison_flips(self):
        assert (ex.lit(5) >= ex.col("a")).prune_interval() == ("a", None, 5)
        assert (ex.lit(5) < ex.col("a")).prune_interval() == ("a", 5, None)

    def test_computed_predicates_not_prunable(self):
        assert ((ex.col("a") * 2) <= ex.lit(5)).prune_interval() is None
        assert ((ex.col("a")) <= ex.col("b")).prune_interval() is None

    @pytest.mark.parametrize(
        "lo,hi,smin,smax,keep",
        [
            (None, 5, 6, 9, False),  # stats entirely above
            (None, 5, 3, 9, True),  # overlap
            (5, None, 1, 4, False),  # stats entirely below
            (5, None, 1, 5, True),  # boundary touches
            (2, 8, 9, 12, False),
            (2, 8, 0, 1, False),
            (2, 8, 1, 2, True),
            (None, None, -9, 9, True),
        ],
    )
    def test_interval_overlaps(self, lo, hi, smin, smax, keep):
        assert ex.interval_overlaps(lo, hi, smin, smax) is keep
