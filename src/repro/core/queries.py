"""TPC-H Queries 1 and 6 — the paper's evaluation queries (§5.2-§5.4) — plus
the Listing 1 example query.

"Query 1 selects 98 % of the relation and uses seven attributes, Query 6
selects only 2 % of it, but uses four attributes." With the provided
TPC-H-lite generator (uniform shipdates over 1992-01-01..1998-12-31) the
selectivities are ~95 % and ~1.8 % — same shape, noted in EXPERIMENTS.md.

Each query is defined twice: as a Lambada plan (executed by our engine) and
as SQL (executed by DuckDB through ``repro.oracle.assert_equivalent`` and by
Spark SQL for the QaaS baselines). Output columns are aliased identically.
"""
from __future__ import annotations

from .expr import col, lit
from .frontend import Dataset
from .plan import AggSpec

#: Q1's date cutoff: 1998-12-01 minus 90 days.
Q1_CUTOFF = "1998-09-02"

Q1_COLUMNS = [
    "l_quantity",
    "l_extendedprice",
    "l_discount",
    "l_tax",
    "l_returnflag",
    "l_linestatus",
    "l_shipdate",
]  # "seven attributes"
Q6_COLUMNS = ["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"]  # four


def q1(source: Dataset) -> Dataset:
    """TPC-H Q1: pricing summary report."""
    ep, disc, tax = col("l_extendedprice"), col("l_discount"), col("l_tax")
    return source.filter(col("l_shipdate") <= lit(Q1_CUTOFF)).aggregate(
        keys=["l_returnflag", "l_linestatus"],
        aggs=[
            AggSpec("sum_qty", "sum", col("l_quantity")),
            AggSpec("sum_base_price", "sum", ep),
            AggSpec("sum_disc_price", "sum", ep * (1 - disc)),
            AggSpec("sum_charge", "sum", ep * (1 - disc) * (1 + tax)),
            AggSpec("avg_qty", "avg", col("l_quantity")),
            AggSpec("avg_price", "avg", ep),
            AggSpec("avg_disc", "avg", disc),
            AggSpec("count_order", "count"),
        ],
    )


Q1_SQL = f"""
SELECT l_returnflag, l_linestatus,
       sum(l_quantity)                                       AS sum_qty,
       sum(l_extendedprice)                                  AS sum_base_price,
       sum(l_extendedprice * (1 - l_discount))               AS sum_disc_price,
       sum(l_extendedprice * (1 - l_discount) * (1 + l_tax)) AS sum_charge,
       avg(l_quantity)                                       AS avg_qty,
       avg(l_extendedprice)                                  AS avg_price,
       avg(l_discount)                                       AS avg_disc,
       count(*)                                              AS count_order
FROM lineitem
WHERE l_shipdate <= TIMESTAMP '{Q1_CUTOFF} 00:00:00'
GROUP BY l_returnflag, l_linestatus
"""


def q6(source: Dataset) -> Dataset:
    """TPC-H Q6: forecasting revenue change."""
    pred = (
        (col("l_shipdate") >= lit("1994-01-01"))
        & (col("l_shipdate") < lit("1995-01-01"))
        & col("l_discount").between(0.05, 0.07)
        & (col("l_quantity") < 24)
    )
    return source.filter(pred).reduce(
        "sum", col("l_extendedprice") * col("l_discount"), out_name="revenue"
    )


Q6_SQL = """
SELECT sum(l_extendedprice * l_discount) AS revenue
FROM lineitem
WHERE l_shipdate >= TIMESTAMP '1994-01-01 00:00:00'
  AND l_shipdate <  TIMESTAMP '1995-01-01 00:00:00'
  AND l_discount BETWEEN 0.05 AND 0.07
  AND l_quantity < 24
"""


def listing1(source: Dataset) -> Dataset:
    """The paper's Listing 1 example: filter, map, reduce over two columns."""
    return (
        source.filter(col("l_discount") >= 0.05)
        .map(value=col("l_discount") * col("l_extendedprice"))
        .reduce("sum", col("value"), out_name="value")
    )


LISTING1_SQL = """
SELECT sum(l_discount * l_extendedprice) AS value
FROM lineitem
WHERE l_discount >= 0.05
"""
