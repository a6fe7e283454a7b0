"""Benchmarks for Figs 10-12: Q1/Q6 on the Lambada engine at SF 0.1 over the
simulated S3, and the Spark SQL (QaaS engine) baseline on the same data."""
import pytest

from repro import oracle
from repro.core import queries
from repro.qaas.base import run_sql
from repro.sim import experiments as X
from repro.sim import scaling


@pytest.mark.parametrize("qname", ["q1", "q6"])
def test_bench_lambada_query(benchmark, spark, bench_store_root, bench_ds, qname, result_df):
    info, pdf = bench_ds

    def run():
        return X.measure_query(spark, bench_store_root, info, qname)

    mq = benchmark.pedantic(run, rounds=1, iterations=1)
    _, sql, _ = X.QUERIES[qname]
    oracle.assert_equivalent(result_df(mq.result), sql, lineitem=pdf)
    # the paper-scale estimate stays interactive (<10 s, Fig 10/12)
    est = X.lambada_estimate(mq, scaling.SF1K)
    assert est.latency_s < 10


@pytest.mark.parametrize(
    "qname,sql",
    [("q1", queries.Q1_SQL), ("q6", queries.Q6_SQL)],
    ids=["q1", "q6"],
)
def test_bench_spark_sql_baseline(benchmark, spark, bench_ds, qname, sql):
    _, pdf = bench_ds

    def run():
        return run_sql(spark, sql, lineitem=pdf).collect()

    rows = benchmark.pedantic(run, rounds=1, iterations=1)
    assert rows
