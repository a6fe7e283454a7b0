"""Spark executor-model baseline.

The reproduction hint asks for "a Spark job scheduling/execution analysis
comparing serverless function-based task scheduling against Spark's executor
model for scanning cold data". Two pieces:

* :func:`run_sql_baseline` executes the evaluation queries on a *real* Spark
  SQL engine (Catalyst over the session's executors) — the always-on engine's
  result semantics, oracle-checked in tests and timed in benchmarks;
* :func:`scheduling_comparison` contrasts, at paper scale, a job-scoped Spark
  cluster (fixed executors, 2 min cluster startup amortised over one query —
  Fig 1a's IaaS curve) with Lambada's function-per-file scheduling (4 s
  startup, per-second billing). This is exactly the paper's introductory
  argument for why FaaS wins interactive-on-cold-data.
"""
from __future__ import annotations

import time

import pandas as pd
from pyspark.sql import DataFrame, SparkSession

from ..sim import figure1
from .base import run_sql


def run_sql_baseline(
    spark: SparkSession, sql: str, **tables: pd.DataFrame
) -> tuple[DataFrame, float]:
    """Execute on Spark SQL; returns (result df, local wall seconds)."""
    t0 = time.monotonic()
    df = run_sql(spark, sql, **tables)
    df.collect()
    return df, time.monotonic() - t0


def scheduling_comparison() -> list[dict]:
    """Executor model vs FaaS scheduling for Fig 1's cold 1 TB scan.

    Fleets are bandwidth-matched (a c5n.xlarge carries ~13 worker-equivalents
    of S3 scan bandwidth), so the comparison isolates the *scheduling* cost:
    cluster startup + coarse executors vs 4 s function invocation.
    """
    from ..s3.pricing import EC2_INSTANCES
    from ..sim import netmodel

    per_inst = EC2_INSTANCES["c5n.xlarge"][1] * 1e6
    per_worker = netmodel.steady_bandwidth(2048)
    workers_per_inst = max(1, round(per_inst / per_worker))
    rows = []
    for n_inst in (4, 16, 64, 256):
        iaas = figure1.iaas_job_scoped(figure1.DATA_BYTES, n_inst)
        faas = figure1.faas_job_scoped(figure1.DATA_BYTES, n_inst * workers_per_inst)
        rows.append(
            {
                "instances": n_inst,
                "faas_workers": n_inst * workers_per_inst,
                "spark_executor_latency_s": iaas.latency_s,
                "spark_executor_cost_usd": iaas.cost_usd,
                "lambada_latency_s": faas.latency_s,
                "lambada_cost_usd": faas.cost_usd,
            }
        )
    return rows
