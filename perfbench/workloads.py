"""The benchmark's workloads: set-up, one timed op, its checks and its trace.

Each workload exposes the same steps to the closed loop in ``run.py``:

* ``setup(spark, work, seed)`` generates and uploads the inputs and returns
  the data set-up durations (the Spark session start is timed by the caller);
* ``op(i, spans)`` is the timed region: one call into the program;
* ``check(i, out)`` verifies the op's output outside the timed region and
  returns its request bill, raising :class:`CheckFailed` on a wrong result;
* ``cleanup(i, out)`` removes the op's state so that ops do not drift;
* ``traced_layers(out, spans, latency)`` and ``replay(i, out)`` give the
  per-layer numbers of a traced op and of an in-process replay.
"""
from __future__ import annotations

import shutil
import statistics
import time
from pathlib import Path

import duckdb
import pandas as pd
from pyspark.sql import functions as F

from repro import oracle, synth_data
from repro.core import compile as qc
from repro.core import dataset, engine
from repro.core import worker as core_worker
from repro.core.frontend import Lambada
from repro.core.metrics import QueryMetrics
from repro.exchange import algorithms as alg
from repro.exchange import naming, runner, serde
from repro.s3 import pricing
from repro.s3.store import Ledger, S3Client, S3Store
from repro.scan.parquet_scan import ParquetScanOperator
from repro.sim import constants as C
from repro.sim import experiments, worker_model

from tracing import Spans, patched

try:  # Spark 4 splits the classic DataFrame from the Connect one
    from pyspark.sql.classic.dataframe import DataFrame as SparkDataFrame
except ImportError:  # pragma: no cover - Spark 3
    from pyspark.sql import DataFrame as SparkDataFrame


class CheckFailed(AssertionError):
    """An op returned a wrong result or a wrong request count."""


def _bill(ledger: Ledger) -> dict:
    return {
        "gets": ledger.gets,
        "puts": ledger.puts,
        "lists": ledger.lists,
        "heads": ledger.heads,
        "deletes": ledger.deletes,
        "bytes_read": ledger.bytes_read,
        "bytes_written": ledger.bytes_written,
    }


def _store_layers(bill: dict) -> dict:
    return {f"s3.{k}": bill[k] for k in ("gets", "puts", "lists", "heads", "bytes_read", "bytes_written")}


STORE_TARGETS = [(S3Client, op, f"s3.{op}") for op in ("get", "put", "list", "head")]


def _store_times(spans: Spans) -> dict:
    return {f"s3.{op}_s": spans.seconds[f"s3.{op}"] for op in ("get", "put", "list", "head")}


# --------------------------------------------------------------------------
# TPC-H Q1 / Q6 on the engine
# --------------------------------------------------------------------------
class QueryWorkload:
    """TPC-H Q1 or Q6 through ``engine.run_query`` over sorted LINEITEM."""

    N_FILES = 16
    ROW_GROUPS_PER_FILE = 2
    #: ``experiments.measure_query``'s settings: 4 KiB chunks, 16 KiB footer
    #: hint, one worker per file.
    CHUNK_BYTES = 1 << 12
    FOOTER_HINT = 1 << 14
    MEMORY_MIB = 1792  # the paper's worker size, for the model check

    def __init__(self, qname: str, sf: float):
        self.qname = qname
        self.sf = sf

    def setup(self, spark, work: Path, seed: int) -> list[float]:
        self.spark = spark
        self.root = str(work / "s3")
        t = time.perf_counter()
        self.info, pdf = dataset.prepare_lineitem(
            spark,
            S3Store(self.root),
            sf=self.sf,
            n_files=self.N_FILES,
            row_groups_per_file=self.ROW_GROUPS_PER_FILE,
            seed=seed,
        )
        data_s = time.perf_counter() - t
        build, sql, _ = experiments.QUERIES[self.qname]
        self.query = build(Lambada(self.root).from_files(self.info.files))
        con = duckdb.connect()
        try:
            con.register("lineitem", pdf)
            self.expected = oracle._canon(con.execute(sql).fetchdf())
        finally:
            con.close()
        self.input_rows = self.info.n_rows
        return [data_s]

    def _run_id(self, i: int) -> str:
        return f"{self.qname}-{i}"

    def _queue_dir(self, i: int) -> Path:
        return Path(self.root) / engine.RESULT_BUCKET / self._run_id(i)

    def op(self, i: int, spans: Spans | None = None):
        def run():
            return engine.run_query(
                self.spark,
                self.root,
                self.query,
                files_per_worker=1,
                chunk_bytes=self.CHUNK_BYTES,
                footer_hint=self.FOOTER_HINT,
                run_id=self._run_id(i),
            )

        if spans is None:
            return run()
        targets = [
            (qc, "compile_plan", "compile.plan"),
            (SparkDataFrame, "toPandas", "engine.spark_action"),
            (engine, "run_query", "engine.run_query"),
        ]
        with patched(spans, targets):
            return run()

    def check(self, i: int, res) -> dict:
        try:
            pd.testing.assert_frame_equal(
                oracle._canon(res.result), self.expected, check_dtype=False
            )
        except AssertionError as e:
            raise CheckFailed(f"{self.qname} result differs from DuckDB: {e}") from None
        reports = sorted(self._queue_dir(i).glob("w*.json"))
        if res.n_workers != self.N_FILES or len(reports) != res.n_workers:
            raise CheckFailed(
                f"{len(reports)} result-queue reports for {res.n_workers} workers "
                f"(expected {self.N_FILES})"
            )
        ledger = _bill(res.metrics.total_ledger)
        # The result-queue PUTs go through a client whose ledger the engine
        # does not return; they are store requests all the same.
        queue_bytes = sum(p.stat().st_size for p in reports)
        bill = dict(ledger, puts=ledger["puts"] + len(reports))
        bill["bytes_written"] += queue_bytes
        ws = res.metrics.workers
        return {
            "requests": sum(bill[k] for k in ("gets", "puts", "lists", "heads", "deletes")),
            "bytes_read": bill["bytes_read"],
            "bytes_written": bill["bytes_written"],
            # must repeat exactly from op to op; the reports carry a float
            # timing whose printed length varies, so their bytes are left out
            "exact": dict(ledger, reports=len(reports)),
            "layers": {
                "engine.reports": len(reports),
                "worker.rows_read": sum(w.rows_read for w in ws),
                "worker.rows_out": sum(w.rows_out for w in ws),
                "worker.pruned_fraction": res.metrics.n_pruned / len(ws),
                **_store_layers(bill),
            },
        }

    def cleanup(self, i: int, res) -> None:
        shutil.rmtree(self._queue_dir(i), ignore_errors=True)

    def traced_layers(self, res, spans: Spans, latency_s: float) -> dict:
        if spans.calls["engine.spark_action"] != 1 or spans.calls["engine.run_query"] != 1:
            raise CheckFailed(f"unexpected call pattern {dict(spans.calls)}")
        busy = [w.wall_time_s for w in res.metrics.workers]
        run = spans.seconds["engine.run_query"]
        action = spans.seconds["engine.spark_action"]
        return {
            "compile.plan_s": spans.seconds["compile.plan"],
            "engine.run_query_s": run,
            "engine.spark_action_s": action,
            "engine.driver_s": run - action,
            "engine.orchestration_s": action - max(busy),
            "engine.orchestration_share": (action - max(busy)) / latency_s,
            "worker.busy_s_sum": sum(busy),
            "worker.busy_s_max": max(busy),
            "worker.busy_s_p50": statistics.median(busy),
        }

    def replay(self, i: int, res) -> dict:
        """Run the op's fragments again in this process, one at a time,
        with the scan, partial aggregation and store calls timed."""
        phys = qc.compile_plan(self.query.plan)
        n = len(phys.files)
        spans = Spans()
        metrics = []
        targets = STORE_TARGETS + [
            (ParquetScanOperator, "tables", "scan", "iter"),
            (core_worker, "_partial_aggregate", "worker.partial_agg"),
            (core_worker, "execute_fragment", "worker.fragment"),
        ]
        with patched(spans, targets):
            for w in range(n):
                _, m = core_worker.execute_fragment(
                    self.root,
                    w,
                    phys.files[w::n],
                    phys,
                    chunk_bytes=self.CHUNK_BYTES,
                    footer_hint=self.FOOTER_HINT,
                )
                metrics.append(m)
        scan_s = spans.seconds["scan"]
        store_s = sum(spans.seconds[f"s3.{op}"] for op in ("get", "head"))
        agg_s = spans.seconds["worker.partial_agg"]
        fetched = sum(m.ledger["bytes_read"] for m in metrics)
        qm = QueryMetrics(metrics)
        est = worker_model.estimate_query(qm, self.MEMORY_MIB)
        measured = {op: spans.calls[f"s3.{op}"] for op in ("get", "put", "list", "head")}
        return {
            "worker.scan_s": scan_s,
            "worker.partial_agg_s": agg_s,
            "worker.self_s": spans.seconds["worker.fragment"] - scan_s - agg_s,
            "scan.s": scan_s,
            "scan.self_s": scan_s - store_s,
            "scan.row_groups_scanned": sum(m.row_groups_scanned for m in metrics),
            "scan.row_groups_total": sum(m.row_groups_total for m in metrics),
            "scan.decode_bytes_per_s": sum(m.uncompressed_bytes for m in metrics)
            / (scan_s - store_s),
            "scan.fetch_efficiency": sum(m.compressed_bytes for m in metrics) / fetched,
            **_store_times(spans),
            "s3.requests_per_worker": sum(measured.values()) / n,
            "s3.request_usd_per_worker": pricing.request_cost_counts(
                gets=measured["get"], puts=measured["put"], lists=measured["list"], heads=measured["head"]
            )
            / n,
            "model.requests_per_worker": qm.total_ledger.requests / n,
            "model.request_usd_per_worker": est.request_cost_usd / n,
            "model.scan_bytes_per_vcpu_s": C.SCAN_BYTES_PER_VCPU_S,
        }


# --------------------------------------------------------------------------
# Two-level write-combining exchange
# --------------------------------------------------------------------------
class ExchangeWorkload:
    """``runner.run_exchange`` with 2l-wc over 16 workers (Table 2's input)."""

    P = 16
    SPEC = alg.ExchangeSpec(2, True)
    N_ROWS = 600_000
    N_KEYS = 20_000
    #: data set-ups per run; their median is reported (they are cheap)
    SETUP_REPEATS = 3
    PHASES = ("distribute", "level0", "level1", "collect")

    def setup(self, spark, work: Path, seed: int) -> list[float]:
        self.spark = spark
        self.work = work
        # A fixed run ID per seed fixes the hash-based source assignment, so
        # every op moves the same bytes; each op still gets a fresh store.
        self.run_id = f"s{seed}"
        durations = []
        for _ in range(self.SETUP_REPEATS):
            t = time.perf_counter()
            self.data = synth_data.uniform_keys(spark, n=self.N_ROWS, n_keys=self.N_KEYS, seed=seed)
            durations.append(time.perf_counter() - t)
        self.input_rows = self.N_ROWS
        self.expected = alg.expected_requests(self.P, self.SPEC)
        return durations

    def _store_root(self, i: int) -> Path:
        return self.work / "x" / str(i)

    def op(self, i: int, spans: Spans | None = None):
        store = S3Store(self._store_root(i))
        if spans is None:
            return runner.run_exchange(self.spark, self.data, self.P, self.SPEC, store, run_id=self.run_id)
        targets = [
            (SparkDataFrame, "collect", "spark.action"),
            (SparkDataFrame, "count", "spark.action"),
            (SparkDataFrame, "toPandas", "exchange.template"),
        ]
        with patched(spans, targets):
            return runner.run_exchange(self.spark, self.data, self.P, self.SPEC, store, run_id=self.run_id)

    def check(self, i: int, out) -> dict:
        df, rep = out
        got = {k: getattr(rep.ledger, k) for k in ("puts", "gets", "lists", "heads", "deletes")}
        want = {k: self.expected[k] for k in ("puts", "gets", "lists")} | {"heads": 0, "deletes": 0}
        if got != want:
            raise CheckFailed(f"exchange ledger {got} != expected {want}")
        if not rep.input_rows == rep.output_rows == self.N_ROWS:
            raise CheckFailed(f"rows in {rep.input_rows}, out {rep.output_rows}, want {self.N_ROWS}")
        misplaced = df.filter(F.col("pid") != F.col("worker")).count()
        if misplaced:
            raise CheckFailed(f"{misplaced} rows ended on the wrong worker")
        bill = _bill(Ledger().merge(rep.ledger).merge(rep.input_ledger))
        layers = _store_layers(bill)
        collect = Ledger().merge(rep.ledger)
        for lvl, phase in enumerate(rep.per_phase):
            for k in ("puts", "gets", "lists"):
                layers[f"exchange.level{lvl}.{k}"] = getattr(phase, k)
                setattr(collect, k, getattr(collect, k) - getattr(phase, k))
        for k in ("gets", "lists"):
            layers[f"exchange.collect.{k}"] = getattr(collect, k)
        return {
            "requests": sum(bill[k] for k in ("gets", "puts", "lists", "heads", "deletes")),
            "bytes_read": bill["bytes_read"],
            "bytes_written": bill["bytes_written"],
            "exact": bill,
            "layers": layers,
        }

    def cleanup(self, i: int, out) -> None:
        if out is not None:
            out[0].unpersist()
        shutil.rmtree(self._store_root(i), ignore_errors=True)

    def traced_layers(self, out, spans: Spans, latency_s: float) -> dict:
        actions = [dt for name, dt in spans.order if name == "spark.action"]
        if len(actions) != len(self.PHASES) or spans.calls["exchange.template"] != 1:
            raise CheckFailed(f"unexpected call pattern {dict(spans.calls)}")
        layers = {f"exchange.{p}_s": dt for p, dt in zip(self.PHASES, actions)}
        # everything outside the four phase jobs, of which the job that
        # builds the empty serde template frame is reported on its own
        layers["exchange.accounting_s"] = latency_s - sum(actions)
        layers["exchange.template_s"] = spans.seconds["exchange.template"]
        return layers

    def replay(self, i: int, out) -> dict:
        """Replay, in this process, every worker's reads of every level and
        every worker's level-0 partition-and-write of its input share."""
        client = S3Client(self._store_root(i))
        dims = alg.grid_dims(self.P, self.SPEC.levels)
        in_bucket = naming.bucket_for_group(0, self.SPEC.n_buckets)
        shares = [
            serde.bytes_to_frame(client.get(in_bucket, naming.input_key(self.run_id, p)))
            for p in range(self.P)
        ]
        spans = Spans()
        targets = STORE_TARGETS + [
            (serde, "bytes_to_frame", "serde.decode"),
            (serde, "frame_to_bytes", "serde.encode"),
            (runner, "_write_level_files", "exchange.write"),
        ]
        with patched(spans, targets):
            read0 = client.ledger.bytes_read
            for level in range(self.SPEC.levels):
                for p in range(self.P):
                    runner._read_level_files(client, self.run_id, level, p, dims, self.SPEC)
            decoded = client.ledger.bytes_read - read0
            written0 = client.ledger.bytes_written
            for p, rows in enumerate(shares):
                runner._write_level_files(client, "replay", 0, p, dims, self.SPEC, rows)
            encoded = client.ledger.bytes_written - written0
        partition_s = (
            spans.seconds["exchange.write"] - spans.seconds["serde.encode"] - spans.seconds["s3.put"]
        )
        return {
            **_store_times(spans),
            "exchange.partition_s_per_share": partition_s / self.P,
            "serde.encode_bytes_per_s": encoded / spans.seconds["serde.encode"],
            "serde.decode_bytes_per_s": decoded / spans.seconds["serde.decode"],
        }


WORKLOADS = {
    # Q1 needs SF 0.5 for worker time to stand out of Spark's overhead.
    "q1-scan": lambda: QueryWorkload("q1", sf=0.5),
    "exchange-2l-wc": ExchangeWorkload,
    # Not in BENCHMARK.json: its runs would not fit the measurement budget
    # next to the two above. Run it by hand for the orchestration-bound view:
    # 13 of 16 workers are fully pruned, so Spark dispatch and driver work
    # are nearly all of its wall time.
    "q6-pruned": lambda: QueryWorkload("q6", sf=0.5),
}
