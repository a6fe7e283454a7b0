"""S3 exchange on Spark: data correctness and exact request accounting.

Every variant must (a) place each record on the worker equal to its
partition ID, Spark's `pmod(xxhash64(k), P)`, (b) preserve the input multiset,
and (c) issue exactly the request counts of `algorithms.expected_requests`
(which tie to Table 2).
"""
import copy
import functools
import os
import uuid

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark import SparkContext
from pyspark.sql import functions as F

from repro import synth_data
from repro.exchange import algorithms as alg
from repro.exchange import naming, runner, serde
from repro.s3.store import Ledger, S3Store

try:  # the class that runs the actions, as the benchmark's tracing wraps it
    from pyspark.sql.classic.dataframe import DataFrame
except ImportError:  # pyspark < 4
    from pyspark.sql import DataFrame

SPECS = [
    alg.ExchangeSpec(1, False),
    alg.ExchangeSpec(1, True),
    alg.ExchangeSpec(2, False),
    alg.ExchangeSpec(2, True),
    alg.ExchangeSpec(3, False),
    alg.ExchangeSpec(3, True),
]


@pytest.fixture(scope="module")
def xinput(spark):
    df = synth_data.uniform_keys(spark, n=8000, n_keys=300, seed=11)
    return df, df.toPandas()


@pytest.fixture(scope="module")
def xstore(tmp_path_factory):
    return S3Store(tmp_path_factory.mktemp("xstore"))


def _run(spark, xinput, xstore, spec, P):
    df, in_pdf = xinput
    run_id = uuid.uuid4().hex[:8]
    out, rep = runner.run_exchange(spark, df, P, spec, xstore, run_id=run_id)
    _assert_keys_within_bound(xstore, spec, run_id, serde.max_frame_bytes(df.toArrow(), P))
    # Spark's own partition function, evaluated over the output
    pdf = out.withColumn("spark_pid", F.pmod(F.xxhash64("k"), F.lit(P)).cast("int")).toPandas()
    return pdf, rep, in_pdf


def _assert_keys_within_bound(store, spec, run_id, bound):
    """Every part length in the write-combined keys the run stored is within
    the bound the driver's key check assumed."""
    if not spec.write_combining:
        return
    client = store.client()
    keys = [
        k
        for b in naming.exchange_buckets(spec.n_buckets)
        for k in client.list(b, f"{run_id}/l")
    ]
    assert keys
    for key in keys:
        _, lengths = naming.parse_combined(key)
        assert max(lengths) <= bound


def _assert_exact(rep, P, spec):
    """The exchange ledger is ``expected_requests``, request for request."""
    exp = alg.expected_requests(P, spec)
    got = {k: getattr(rep.ledger, k) for k in ("puts", "gets", "lists", "heads", "deletes")}
    assert got == {k: exp[k] for k in ("puts", "gets", "lists")} | {"heads": 0, "deletes": 0}


def _input_shares(store, spec, run_id):
    """The stored input shares of run ``run_id``, one payload per source worker."""
    client = store.client()
    bucket = naming.bucket_for_group(0, spec.n_buckets)
    return [client.get(bucket, k) for k in client.list(bucket, f"{run_id}/in/")]


class TestPartitionIds:
    """``partition_ids`` is Spark's ``pmod(xxhash64(k), n)``, bit for bit."""

    EDGES = [0, -1, 2**63 - 1, -(2**63), None]

    @pytest.mark.parametrize("n", [1, 8, 16, 27])
    def test_matches_spark_xxhash64(self, spark, n):
        rand = np.random.default_rng(5).integers(-(2**63), 2**63 - 1, 10_000, dtype=np.int64)
        keys = pa.array(self.EDGES + rand.tolist(), pa.int64())
        df = spark.createDataFrame([(k,) for k in keys.to_pylist()], "k bigint")
        want = df.select(F.pmod(F.xxhash64("k"), F.lit(n)).cast("int").alias("p")).toPandas()["p"]
        got = runner.partition_ids(keys, n)
        assert got.dtype == np.int32
        np.testing.assert_array_equal(got, want.to_numpy())


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label)
class TestAllVariants:
    P = {1: 8, 2: 16, 3: 27}

    def test_placement_and_content(self, spark, xinput, xstore, spec):
        out, rep, in_pdf = _run(spark, xinput, xstore, spec, self.P[spec.levels])
        # every record sits on the worker equal to its partition id, which
        # is Spark's pmod(xxhash64(k), P)
        assert (out["pid"] == out["worker"]).all()
        assert (out["pid"] == out["spark_pid"]).all()
        # multiset equality with the input
        a = out[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
        b = in_pdf[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

    def test_request_counts_exact(self, spark, xinput, xstore, spec):
        P = self.P[spec.levels]
        _, rep, _ = _run(spark, xinput, xstore, spec, P)
        exp = alg.expected_requests(P, spec)
        assert rep.ledger.puts == exp["puts"]
        assert rep.ledger.gets == exp["gets"]
        assert rep.ledger.lists == exp["lists"]


class TestDetails:
    def test_every_partition_nonempty_worker_gets_rows(self, spark, xinput, xstore):
        out, rep, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, True), 16)
        assert set(out["worker"].unique()) == set(range(16))

    def test_data_scanned_k_times(self, spark, xinput, xstore):
        """Table 2 #scans: each level writes+reads the whole input once."""
        _, rep1, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(1, True), 8)
        _, rep2, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, True), 8)
        assert rep2.ledger.bytes_written > 1.5 * rep1.ledger.bytes_written

    def test_bucket_spreading_across_buckets(self, spark, xinput, xstore):
        _, rep, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, False, n_buckets=4), 16)
        touched = {b for b in rep.ledger.per_bucket if b.startswith("xbkt")}
        assert len(touched) == 4

    def test_single_bucket_concentrates_requests(self, spark, xinput, xstore):
        _, rep, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, False, n_buckets=1), 16)
        assert list(rep.ledger.per_bucket) == ["xbkt0"]

    def test_report_phase_ledgers(self, spark, xinput, xstore):
        _, rep, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(2, True), 16)
        assert len(rep.per_phase) == 2
        assert rep.output_rows == rep.input_rows == 8000

    def test_input_io_separated_from_exchange(self, spark, xinput, tmp_path):
        """One PUT per non-empty source share when distributing, one GET of
        each when level 0 reads it; no exchange request counts as input."""
        spec = alg.ExchangeSpec(1, False)
        store = S3Store(tmp_path)
        _, rep = runner.run_exchange(spark, xinput[0], 8, spec, store, run_id="r")
        shares = _input_shares(store, spec, "r")
        assert shares
        assert rep.input_ledger.puts == rep.input_ledger.gets == len(shares)

    def test_input_shares_are_the_input_rows(self, spark, xinput, tmp_path):
        """Source worker p stores rows ``[p*n//P, (p+1)*n//P)`` of the input
        as they are: in order, in one record batch, no derived column."""
        spec, P = alg.ExchangeSpec(2, True), 16
        store = S3Store(tmp_path)
        runner.run_exchange(spark, xinput[0], P, spec, store, run_id="r")
        rows = xinput[0].toArrow()
        n = rows.num_rows
        client = store.client()
        bucket = naming.bucket_for_group(0, spec.n_buckets)
        for p in range(P):
            lo, hi = p * n // P, (p + 1) * n // P
            with pa.ipc.open_stream(client.get(bucket, naming.input_key("r", p))) as r:
                batches = list(r)
            assert len(batches) == 1
            share = pa.Table.from_batches(batches)
            assert share.schema.names == ["k", "v"]
            assert share.equals(rows.slice(lo, hi - lo))

    def test_single_worker_degenerate(self, spark, xinput, xstore):
        out, rep, in_pdf = _run(spark, xinput, xstore, alg.ExchangeSpec(1, True), 1)
        assert len(out) == len(in_pdf)
        assert (out["worker"] == 0).all()

    def test_report_is_a_snapshot(self, spark, xinput, tmp_path):
        """Re-evaluating the output reads the store again; the report keeps
        the counts of the run, and the store holds exchange buckets only."""
        store = S3Store(tmp_path)
        out, rep = runner.run_exchange(spark, xinput[0], 16, alg.ExchangeSpec(2, True), store)
        before = copy.deepcopy((rep.ledger, rep.per_phase, rep.input_ledger))
        assert out.count() == 8000
        assert (rep.ledger, rep.per_phase, rep.input_ledger) == before
        assert all(b.name.startswith("xbkt") for b in store.root.iterdir())


class TestCallPattern:
    def test_four_actions_and_one_topandas(self, spark, xinput, tmp_path, monkeypatch):
        """Four barriered actions (distribute, two levels, collect), one
        ``toPandas`` for the empty-share template and one ``toArrow`` that
        reads the input, counted in the driver."""
        calls = []
        for name in ("collect", "count", "toPandas", "toArrow"):
            orig = getattr(DataFrame, name)

            def wrapped(self, *a, _orig=orig, _name=name, **kw):
                calls.append(_name)
                return _orig(self, *a, **kw)

            monkeypatch.setattr(DataFrame, name, wrapped)
        spec = alg.ExchangeSpec(2, True)
        runner.run_exchange(spark, xinput[0], 16, spec, S3Store(tmp_path))
        monkeypatch.undo()
        assert calls == ["toPandas", "toArrow", "collect", "collect", "collect", "count"]

    def test_input_read_once(self, spark, xinput, tmp_path):
        """Of the input, only its schema and one ``toArrow()`` are used."""

        class Recorder:
            def __init__(self, df):
                self.df, self.used = df, []

            def __getattr__(self, name):
                self.used.append(name)
                return getattr(self.df, name)

        df = Recorder(xinput[0])
        _, rep = runner.run_exchange(spark, df, 16, alg.ExchangeSpec(2, True), S3Store(tmp_path))
        assert set(df.used) == {"schema", "toArrow"}
        assert df.used.count("toArrow") == 1
        assert rep.output_rows == 8000


class TestNothingLeftBehind:
    @pytest.mark.parametrize(
        "fault", [None, "_count", "_write_level_files"], ids=["ok", "distribute-fails", "level0-fails"]
    )
    def test_broadcast_files_removed(self, spark, xinput, tmp_path, monkeypatch, fault):
        """The input's one broadcast is destroyed, its driver-side file
        removed, whether the run ends or a phase fails: the distribute phase
        (``_count``) or level 0 (``_write_level_files``)."""
        made = []
        broadcast = SparkContext.broadcast

        def spy(self, value):
            made.append(broadcast(self, value))
            return made[-1]

        def boom(*args):  # defined here, so it is pickled to the workers by value
            raise RuntimeError("injected fault")

        monkeypatch.setattr(SparkContext, "broadcast", spy)
        run = functools.partial(
            runner.run_exchange, spark, xinput[0], 16, alg.ExchangeSpec(2, True), S3Store(tmp_path)
        )
        if fault:
            monkeypatch.setattr(runner, fault, boom)
            with pytest.raises(Exception, match="injected fault"):
                run()
        else:
            run()
        assert len(made) == 1
        assert not os.path.exists(made[0]._path)


    def test_output_not_cached(self, spark, xinput, tmp_path):
        """The output is a plan over the store, not a cached frame: the run
        leaves Spark's cache manager empty, and the output still evaluates."""
        out, _ = runner.run_exchange(spark, xinput[0], 16, alg.ExchangeSpec(2, True), S3Store(tmp_path))
        assert spark._jsparkSession.sharedState().cacheManager().isEmpty()
        assert out.count() == 8000


class TestKeyLimit:
    def test_too_long_key_rejected_before_any_job(self, spark, xinput, tmp_path, monkeypatch):
        """P = 256 in one level puts 256 part lengths in every key, past the
        1 KiB limit: the driver raises before any worker job, so nothing is
        stored (a level would otherwise fail after some workers PUT)."""
        jobs = []
        run_on_workers = runner.run_on_workers

        def spy(*args, **kwargs):
            jobs.append(args[2])
            return run_on_workers(*args, **kwargs)

        monkeypatch.setattr(runner, "run_on_workers", spy)
        with pytest.raises(naming.KeyTooLong, match="1 KiB"):
            runner.run_exchange(spark, xinput[0], 256, alg.ExchangeSpec(1, True), S3Store(tmp_path))
        assert jobs == []
        assert not [f for f in tmp_path.rglob("*") if f.is_file()]


class TestKeyType:
    @pytest.mark.parametrize("key_type", ["int", "string"])
    def test_non_bigint_key_rejected(self, spark, tmp_path, key_type):
        df = spark.createDataFrame([], f"k {key_type}, v double")
        with pytest.raises(TypeError, match=f"not {key_type}$"):
            runner.run_exchange(spark, df, 4, alg.ExchangeSpec(1, True), S3Store(tmp_path))
        assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def few_keys(spark):
    """Fewer distinct keys than workers: every source worker has an input
    share, but most final workers receive no rows."""
    df = synth_data.uniform_keys(spark, n=500, n_keys=5, seed=3)
    return df, df.toPandas()


@pytest.mark.parametrize(
    "spec", [alg.ExchangeSpec(1, False), alg.ExchangeSpec(2, True)], ids=lambda s: s.label
)
def test_empty_shares(spark, xinput, few_keys, xstore, spec):
    P = 16
    out, rep = runner.run_exchange(spark, few_keys[0], P, spec, xstore)
    ref, _ = runner.run_exchange(spark, xinput[0], P, spec, xstore)
    assert out.schema == ref.schema
    pdf = out.toPandas()
    assert pdf["pid"].nunique() < P
    assert (pdf["pid"] == pdf["worker"]).all()
    a = pdf[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
    b = few_keys[1][["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    exp = alg.expected_requests(P, spec)
    got = {k: getattr(rep.ledger, k) for k in ("puts", "gets", "lists")}
    assert got == {k: exp[k] for k in ("puts", "gets", "lists")}


@pytest.mark.parametrize(
    "spec", [alg.ExchangeSpec(1, False), alg.ExchangeSpec(2, True)], ids=lambda s: s.label
)
def test_fewer_rows_than_workers(spark, tmp_path, spec):
    """5 rows over 16 workers: 11 source workers store no share, and the
    exchange still bills exactly its closed form."""
    P = 16
    df = synth_data.uniform_keys(spark, n=5, n_keys=5, seed=3)
    store = S3Store(tmp_path)
    out, rep = runner.run_exchange(spark, df, P, spec, store, run_id="r")
    pdf = out.toPandas()
    assert len(_input_shares(store, spec, "r")) == 5
    assert rep.input_ledger.puts == rep.input_ledger.gets == 5
    assert (pdf["pid"] == pdf["worker"]).all()
    a = pdf[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
    b = df.toPandas().sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    _assert_exact(rep, P, spec)


def test_empty_input(spark, tmp_path):
    spec, P = alg.ExchangeSpec(2, True), 16
    df = spark.createDataFrame([], "k bigint, v double")
    out, rep = runner.run_exchange(spark, df, P, spec, S3Store(tmp_path))
    assert out.count() == 0
    assert rep.input_rows == rep.output_rows == 0
    assert rep.input_ledger == Ledger()
    _assert_exact(rep, P, spec)


@pytest.mark.parametrize(
    "P,spec,counts",
    [(256, alg.ExchangeSpec(2, True), (512, 8_192, 512)), (1024, alg.ExchangeSpec(3, True), (3_072, 32_768, 3_072))],
    ids=["P256-2l-wc", "P1024-3l-wc"],
)
def test_ledger_exact_at_the_papers_worker_counts(spark, xinput, xstore, P, spec, counts):
    """Table 2's sub-quadratic request counts, measured at the paper's P
    rather than only computed in closed form. The module's store keeps
    every earlier run, so each LIST also finds a bucket full of them."""
    out, rep, in_pdf = _run(spark, xinput, xstore, spec, P)
    assert (out["pid"] == out["worker"]).all()
    assert (out["pid"] == out["spark_pid"]).all()
    a = out[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
    b = in_pdf[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    _assert_exact(rep, P, spec)
    assert (rep.ledger.puts, rep.ledger.gets, rep.ledger.lists) == counts
