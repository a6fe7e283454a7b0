"""S3 exchange on Spark: data correctness and exact request accounting.

Every variant must (a) place each record on the worker equal to its
partition ID, Spark's `pmod(xxhash64(k), P)`, (b) preserve the input multiset,
and (c) issue exactly the request counts of `algorithms.expected_requests`
(which tie to Table 2).
"""
import copy

import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
from pyspark.sql import functions as F

from repro import synth_data
from repro.exchange import algorithms as alg
from repro.exchange import naming, runner, serde
from repro.s3.store import S3Store

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
    out, rep = runner.run_exchange(spark, df, P, spec, xstore)
    # Spark's own partition function, evaluated over the output
    pdf = out.withColumn("spark_pid", F.pmod(F.xxhash64("k"), F.lit(P)).cast("int")).toPandas()
    out.unpersist()
    return pdf, rep, in_pdf


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
        out, rep = runner.run_exchange(spark, xinput[0], 8, spec, store, run_id="r")
        out.unpersist()
        shares = _input_shares(store, spec, "r")
        assert shares
        assert rep.input_ledger.puts == rep.input_ledger.gets == len(shares)

    def test_input_shares_are_the_input_rows(self, spark, xinput, tmp_path):
        """The source workers' shares R_p hold the input rows as they are:
        no derived column is stored."""
        spec = alg.ExchangeSpec(2, True)
        store = S3Store(tmp_path)
        out, _ = runner.run_exchange(spark, xinput[0], 16, spec, store, run_id="r")
        out.unpersist()
        shares = pa.concat_tables(serde.bytes_to_frame(b) for b in _input_shares(store, spec, "r"))
        assert shares.schema.names == ["k", "v"]
        a = shares.to_pandas().sort_values(["k", "v"]).reset_index(drop=True)
        b = xinput[1].sort_values(["k", "v"]).reset_index(drop=True)
        pd.testing.assert_frame_equal(a, b)

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
        out.unpersist()
        assert out.count() == 8000
        assert (rep.ledger, rep.per_phase, rep.input_ledger) == before
        assert all(b.name.startswith("xbkt") for b in store.root.iterdir())


class TestCallPattern:
    def test_four_actions_and_one_topandas(self, spark, xinput, tmp_path, monkeypatch):
        """Four barriered actions (distribute, two levels, collect) and one
        ``toPandas`` for the empty-share template, counted in the driver."""
        calls = []
        for name in ("collect", "count", "toPandas"):
            orig = getattr(DataFrame, name)

            def wrapped(self, *a, _orig=orig, _name=name, **kw):
                calls.append(_name)
                return _orig(self, *a, **kw)

            monkeypatch.setattr(DataFrame, name, wrapped)
        spec = alg.ExchangeSpec(2, True)
        out, _ = runner.run_exchange(spark, xinput[0], 16, spec, S3Store(tmp_path))
        monkeypatch.undo()
        out.unpersist()
        assert calls == ["toPandas", "collect", "collect", "collect", "count"]


class TestKeyType:
    @pytest.mark.parametrize("key_type", ["int", "string"])
    def test_non_bigint_key_rejected(self, spark, tmp_path, key_type):
        df = spark.createDataFrame([], f"k {key_type}, v double")
        with pytest.raises(TypeError, match=f"not {key_type}$"):
            runner.run_exchange(spark, df, 4, alg.ExchangeSpec(1, True), S3Store(tmp_path))
        assert not any(tmp_path.iterdir())


@pytest.fixture(scope="module")
def few_keys(spark):
    """Fewer distinct keys than workers: most source workers have no input
    share and most final workers receive no rows."""
    df = synth_data.uniform_keys(spark, n=500, n_keys=5, seed=3)
    return df, df.toPandas()


@pytest.mark.parametrize(
    "spec", [alg.ExchangeSpec(1, False), alg.ExchangeSpec(2, True)], ids=lambda s: s.label
)
def test_empty_shares(spark, xinput, few_keys, xstore, spec):
    P = 16
    out, rep = runner.run_exchange(spark, few_keys[0], P, spec, xstore)
    ref, _ = runner.run_exchange(spark, xinput[0], P, spec, xstore)
    try:
        assert out.schema == ref.schema
        pdf = out.toPandas()
    finally:
        out.unpersist()
        ref.unpersist()
    assert pdf["pid"].nunique() < P
    assert (pdf["pid"] == pdf["worker"]).all()
    a = pdf[["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
    b = few_keys[1][["k", "v"]].sort_values(["k", "v"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(a, b)
    exp = alg.expected_requests(P, spec)
    got = {k: getattr(rep.ledger, k) for k in ("puts", "gets", "lists")}
    assert got == {k: exp[k] for k in ("puts", "gets", "lists")}
