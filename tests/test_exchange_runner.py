"""S3 exchange on Spark: data correctness and exact request accounting.

Every variant must (a) place each record on the worker equal to its
partition ID, (b) preserve the input multiset, and (c) issue exactly the
request counts of `algorithms.expected_requests` (which tie to Table 2).
"""
import copy

import pandas as pd
import pytest

from repro import synth_data
from repro.exchange import algorithms as alg
from repro.exchange import runner
from repro.s3.store import S3Store

SPECS = [
    alg.ExchangeSpec(1, False),
    alg.ExchangeSpec(1, True),
    alg.ExchangeSpec(2, False),
    alg.ExchangeSpec(2, True),
    alg.ExchangeSpec(2, True, "sidecar"),
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
    pdf = out.toPandas()
    out.unpersist()
    return pdf, rep, in_pdf


@pytest.mark.parametrize("spec", SPECS, ids=lambda s: s.label + ("-sc" if s.offsets_mode == "sidecar" else ""))
class TestAllVariants:
    P = {1: 8, 2: 16, 3: 27}

    def test_placement_and_content(self, spark, xinput, xstore, spec):
        out, rep, in_pdf = _run(spark, xinput, xstore, spec, self.P[spec.levels])
        # every record sits on the worker equal to its partition id
        assert (out["pid"] == out["worker"]).all()
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

    def test_input_io_separated_from_exchange(self, spark, xinput, xstore):
        _, rep, _ = _run(spark, xinput, xstore, alg.ExchangeSpec(1, False), 8)
        assert rep.input_ledger.puts >= 1  # distribute phase
        assert rep.input_ledger.gets >= 1  # input-share reads

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
        assert all(b.startswith("xbkt") for b in store.buckets())


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
    assert rep.requests == {k: exp[k] for k in ("puts", "gets", "lists")}
