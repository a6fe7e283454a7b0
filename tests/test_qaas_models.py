"""QaaS baseline models (Athena / BigQuery) and the worker latency model."""
import pytest

from repro.core.metrics import WorkerMetrics
from repro.qaas import athena, bigquery
from repro.sim import constants as C
from repro.sim import scaling, worker_model

GIB = 2**30


class TestAthenaModel:
    def test_price_counts_only_selected_rows(self):
        """§5.4.3: 'in Amazon Athena only the selected rows of these columns
        are counted' — Q6 pays for 2 %, Q1 for 98 %."""
        q1 = athena.estimate("q1", 100 * GIB, row_selectivity=0.98)
        q6 = athena.estimate("q6", 60 * GIB, row_selectivity=0.02)
        assert q1.cost_usd == pytest.approx(5 * 100 * 0.98 / 1024, rel=0.01)
        assert q6.cost_usd == pytest.approx(5 * 60 * 0.02 / 1024, rel=0.01)

    def test_latency_linear_in_data(self):
        """§5.4.2: 'their running time increases linearly'."""
        t1 = athena.estimate("q", 100 * GIB, row_selectivity=1).latency_s
        t10 = athena.estimate("q", 1000 * GIB, row_selectivity=1).latency_s
        assert (t10 - athena.STARTUP_S) == pytest.approx(10 * (t1 - athena.STARTUP_S), rel=0.01)

    def test_fully_selective_query_is_free(self):
        """§5.4.3: 'a query becomes free if it filters out all tuples'."""
        est = athena.estimate("q", 100 * GIB, row_selectivity=0.0)
        assert est.cost_usd == 0.0


class TestBigQueryModel:
    def test_capacitor_format_5x_larger(self):
        """§5.4.1: 823 GiB vs 151 GiB Parquet — 'over 5x larger'."""
        assert bigquery.CAPACITOR_FACTOR == pytest.approx(5.45, rel=0.01)
        assert bigquery.capacitor_bytes(151 * GIB) == pytest.approx(823 * GIB, rel=0.01)

    def test_load_time_40min_at_sf1k(self):
        """§5.4.2: 'loading ... takes about 40 min and 6.7 h' (linear)."""
        t1k = bigquery.load_seconds(151 * GIB)
        assert t1k == pytest.approx(40 * 60, rel=0.05)
        assert bigquery.load_seconds(1510 * GIB) == pytest.approx(10 * t1k, rel=0.01)

    def test_query_latency_sublinear(self):
        """§5.4.2: running time 'increases ... sublinearly'."""
        t1 = bigquery.estimate("q", 151 * GIB, 0.5).latency_s
        t10 = bigquery.estimate("q", 1510 * GIB, 0.5).latency_s
        assert t1 < t10 < 10 * t1

    def test_reference_anchored_at_paper_q1(self):
        """Hot Q1 at SF 1k ran in 3.9 s."""
        est = bigquery.estimate("q1", C.PAPER_LINEITEM_PARQUET_BYTES, 0.5)
        assert est.latency_s == pytest.approx(3.9, rel=0.01)

    def test_price_ignores_selectivity(self):
        """§5.4.1: 'in Google BigQuery all columns are always counted in
        their entirety'."""
        a = bigquery.estimate("q", 151 * GIB, 0.5)
        assert a.cost_usd == pytest.approx(5 * 823 * 0.5 / 1024, rel=0.01)

    def test_cold_includes_load(self):
        est = bigquery.estimate("q", 151 * GIB, 0.5)
        assert est.cold_latency_s == pytest.approx(est.latency_s + est.load_s)


def _metrics(bytes_read=400_000_000, unc=450_000_000, pruned=False):
    m = WorkerMetrics(worker_id=0, n_files=1)
    if not pruned:
        m.row_groups_total, m.row_groups_scanned = 2, 2
        m.rows_read, m.uncompressed_bytes = 18_750_000, unc
        m.ledger = {"gets": 30, "bytes_read": bytes_read}
    else:
        m.row_groups_total = 2
        m.ledger = {"gets": 1, "bytes_read": 5000}
    return m


class TestWorkerModel:
    def test_pruned_worker_in_fig11_band(self):
        """Fig 11: pruned workers finish in 100-200 ms."""
        t = worker_model.worker_seconds(_metrics(pruned=True), 1792)
        assert 0.1 <= t <= 0.2

    def test_scanning_worker_in_fig11_band(self):
        """Fig 11: scanning workers take ~2-3 s at M=1792, F=1."""
        t = worker_model.worker_seconds(_metrics(), 1792)
        assert 1.5 <= t <= 4.0

    def test_memory_speeds_up_to_one_vcpu_then_flat(self):
        """Fig 10a: faster up to 1792 MiB, flat beyond (CPU-bound at 1 vCPU)."""
        t512 = worker_model.worker_seconds(_metrics(), 512)
        t1792 = worker_model.worker_seconds(_metrics(), 1792)
        t3008 = worker_model.worker_seconds(_metrics(), 3008)
        assert t512 > 1.5 * t1792
        assert t3008 == pytest.approx(t1792, rel=0.10)

    def test_cold_execution_penalty(self):
        hot = worker_model.worker_seconds(_metrics(), 1792)
        cold = worker_model.worker_seconds(_metrics(), 1792, cold=True)
        assert cold == pytest.approx(hot * C.COLD_EXEC_PENALTY, rel=0.01)


class TestScaling:
    def test_scale_worker_multiplies_volumes(self):
        m = _metrics()
        s = scaling.scale_worker(m, 2.0)
        assert s.uncompressed_bytes == 2 * m.uncompressed_bytes
        assert s.ledger["bytes_read"] == 2 * m.ledger["bytes_read"]
        assert s.ledger["gets"] == m.ledger["gets"]  # requests layout-invariant

    def test_paper_scales(self):
        assert scaling.SF1K.rows_total == 6_000_000_000
        assert scaling.SF10K.n_files == 3200
        assert scaling.SF1K.rows_per_worker() == pytest.approx(18_750_000)
