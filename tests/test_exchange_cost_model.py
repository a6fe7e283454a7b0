"""Table 2 closed forms priced at S3 rates — the Fig 9 claims."""
import pytest

from repro.exchange import cost_model as cm
from repro.exchange.algorithms import ExchangeSpec


class TestTable2Forms:
    def test_one_level_quadratic(self):
        c = cm.table2_counts(1000, ExchangeSpec(1, False))
        assert c["reads"] == c["writes"] == 1_000_000
        assert c["scans"] == 1

    def test_two_level_sqrt(self):
        c = cm.table2_counts(1024, ExchangeSpec(2, False))
        assert c["reads"] == pytest.approx(2 * 1024 * 32)
        assert c["scans"] == 2

    def test_wc_writes_linear(self):
        c = cm.table2_counts(1024, ExchangeSpec(2, True))
        assert c["writes"] == pytest.approx(2 * 1024)
        assert c["reads"] == pytest.approx(2 * 1024 * 32)


class TestFig9Claims:
    def test_1l_at_4k_costs_about_100_dollars(self):
        """§4.4.1: 'running the algorithm on 4 TiB costs about $100 for the
        requests to S3 and $3.3 for running the workers'."""
        cost = cm.exchange_cost(4096, ExchangeSpec(1, False))
        assert 70 < cost.request_cost < 130
        assert 1 < cost.worker_cost_high < 10

    def test_wc_makes_write_cost_negligible(self):
        """§4.4.4: 'write combining reduces the write costs to a negligible
        amount, [but] the read cost ... can still be dominant'."""
        plain = cm.exchange_cost(4096, ExchangeSpec(1, False))
        wc = cm.exchange_cost(4096, ExchangeSpec(1, True))
        assert wc.write_cost < plain.write_cost / 100
        assert wc.read_cost == plain.read_cost
        assert wc.read_cost > wc.worker_cost_high  # reads still dominant

    @pytest.mark.parametrize("p", [64, 256, 1024, 4096])
    def test_two_levels_always_cheaper_than_one(self, p):
        """§4.4.4: 'Using two levels has always lower request costs'."""
        one = cm.exchange_cost(p, ExchangeSpec(1, False)).request_cost
        two = cm.exchange_cost(p, ExchangeSpec(2, False)).request_cost
        assert two < one

    def test_2l_wc_below_worker_cost_at_scale(self):
        """§4.4.4: 2l-wc 'reduces the costs of all requests ... below the
        worker costs in almost all configurations'."""
        cost = cm.exchange_cost(1024, ExchangeSpec(2, True))
        assert cost.request_cost < cost.worker_cost_high

    def test_3l_wc_negligible(self):
        """§4.4.4: 3l-wc brings request costs 'to a negligible level'."""
        cost = cm.exchange_cost(4096, ExchangeSpec(3, True))
        assert cost.request_cost < 0.1 * cost.worker_cost_high

    def test_costs_monotone_in_workers(self):
        costs = [
            cm.exchange_cost(p, ExchangeSpec(2, True)).request_cost
            for p in (64, 256, 1024)
        ]
        assert costs == sorted(costs)

    def test_offsets_variant_crossover(self):
        """§4.4.3: filename-encoded offsets are 'cheaper for more than about
        12 workers' — P^2 extra GETs vs P LISTs."""
        at12 = cm.offsets_variant_costs(12)
        at13 = cm.offsets_variant_costs(13)
        assert at12["sidecar_extra_usd"] < at12["filename_extra_usd"]
        assert at13["sidecar_extra_usd"] > at13["filename_extra_usd"]

    def test_figure9_sweep_shape(self):
        rows = cm.figure9()
        assert len(rows) == 5 * 6
        assert {r["algorithm"] for r in rows} == {"1l", "1l-wc", "2l", "2l-wc", "3l", "3l-wc"}

    def test_figure9_values_quoted_in_experiments(self):
        """The 4096-worker figures EXPERIMENTS.md quotes, as rounded there."""
        rows = {r["algorithm"]: r for r in cm.figure9((4096,))}
        assert round(rows["1l"]["request_cost_usd"], 1) == 90.6
        assert round(rows["2l-wc"]["request_cost_usd"], 2) == 0.29
        assert round(rows["3l-wc"]["request_cost_usd"], 2) == 0.20
        assert round(rows["1l"]["worker_cost_low_usd"], 2) == 0.16
        assert round(rows["1l"]["worker_cost_high_usd"], 1) == 4.9
        assert (rows["1l"]["reads"], rows["1l"]["writes"]) == (4096**2, 4096**2)
        assert (rows["3l-wc"]["writes"], rows["3l-wc"]["scans"]) == (3 * 4096, 3)
