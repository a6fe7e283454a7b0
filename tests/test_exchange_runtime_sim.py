"""Exchange-runtime DES vs Table 3 / Fig 13 / §5.5 claims."""
import pytest

from repro.sim import baselines, exchange_runtime as xr


class TestTable3:
    @pytest.mark.parametrize("p", [250, 500, 1000])
    def test_100gb_rows_within_tolerance(self, p):
        """Table 3: Lambada takes 22/15/13 s at 250/500/1000 workers."""
        got = xr.lambada_table3_row(100e9, p)
        assert got == pytest.approx(baselines.LAMBADA_TABLE3_S[p], rel=0.30)

    def test_runtime_decreases_with_workers(self):
        ts = [xr.lambada_table3_row(100e9, p) for p in (250, 500, 1000)]
        assert ts == sorted(ts, reverse=True)

    def test_diminishing_returns(self):
        """Doubling 500->1000 helps less than 250->500 (fixed overheads)."""
        t250, t500, t1000 = (xr.lambada_table3_row(100e9, p) for p in (250, 500, 1000))
        assert (t250 / t500) > (t500 / t1000)

    def test_1tb_and_3tb(self):
        """§5.5: 'It takes 56 s using 1250 workers for [1 TB] and 159 s using
        2500 workers for [3 TB]'."""
        assert xr.lambada_table3_row(1e12, 1250) == pytest.approx(56, rel=0.30)
        assert xr.lambada_table3_row(3e12, 2500) == pytest.approx(159, rel=0.30)

    def test_faster_than_pocket_s3_baseline(self):
        """Table 3: 'Lambada runs 5x faster' than the S3 baseline at 250."""
        ours = xr.lambada_table3_row(100e9, 250)
        pocket = xr.pocket_s3_baseline_runtime()
        assert pocket == pytest.approx(baselines.POCKET_S3_SECONDS_250, rel=0.30)
        assert pocket / ours > 3.0

    def test_competitive_with_pocket_vm(self):
        """Lambada (pure S3) is 2.5x/2x/1.4x faster than Pocket-on-VMs."""
        for p, pocket_s in baselines.POCKET_VM_SECONDS.items():
            assert xr.lambada_table3_row(100e9, p) < pocket_s

    def test_faster_than_locus(self):
        """'even with 250 workers, Lambada is about 4x faster than Locus'."""
        assert xr.lambada_table3_row(100e9, 250) < baselines.LOCUS_100GB_RANGE_S[0] / 2


class TestFig13:
    def test_waiting_dominates_at_3tb(self):
        """§5.5: 'more than half of the total execution time is due to
        stragglers and waiting' on 3 TB."""
        r = xr.simulate_exchange_runtime(3e12, 2500)
        assert r.waiting_fraction > 0.4

    def test_waiting_moderate_at_1tb(self):
        """'the wait time is moderate for the small dataset'."""
        r = xr.simulate_exchange_runtime(1e12, 1250)
        assert r.waiting_fraction < 0.3

    def test_fastest_worker_near_slowest_at_1tb(self):
        """'the fastest worker takes around 85% of the slowest worker'."""
        r = xr.simulate_exchange_runtime(1e12, 1250)
        assert 0.7 < r.fastest_to_slowest <= 1.0

    def test_3tb_more_than_2x_above_lower_bound(self):
        """'the total execution time is more than 2x as slow as it could be'."""
        r = xr.simulate_exchange_runtime(3e12, 2500)
        lower_bound = 5 * (3e12 / 2500) / (90 * 2**20)
        assert r.e2e_s > 1.8 * lower_bound

    def test_phase_breakdown_shape(self):
        r = xr.simulate_exchange_runtime(1e12, 1250)
        names = [p.name for p in r.phases]
        assert names[0] == "read input"
        assert sum(n.startswith("write") for n in names) == 2
        # write phases: stable to p95, then a tail (Fig 13 right)
        w = [p for p in r.phases if p.name.startswith("write")][0]
        assert w.p95_s < 1.3 * w.median_s
        assert w.slowest_s > w.p95_s

    def test_straggler_tail_grows_with_scale(self):
        assert xr.straggler_tail(2500) == pytest.approx(3.0)
        assert xr.straggler_tail(1250) == pytest.approx(0.3)
        assert xr.straggler_tail(250) < xr.straggler_tail(1250)

    def test_deterministic_given_seed(self):
        a = xr.simulate_exchange_runtime(1e11, 250)
        b = xr.simulate_exchange_runtime(1e11, 250)
        assert a.e2e_s == b.e2e_s


class TestRateLimitMechanics:
    def test_single_bucket_quadratic_throttles(self):
        """The Pocket-S3 failure mode: 1 level + 1 bucket + P^2 requests."""
        throttled = xr.simulate_exchange_runtime(
            100e9, 250, levels=1, write_combining=False, n_buckets=1
        )
        spread = xr.simulate_exchange_runtime(
            100e9, 250, levels=1, write_combining=False, n_buckets=50
        )
        assert throttled.e2e_s > 1.5 * spread.e2e_s

    def test_bucket_spreading_restores_speed(self):
        """§4.4.2: with enough buckets the 2l exchange is rate-limit-free."""
        few = xr.simulate_exchange_runtime(100e9, 1000, n_buckets=1)
        many = xr.simulate_exchange_runtime(100e9, 1000, n_buckets=10)
        assert many.e2e_s <= few.e2e_s
