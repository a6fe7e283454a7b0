"""Pricing and rate-limit models (paper §4.3/§4.4 constants and claims)."""
import pytest

from repro.s3 import pricing, ratelimit
from repro.s3.store import Ledger


def phase_throttle(ledger, offered_duration_s):
    """Reference model: throttled duration of a phase from its per-bucket
    ledger under the current limits. Each bucket is an independent token
    bucket, and LISTs are limited as writes; the phase ends when the
    most-throttled bucket drains."""
    limits = ratelimit.CURRENT_LIMITS
    worst = offered_duration_s
    for ops in ledger.per_bucket.values():
        puts = ops.get("puts", 0) + ops.get("lists", 0)
        gets = ops.get("gets", 0) + ops.get("heads", 0)
        worst = max(
            worst,
            ratelimit.throttled_duration(puts, limits.put_per_s, offered_duration_s),
            ratelimit.throttled_duration(gets, limits.get_per_s, offered_duration_s),
        )
    return worst


class TestRequestPricing:
    def test_get_price_is_paper_value(self):
        """§4.3: 'One million read requests currently cost $0.4'."""
        assert pricing.GET_PER_MILLION == pytest.approx(0.4)

    def test_put_and_list_price(self):
        """PUT/LIST $5/M; 'AWS charges list requests for the price of write
        requests' (§4.4.3)."""
        assert pricing.PUT_PER_MILLION == pricing.LIST_PER_MILLION == pytest.approx(5.0)

    def test_request_cost_from_ledger(self):
        led = Ledger()
        for _ in range(1000):
            led.record("gets", "b")
        for _ in range(100):
            led.record("puts", "b")
        assert pricing.request_cost(led) == pytest.approx(1000 * 0.4e-6 + 100 * 5e-6)


class TestLambdaPricing:
    def test_paper_rate_for_2gib_worker(self):
        """§4.4.4: 'each second costs $3.3e-5 ... for workers with 2 GiB'."""
        assert pricing.lambda_cost(1.0, 2048) == pytest.approx(3.3e-5, rel=0.01)

    def test_cost_proportional_to_memory_and_time(self):
        base = pricing.lambda_cost(10.0, 1024)
        assert pricing.lambda_cost(20.0, 1024) == pytest.approx(2 * base, rel=0.01)
        assert pricing.lambda_cost(10.0, 2048) == pytest.approx(2 * base, rel=0.01)

    def test_fleet_cost(self):
        one = pricing.lambda_cost(5.0, 2048)
        assert pricing.lambda_cost(5.0, 2048, n_workers=100) == pytest.approx(100 * one)

    def test_qaas_cost_is_5_per_tib(self):
        assert pricing.qaas_cost(2**40) == pytest.approx(5.0)
        assert pricing.qaas_cost(0) == 0.0


class TestRateLimits:
    def test_current_limits_are_paper_values(self):
        """§4.4.1: 3.5k writes/s and 5.5k reads/s per bucket since July 2018."""
        assert ratelimit.CURRENT_LIMITS.put_per_s == 3500
        assert ratelimit.CURRENT_LIMITS.get_per_s == 5500

    def test_under_limit_no_delay(self):
        assert ratelimit.throttled_duration(100, 1000.0, 1.0) == 1.0

    def test_over_limit_stretches_to_drain_time(self):
        assert ratelimit.throttled_duration(7000, 3500.0, 1.0) == pytest.approx(2.0)

    def test_invalid_rate_rejected(self):
        with pytest.raises(ValueError):
            ratelimit.throttled_duration(10, 0.0, 1.0)

    def test_bucket_spreading_raises_aggregate_limit(self):
        """§4.4.1: encoding IDs in the bucket name multiplies the limit."""
        led_one, led_ten = Ledger(), Ledger()
        for i in range(70_000):
            led_one.record("puts", "b0")
            led_ten.record("puts", f"b{i % 10}")
        t1 = phase_throttle(led_one, 1.0)
        t10 = phase_throttle(led_ten, 1.0)
        assert t1 == pytest.approx(20.0)
        assert t10 == pytest.approx(2.0)

    def test_phase_throttle_uses_worst_bucket(self):
        led = Ledger()
        for _ in range(11_000):
            led.record("gets", "hot")
        led.record("gets", "cold")
        assert phase_throttle(led, 1.0) == pytest.approx(2.0)

    def test_lists_limited_as_writes(self):
        led = Ledger()
        for _ in range(7000):
            led.record("lists", "b")
        assert phase_throttle(led, 1.0) == pytest.approx(2.0)


class TestBasicExchangeRateClaim:
    def test_1k_workers_exceed_single_bucket_limits(self):
        """§4.4.1: '2M requests while ... the rate limit on AWS is 3.5k and
        5.5k per second' — the quadratic 1-level exchange must throttle."""
        p = 1000
        writes = p * p
        assert ratelimit.throttled_duration(writes, 3500.0, 60.0) > 60.0

    def test_ten_buckets_keep_3k_workers_under_historic_limits(self):
        """§4.4.1: with receiver%10 bucket spreading, P/10 req/s per bucket
        'is below the historic limits for up to 3k workers'."""
        p = 3000
        per_bucket_rate = p / 10
        assert per_bucket_rate <= ratelimit.HISTORIC_LIMITS.put_per_s
