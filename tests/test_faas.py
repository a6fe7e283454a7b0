"""FaaS substrate: CPU-allocation law (Fig 4) and invocation DES (Table 1,
Fig 5)."""
import pytest

from repro.faas import cpu_model, invocation as inv


class TestCpuModel:
    def test_baseline_is_one(self):
        """1792 MiB = exactly one vCPU (paper §4.1)."""
        assert cpu_model.relative_performance(1792, 1) == pytest.approx(1.0)

    @pytest.mark.parametrize("mem", [128, 256, 512, 1024, 1536])
    def test_proportional_below_one_vcpu(self, mem):
        """'compute performance is proportionally lower ... no matter the
        number of threads'."""
        expected = mem / 1792
        assert cpu_model.relative_performance(mem, 1) == pytest.approx(expected)
        assert cpu_model.relative_performance(mem, 2) == pytest.approx(expected)

    @pytest.mark.parametrize("mem", [1792, 2048, 2560, 3008])
    def test_single_thread_capped_at_one(self, mem):
        """'Using a single thread, that is the best performance one can
        achieve, even with larger functions.'"""
        assert cpu_model.relative_performance(mem, 1) == pytest.approx(1.0)

    def test_two_threads_reach_1_67_at_3008(self):
        """'a maximum of 1.67x ... for the largest workers with 3008 MiB'."""
        assert cpu_model.relative_performance(3008, 2) == pytest.approx(1.678, abs=0.01)

    def test_two_threads_monotone_in_memory(self):
        perfs = [cpu_model.relative_performance(m, 2) for m in (1792, 2048, 2560, 3008)]
        assert perfs == sorted(perfs)
        assert perfs[-1] > perfs[0]

    def test_compute_seconds_inverse_of_perf(self):
        assert cpu_model.compute_seconds(10.0, 896, 1) == pytest.approx(20.0)

    @pytest.mark.parametrize("mem", [64, 127, 3072, 100000])
    def test_invalid_memory_rejected(self, mem):
        with pytest.raises(ValueError):
            cpu_model.cpu_share(mem)

    @pytest.mark.parametrize("threads", [0, -1, 2000])
    def test_invalid_threads_rejected(self, threads):
        with pytest.raises(ValueError):
            cpu_model.relative_performance(1792, threads)


class TestTable1:
    @pytest.fixture(scope="class")
    def rows(self):
        return {r["region"]: r for r in inv.table1()}

    #: Table 1 of the paper.
    PAPER = {
        "eu": (36, 294, 81),
        "us": (363, 276, 79),
        "sa": (474, 243, 84),
        "ap": (536, 222, 81),
    }

    @pytest.mark.parametrize("region", ["eu", "us", "sa", "ap"])
    def test_single_invocation_time(self, rows, region):
        assert rows[region]["single_invocation_ms"] == pytest.approx(
            self.PAPER[region][0], rel=0.01
        )

    @pytest.mark.parametrize("region", ["eu", "us", "sa", "ap"])
    def test_concurrent_rate(self, rows, region):
        assert rows[region]["concurrent_rate_per_s"] == pytest.approx(
            self.PAPER[region][1], rel=0.10
        )

    @pytest.mark.parametrize("region", ["eu", "us", "sa", "ap"])
    def test_intra_region_rate(self, rows, region):
        assert rows[region]["intra_region_rate_per_s"] == pytest.approx(
            self.PAPER[region][2], rel=0.10
        )

    def test_driver_only_1000_workers_takes_3_4_to_4_4s(self):
        """§4.2: 'invoking 1000 workers from the driver still takes 3.4 s to
        4.4 s'."""
        times = [
            inv.simulate_driver_invocations(1000, r).last_initiated
            for r in inv.REGIONS.values()
        ]
        assert min(times) == pytest.approx(3.4, rel=0.05)
        assert max(times) == pytest.approx(4.4, rel=0.10)


class TestTwoLevelInvocation:
    def test_4096_workers_under_3s(self):
        """Contribution list: 'can spawn 4k functions in 3 s'; Fig 5: last
        invocation initiated after ~2.5 s."""
        tl = inv.simulate_two_level(4096, inv.REGIONS["us"], cold=True)
        assert 1.5 < tl.last_initiated < 3.0

    def test_much_faster_than_driver_only(self):
        """Fig 5 text: 'tremendously faster than the 13 s to 18 s' naive."""
        tree = inv.simulate_two_level(4096, inv.REGIONS["us"], cold=True)
        naive = inv.simulate_driver_invocations(4096, inv.REGIONS["us"], cold=True)
        assert 13.0 < naive.last_initiated < 18.5
        assert tree.last_initiated < naive.last_initiated / 4

    def test_all_workers_invoked_exactly_once(self):
        tl = inv.simulate_two_level(300, inv.REGIONS["eu"])
        assert len(tl.initiated) == 300
        assert len(tl.running) == 300

    @pytest.mark.parametrize("n", [1, 2, 10, 64, 100, 1000])
    def test_counts_for_any_fleet_size(self, n):
        tl = inv.simulate_two_level(n, inv.REGIONS["eu"])
        assert len(tl.initiated) == n

    def test_first_generation_is_sqrt(self):
        assert inv.first_generation_size(4096) == 64
        assert inv.first_generation_size(100) == 10
        assert inv.first_generation_size(1) == 1

    def test_timeline_ordering(self):
        tl = inv.simulate_two_level(256, inv.REGIONS["eu"])
        assert all(r > i for i, r in zip(tl.initiated, tl.running))

    def test_phases_shape_matches_fig5(self):
        """Each first-gen worker: driver delay grows with index; invocation
        latency ~constant; second-gen duration ~batch/rate."""
        tl = inv.simulate_two_level(4096, inv.REGIONS["us"], cold=True)
        delays = [p[0] for p in tl.first_gen_phases]
        assert delays == sorted(delays)
        durations = [p[2] for p in tl.first_gen_phases]
        assert max(durations) == pytest.approx(63 / 81.6, rel=0.25)

    def test_warm_faster_than_cold(self):
        cold = inv.simulate_two_level(1024, inv.REGIONS["eu"], cold=True)
        warm = inv.simulate_two_level(1024, inv.REGIONS["eu"], cold=False)
        assert warm.all_running < cold.all_running

    def test_rejects_empty_fleet(self):
        with pytest.raises(ValueError):
            inv.simulate_two_level(0)
