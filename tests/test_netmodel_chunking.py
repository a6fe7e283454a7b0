"""Network-bandwidth model (Fig 6) and chunk-size trade-off (Fig 7)."""
import pytest

from repro.scan import chunking
from repro.sim import constants as C
from repro.sim import netmodel


class TestSteadyBandwidth:
    def test_90mib_limit_for_large_files(self):
        """Fig 6a: 'a very stable limit of about 90 MiB/s per worker'."""
        assert netmodel.steady_bandwidth(2048) == 90 * 2**20

    def test_small_workers_slightly_lower(self):
        """Fig 6a: 'only workers with less than 1 GB ... slightly lower'."""
        assert netmodel.steady_bandwidth(512) < netmodel.steady_bandwidth(2048)

    def test_long_transfers_converge_to_steady(self):
        """The burst credit cannot help a 10 GB transfer."""
        nbytes = 10 * 10**9
        t = netmodel.download_seconds(nbytes, memory_mib=3008, n_connections=8)
        assert nbytes / t == pytest.approx(90 * 2**20, rel=0.07)


class TestBurst:
    def test_needs_multiple_connections(self):
        """Fig 6b: bursts 'only ... if they use several network connections'."""
        assert netmodel.burst_bandwidth(3008, 1) == netmodel.steady_bandwidth(3008)
        assert netmodel.burst_bandwidth(3008, 4) > netmodel.steady_bandwidth(3008)

    def test_large_workers_reach_near_300mib(self):
        """Fig 6b: 'occasionally reaching almost 300 MiB/s'."""
        assert netmodel.burst_bandwidth(3008, 8) == pytest.approx(300 * 2**20, rel=0.01)

    def test_burst_scales_with_memory(self):
        assert netmodel.burst_bandwidth(1792, 8) < netmodel.burst_bandwidth(3008, 8)

    def test_small_file_multi_connection_beats_single(self):
        one = netmodel.download_seconds(256 * 2**20, memory_mib=3008, n_connections=1)
        many = netmodel.download_seconds(256 * 2**20, memory_mib=3008, n_connections=8)
        assert one > 1.5 * many

    def test_zero_bytes(self):
        assert netmodel.download_seconds(0, memory_mib=2048) == 0.0


class TestFig7Chunking:
    def test_single_connection_needs_16mb_chunks(self):
        """'a single connection requires a chunk size of 16 MB to get
        reasonably close to the maximum throughput'."""
        small = chunking.scan_point(2**20, 1)
        big = chunking.scan_point(2**24, 1)
        steady = netmodel.steady_bandwidth(3008)
        assert big.bandwidth_bytes_s > 0.8 * steady
        assert small.bandwidth_bytes_s < 0.5 * steady

    def test_four_connections_reach_max_at_1mb(self):
        """'we achieve that throughput even with a chunk size of 1 MB using
        four concurrent connections'."""
        p = chunking.scan_point(2**20, 4)
        assert p.bandwidth_bytes_s >= 0.9 * netmodel.steady_bandwidth(3008)

    def test_request_count_inverse_in_chunk_size(self):
        a = chunking.scan_point(2**20, 4)
        b = chunking.scan_point(2**22, 4)
        assert a.n_requests == pytest.approx(4 * b.n_requests, rel=0.01)

    def test_request_cost_ratio_at_1mib_near_paper(self):
        """'the requests are 1.7x more expensive than the workers' at 1 MiB
        chunks (paper annotates Fig 7)."""
        p = chunking.scan_point(2**20, 4)
        assert 1.0 < p.request_to_worker_cost_ratio < 3.0

    def test_tiny_chunks_dominated_by_request_cost(self):
        """'With even smaller chunk sizes, the requests can easily dominate'."""
        p = chunking.scan_point(2**16, 8)
        assert p.request_to_worker_cost_ratio > 5

    def test_sweep_covers_grid(self):
        pts = chunking.sweep()
        assert len(pts) == 20
        assert {p.n_connections for p in pts} == {1, 2, 4, 8}

    @pytest.mark.parametrize("chunk,conns", [(0, 1), (1024, 0), (-1, 4)])
    def test_invalid_params(self, chunk, conns):
        with pytest.raises(ValueError):
            chunking.scan_point(chunk, conns)
