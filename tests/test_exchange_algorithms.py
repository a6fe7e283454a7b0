"""Grid/coordinate math and exact request counts of the exchange family."""
import math

import numpy as np
import pytest

from repro.exchange import algorithms as alg
from repro.exchange.cost_model import table2_counts


def coords(x: int, dims: tuple[int, ...]) -> tuple[int, ...]:
    """Reference mixed-radix projection (generalised H_s; 2-level:
    (x % s, x // s)), digit by digit, which the closed forms
    ``alg.level_coords`` and ``alg.group_id`` must agree with."""
    out = []
    for d in dims:
        out.append(x % d)
        x //= d
    return tuple(out)


def reference_group_id(p: int, dims: tuple[int, ...], level: int) -> int:
    """Linear index of p's coordinates with the ``level`` one removed."""
    cs = coords(p, dims)
    return from_coords(cs[:level] + cs[level + 1 :], dims[:level] + dims[level + 1 :])


def from_coords(cs, dims) -> int:
    """Inverse of the mixed-radix projection :func:`coords`."""
    x, mul = 0, 1
    for c, d in zip(cs, dims):
        if not 0 <= c < d:
            raise ValueError(f"coordinate {c} out of range for dim {d}")
        x += c * mul
        mul *= d
    return x


def peer_with_coord(p: int, dims: tuple[int, ...], level: int, coord: int) -> int:
    """Routing oracle: the member of p's level group whose level coordinate
    is ``coord`` (the runner routes whole columns with ``level_coords``)."""
    cs = list(coords(p, dims))
    cs[level] = coord
    return from_coords(cs, dims)


class TestGridDims:
    @pytest.mark.parametrize(
        "p,levels,expected",
        [
            (16, 1, (16,)),
            (16, 2, (4, 4)),
            (64, 2, (8, 8)),
            (250, 2, (10, 25)),
            (1000, 2, (25, 40)),
            (27, 3, (3, 3, 3)),
            (64, 3, (4, 4, 4)),
            (1000, 3, (10, 10, 10)),
        ],
    )
    def test_known_factorizations(self, p, levels, expected):
        dims = alg.grid_dims(p, levels)
        assert math.prod(dims) == p
        assert dims == expected

    @pytest.mark.parametrize("p", [1, 2, 7, 12, 100, 4096])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_product_always_exact(self, p, levels):
        assert math.prod(alg.grid_dims(p, levels)) == p

    def test_invalid_worker_count(self):
        with pytest.raises(ValueError):
            alg.grid_dims(0, 2)


class TestCoords:
    @pytest.mark.parametrize("p", [0, 1, 5, 15])
    def test_roundtrip_2d(self, p):
        dims = (4, 4)
        assert from_coords(coords(p, dims), dims) == p

    def test_paper_projection(self):
        """H_s(x) = (x % s, x // s) for the 2-level case."""
        assert coords(13, (5, 4)) == (13 % 5, 13 // 5)

    def test_out_of_range_coordinate_rejected(self):
        with pytest.raises(ValueError):
            from_coords((5, 0), (4, 4))


class TestClosedForms:
    @pytest.mark.parametrize("p", [1, 2, 6, 12, 16, 27, 64, 100, 256, 1024])
    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_match_the_digit_by_digit_reference(self, p, levels):
        """``level_coords`` of a Python int and of a numpy array, and
        ``group_id``, equal the reference projection for every ID."""
        dims = alg.grid_dims(p, levels)
        ids = np.arange(p)
        for lvl in range(levels):
            want = [coords(x, dims)[lvl] for x in range(p)]
            assert [alg.level_coords(x, dims, lvl) for x in range(p)] == want
            assert alg.level_coords(ids, dims, lvl).tolist() == want
            assert [alg.group_id(x, dims, lvl) for x in range(p)] == [
                reference_group_id(x, dims, lvl) for x in range(p)
            ]


class TestGroups:
    def test_level0_groups_share_other_coordinate(self):
        dims = (4, 4)
        gid = alg.group_id(5, dims, 0)
        members = [p for p in range(16) if alg.group_id(p, dims, 0) == gid]
        assert len(members) == 4
        assert all(coords(m, dims)[1] == coords(5, dims)[1] for m in members)
        assert 5 in members

    def test_groups_partition_the_workers(self):
        dims = alg.grid_dims(24, 2)
        for level in (0, 1):
            seen = {}
            for p in range(24):
                seen.setdefault(alg.group_id(p, dims, level), set()).add(p)
            assert sum(len(v) for v in seen.values()) == 24
            assert all(len(v) == dims[level] for v in seen.values())

    def test_peer_with_coord(self):
        dims = (4, 4)
        q = peer_with_coord(5, dims, 0, 2)
        assert coords(q, dims) == (2, coords(5, dims)[1])

    def test_routing_reaches_partition_after_all_levels(self):
        """After routing level-by-level, the holder equals the partition id."""
        for P, levels in ((16, 2), (27, 3), (24, 2), (30, 3)):
            dims = alg.grid_dims(P, levels)
            for pid in range(P):
                holder = 0  # start anywhere
                for lvl in range(levels):
                    holder = peer_with_coord(
                        holder, dims, lvl, alg.level_coords(pid, dims, lvl)
                    )
                assert holder == pid


class TestExpectedRequests:
    @pytest.mark.parametrize("p", [16, 64, 256, 1024])
    def test_one_level_is_quadratic(self, p):
        exp = alg.expected_requests(p, alg.ExchangeSpec(1, False))
        assert exp["puts"] == p * p
        assert exp["gets"] == p * p
        assert exp["lists"] == p

    @pytest.mark.parametrize("p", [16, 64, 256, 1024])
    def test_two_level_square_matches_closed_form(self, p):
        """Table 2: 2l does 2*P*sqrt(P) reads and writes for square P."""
        exp = alg.expected_requests(p, alg.ExchangeSpec(2, False))
        assert exp["puts"] == 2 * p * math.isqrt(p)
        assert exp["gets"] == 2 * p * math.isqrt(p)

    @pytest.mark.parametrize("p", [64, 512, 4096])
    def test_three_level_cubic_root(self, p):
        exp = alg.expected_requests(p, alg.ExchangeSpec(3, False))
        assert exp["gets"] == 3 * p * round(p ** (1 / 3))

    @pytest.mark.parametrize("levels", [1, 2, 3])
    def test_write_combining_writes_p_per_level(self, levels):
        exp = alg.expected_requests(64, alg.ExchangeSpec(levels, True))
        assert exp["puts"] == levels * 64
        assert exp["lists"] == levels * 64

    def test_matches_paper_closed_forms_for_square_counts(self):
        for levels in (1, 2):
            for wc in (False, True):
                spec = alg.ExchangeSpec(levels, wc)
                exact = alg.expected_requests(4096, spec)
                ideal = table2_counts(4096, spec)
                assert exact["gets"] == pytest.approx(ideal["reads"], rel=1e-9)
                assert exact["puts"] == pytest.approx(ideal["writes"], rel=1e-9)

    def test_scans_equal_levels(self):
        for levels in (1, 2, 3):
            assert alg.expected_requests(64, alg.ExchangeSpec(levels, True))["scans"] == levels

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            alg.ExchangeSpec(0, False)

    def test_labels(self):
        assert alg.ExchangeSpec(1, False).label == "1l"
        assert alg.ExchangeSpec(3, True).label == "3l-wc"
