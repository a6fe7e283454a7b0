"""Exchange algorithm descriptors and the grid/coordinate math (paper §4.4.2).

The k-level exchange projects partition and worker IDs onto a k-dimensional
grid (mixed-radix; the paper's H_s = x -> (x % s, x // s) is the 2-level
case) and runs BasicGroupExchange once per dimension: level l exchanges data
among the workers that agree on every coordinate except l, routing each
record to the group member whose level-l coordinate equals the level-l
coordinate of the record's partition ID. After all levels, worker ID equals
partition ID. Both are closed forms over the IDs: with ``b`` the product of
the dimensions below ``l``, the level-l coordinate of x is
``x // b % dims[l]``, and x's level-l group drops that digit,
``x % b + x // (b * dims[l]) * b``.

``expected_requests`` gives the *exact* per-level request counts for our
implementation; tests assert ledger equality against them and their agreement
with Table 2's closed forms for square worker counts.
"""
from __future__ import annotations

import dataclasses
import math


@dataclasses.dataclass(frozen=True)
class ExchangeSpec:
    """Configuration of one exchange algorithm variant."""

    levels: int = 1
    write_combining: bool = False
    n_buckets: int = 10

    def __post_init__(self):
        if self.levels < 1:
            raise ValueError("levels must be >= 1")

    @property
    def label(self) -> str:
        """Paper-style label: 1l, 2l-wc, 3l-wc, ..."""
        return f"{self.levels}l" + ("-wc" if self.write_combining else "")


def _closest_divisor(n: int, target: float) -> int:
    """Divisor of n closest to target (ties toward the smaller)."""
    best = 1
    for d in range(1, int(math.isqrt(n)) + 1):
        if n % d == 0:
            for cand in (d, n // d):
                if abs(cand - target) < abs(best - target):
                    best = cand
    return best


def grid_dims(n_workers: int, levels: int) -> tuple[int, ...]:
    """Factor P into ``levels`` grid side lengths, each as close to
    P^(1/levels) as divisibility allows (s = sqrt(P) "minimizes the sum").
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    dims = []
    rest = n_workers
    for lvl in range(levels, 1, -1):
        d = _closest_divisor(rest, rest ** (1.0 / lvl))
        dims.append(d)
        rest //= d
    dims.append(rest)
    return tuple(dims)


def level_coords(xs, dims: tuple[int, ...], level: int):
    """The ``level``-th mixed-radix coordinate of ID ``xs``, a Python int or
    a numpy array of IDs (the routing target)."""
    return xs // math.prod(dims[:level]) % dims[level]


def group_id(p: int, dims: tuple[int, ...], level: int) -> int:
    """Linear index of p's level-``level`` group: its coordinates with the
    ``level`` dimension removed. Workers in the same group exchange with
    each other at this level."""
    b = math.prod(dims[:level])
    return p % b + p // (b * dims[level]) * b


def expected_requests(n_workers: int, spec: ExchangeSpec) -> dict:
    """Exact request counts our runner issues, per level and total.

    Per level l with group size d_l: every worker reads one (part of a) file
    per sender in its group and LISTs once for discovery/readiness. It writes
    one file per group member, or one combined file under write combining
    (offsets in the file name, so the same LIST finds them).
    """
    dims = grid_dims(n_workers, spec.levels)
    per_level = []
    for d in dims:
        puts = n_workers if spec.write_combining else n_workers * d
        per_level.append(dict(puts=puts, gets=n_workers * d, lists=n_workers))
    total = {k: sum(lvl[k] for lvl in per_level) for k in ("puts", "gets", "lists")}
    return {"dims": dims, "per_level": per_level, **total, "scans": spec.levels}
