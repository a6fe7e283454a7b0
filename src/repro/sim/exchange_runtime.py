"""Runtime simulation of the S3 exchange at paper scale (Table 3, Fig 13).

A deterministic discrete-event model of ``TwoLevelExchange`` (write combining,
2048 MiB workers, as in §5.5):

* every worker moves ``D/P`` bytes per phase at the worker bandwidth model;
* write phases carry a *straggler* slowdown per worker drawn from the
  quantile curve ``S(q) = 1 + a q^kappa`` — "relatively stable running time
  until the 95-percentile", slowest ~1.3x the median at <= 1250 workers and
  ~4x at 2500 (paper-quoted, Fig 13 right);
* barriers are per *group*: a reader starts once the slowest writer of its
  level group finished, so write-phase tail latencies propagate exactly as
  the paper describes ("each worker that is slow with writing causes wait
  time for all workers in its group. In turn, those workers start later...");
* per-bucket S3 rate limits stretch phases whose request rate exceeds them;
* phase changes pay a sync round-trip (result polling/LIST latency).

The same machinery with ``levels=1``, one bucket, and 2018-era Lambda
bandwidth models the *Pocket S3 baseline* (98 s at 250 workers), where the
quadratic request count hits the single-prefix rate limit and retry backoff
amplifies the stall.
"""
from __future__ import annotations

import dataclasses

import numpy as np

from ..exchange import algorithms as alg
from ..faas import invocation
from ..s3 import ratelimit
from . import constants as C
from . import netmodel


def straggler_tail(n_workers: int) -> float:
    """max/median write slowdown minus 1: grows to ~0.3 at 1250 workers and
    ~3.0 at 2500 (paper: "about 30 % and 4x slower than the median"). Below
    1250 the tail shrinks smoothly — fewer workers sample less of the
    platform's latency tail."""
    if n_workers <= C.STRAGGLER_SMALL_P:
        return C.STRAGGLER_TAIL_SMALL * (n_workers / C.STRAGGLER_SMALL_P) ** 0.7
    frac = min(
        1.0,
        (n_workers - C.STRAGGLER_SMALL_P) / (C.STRAGGLER_LARGE_P - C.STRAGGLER_SMALL_P),
    )
    return C.STRAGGLER_TAIL_SMALL + (C.STRAGGLER_TAIL_LARGE - C.STRAGGLER_TAIL_SMALL) * frac


def _slowdowns(n_workers: int, phase: int) -> np.ndarray:
    """Deterministic per-worker write slowdowns S(q) with shuffled ranks."""
    q = (np.arange(n_workers) + 0.5) / n_workers
    s = 1.0 + straggler_tail(n_workers) * q**C.STRAGGLER_EXPONENT
    rng = np.random.default_rng(phase)  # one fixed shuffle per phase
    return rng.permutation(s)


@dataclasses.dataclass
class PhaseStats:
    """Per-phase timing distribution (one side of Fig 13)."""

    name: str
    fastest_s: float
    median_s: float
    p95_s: float
    slowest_s: float


@dataclasses.dataclass
class ExchangeRuntime:
    """Result of the exchange-runtime DES."""

    e2e_s: float
    invocation_s: float
    phases: list  # list[PhaseStats]
    waiting_fraction: float  # share of worker-seconds spent waiting (Fig 13)
    fastest_worker_s: float  # end-to-end time of the fastest worker

    @property
    def fastest_to_slowest(self) -> float:
        return self.fastest_worker_s / self.e2e_s


def simulate_exchange_runtime(
    data_bytes: float,
    n_workers: int,
    *,
    levels: int = 2,
    write_combining: bool = True,
    n_buckets: int = C.DEFAULT_EXCHANGE_BUCKETS,
    worker_bw_bytes_s: float | None = None,
    retry_amplification: float = 1.0,
) -> ExchangeRuntime:
    """Simulate a ``levels``-level write-combining exchange of ``data_bytes``
    on ``C.EXCHANGE_MEMORY_MIB`` workers invoked in us-east-1, under today's
    S3 rate limits."""
    P = n_workers
    dims = alg.grid_dims(P, levels)
    per_worker = data_bytes / P
    bw = worker_bw_bytes_s or netmodel.steady_bandwidth(C.EXCHANGE_MEMORY_MIB)
    base = per_worker / bw
    limits = ratelimit.CURRENT_LIMITS

    tree = invocation.simulate_two_level(P, invocation.REGIONS["us"], cold=True)
    start = np.asarray(tree.running[:P])
    if len(start) < P:
        start = np.pad(start, (0, P - len(start)), constant_values=start.max())

    groups_per_level = [[alg.group_id(p, dims, lvl) for p in range(P)] for lvl in range(levels)]

    phases: list[PhaseStats] = []
    busy = np.zeros(P)  # useful seconds per worker
    t = start + base  # after reading the input share
    busy += base
    phases.append(PhaseStats("read input", base, base, base, base))

    for lvl in range(levels):
        d = dims[lvl]
        # --- write phase (with stragglers and PUT rate limits)
        s = _slowdowns(P, lvl)
        write = base * s
        # P PUTs (write combining) or P*d PUTs spread over n_buckets
        n_puts = P if write_combining else P * d
        offered = max(base, 1e-9)
        put_stretch = (
            ratelimit.throttled_duration(n_puts // n_buckets, limits.put_per_s, offered)
            / offered
        )
        write = write * max(1.0, put_stretch * retry_amplification if put_stretch > 1 else 1.0)
        t_write_end = t + write
        busy += write
        phases.append(
            PhaseStats(
                f"write level {lvl}",
                float(write.min()),
                float(np.median(write)),
                float(np.quantile(write, 0.95)),
                float(write.max()),
            )
        )
        # --- group barrier: reader waits for the slowest writer in its group
        gids = np.asarray(groups_per_level[lvl])
        group_max = np.zeros(P)
        for g in np.unique(gids):
            mask = gids == g
            group_max[mask] = t_write_end[mask].max()
        # --- read phase (ranged GETs; P*d requests over the level's buckets)
        n_parts = d
        read = base + n_parts * C.S3_RTT_S / 8  # 8 concurrent connections
        offered = max(base, 1e-9)
        get_stretch = (
            ratelimit.throttled_duration(
                P * d // n_buckets, limits.get_per_s, offered
            )
            / offered
        )
        read = read * max(1.0, get_stretch * retry_amplification if get_stretch > 1 else 1.0)
        t = group_max + C.PHASE_SYNC_S + read
        busy += read
        phases.append(PhaseStats(f"read level {lvl}", read, read, read, read))

    e2e = float(t.max() - start.min())
    total = float((t - start).sum())
    waiting = max(0.0, 1.0 - float(busy.sum()) / total) if total else 0.0
    return ExchangeRuntime(
        e2e_s=e2e + C.RESULT_FETCH_S,
        invocation_s=float(tree.all_running),
        phases=phases,
        waiting_fraction=waiting,
        fastest_worker_s=float((t - start).min()),
    )


def lambada_table3_row(data_bytes: float, n_workers: int) -> float:
    """End-to-end seconds of Lambada's 2-level wc exchange (Table 3 / §5.5)."""
    return simulate_exchange_runtime(data_bytes, n_workers).e2e_s


#: 2018-era Lambda network bandwidth assumed for the Pocket S3 baseline
#: (Jonas et al. report ~half of today's 90 MiB/s; calibrated with the retry
#: amplification so the published 98 s at 250 workers emerges).
POCKET_ERA_BW_BYTES_S = 45 * 2**20


def pocket_s3_baseline_runtime() -> float:
    """The S3-based 1-level exchange baseline of the Pocket paper, 100 GB
    over 250 workers: single prefix (one bucket), quadratic requests,
    throttling with retry backoff."""
    return simulate_exchange_runtime(
        100e9,
        250,
        levels=1,
        write_combining=False,
        n_buckets=1,
        worker_bw_bytes_s=POCKET_ERA_BW_BYTES_S,
        retry_amplification=C.THROTTLE_RETRY_AMPLIFICATION,
    ).e2e_s
