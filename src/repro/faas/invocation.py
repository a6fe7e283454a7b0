"""Worker-invocation simulation: Table 1 and the two-level tree of §4.2/Fig 5.

Model
-----
Invoking one function is a synchronous API round-trip taking the region RTT
(Table 1 row "single invocation time"). A driver overlaps invocations with a
pool of threads; the provider additionally admits invocations at a bounded
rate (token bucket). The emergent concurrent rate is ``min(threads/rtt, cap)``
— the DES below produces it rather than asserting it. Functions invoking other
functions from *inside* the region achieve ~81 invocations/s (Table 1 row
"intra-region rate"); we model the in-region invoker as a small thread pool
whose service time is the SDK/API overhead.

Calibrated constants (provenance: Table 1, Fig 5):
  * per-region RTT and provider admission cap,
  * worker-side invoker: 8 threads x 98 ms service time -> ~81.6 inv/s,
  * cold-start delay 1.4 s (fits Fig 5's "last worker initiated after ~2.5 s"
    for 4096 workers from a freshly created function).

Emergent results checked in tests: driver-only invocation of 1000 workers
takes 3.4-4.5 s depending on region ("invoking 1000 workers from the driver
still takes 3.4 s to 4.4 s"); the two-level tree initiates the last of 4096
workers in < 3 s ("can spawn 4k functions in 3 s").
"""
from __future__ import annotations

import dataclasses
import heapq
import math


@dataclasses.dataclass(frozen=True)
class RegionProfile:
    """Invocation characteristics of one region as seen from the driver."""

    name: str
    rtt_s: float  # single invocation round-trip from the driver (Zurich)
    cap_per_s: float  # provider-side admission rate for this endpoint


#: Table 1 calibration: RTTs are the measured "single invocation time"; caps
#: are the provider-side admission rates that, through the DES, yield the
#: measured "concurrent invocation rate".
REGIONS = {
    "eu": RegionProfile("eu", 0.036, 294.0),
    "us": RegionProfile("us", 0.363, 276.0),
    "sa": RegionProfile("sa", 0.474, 243.0),
    "ap": RegionProfile("ap", 0.536, 222.0),
}

#: Driver-side invocation thread pool ("by using 128 threads to do the
#: invocations, we achieve a rate of 220 to 290 invocations/s").
DRIVER_THREADS = 128
#: In-region worker invoker: 8 threads, 98 ms service time -> ~81.6 inv/s,
#: matching Table 1's intra-region rates (79-84 inv/s).
WORKER_THREADS = 8
WORKER_SERVICE_S = 0.098
#: Extra latency for a cold-started function (fresh function + dependency
#: layer); calibrated so the Fig 5 cold run (us region, 4096 workers)
#: initiates the last worker at ~2.5 s.
COLD_START_S = 1.0
WARM_START_S = 0.05


@dataclasses.dataclass
class InvocationTimeline:
    """Result of an invocation DES."""

    initiated: list[float]  # when each invocation request was issued
    running: list[float]  # when each function started running

    @property
    def last_initiated(self) -> float:
        return max(self.initiated)

    @property
    def all_running(self) -> float:
        return max(self.running)

    @property
    def rate_per_s(self) -> float:
        """Achieved invocation rate: initiations over the initiation window
        (the admission rate the provider sustains)."""
        span = max(self.initiated) - min(self.initiated)
        return (len(self.initiated) - 1) / span if span > 0 else math.inf


def simulate_pool_invocations(
    n: int,
    *,
    threads: int,
    service_s: float,
    cap_per_s: float | None = None,
    start_s: float = 0.0,
    startup_s: float = 0.0,
) -> InvocationTimeline:
    """DES of ``n`` invocations by a ``threads``-wide pool.

    Each invocation occupies a thread for ``service_s`` (the API round-trip);
    the provider admits at most ``cap_per_s`` initiations per second (token
    bucket starting full at one token). The invoked function is running
    ``service_s + startup_s`` after its initiation.
    """
    if n < 1:
        raise ValueError("n must be >= 1")
    free = [start_s] * min(threads, n)
    heapq.heapify(free)
    initiated, running = [], []
    for i in range(n):
        t_thread = heapq.heappop(free)
        t_token = start_s if cap_per_s is None else start_s + i / cap_per_s
        t0 = max(t_thread, t_token)
        initiated.append(t0)
        heapq.heappush(free, t0 + service_s)
        running.append(t0 + service_s + startup_s)
    return InvocationTimeline(initiated, running)


def simulate_driver_invocations(
    n: int, region: RegionProfile, *, cold: bool = False
) -> InvocationTimeline:
    """Driver-only invocation of ``n`` workers (the naive approach)."""
    return simulate_pool_invocations(
        n,
        threads=DRIVER_THREADS,
        service_s=region.rtt_s,
        cap_per_s=region.cap_per_s,
        startup_s=COLD_START_S if cold else WARM_START_S,
    )


def simulate_intra_region_invocations(n: int, region: RegionProfile) -> InvocationTimeline:
    """One worker invoking ``n`` others from inside the region."""
    return simulate_pool_invocations(
        n, threads=WORKER_THREADS, service_s=WORKER_SERVICE_S, cap_per_s=region.cap_per_s
    )


def first_generation_size(n_workers: int) -> int:
    """sqrt(P) split: "assign the same amount of invocations to the driver
    and to each of the first-level workers, i.e., about sqrt(P) each"."""
    return min(n_workers, max(1, round(math.sqrt(n_workers))))


@dataclasses.dataclass
class TwoLevelTimeline:
    """Timings of the two-level invocation (Fig 5)."""

    #: per first-generation worker: (driver_delay, invocation_latency,
    #: second_generation_invocation_duration) — the three phases of Fig 5.
    first_gen_phases: list[tuple[float, float, float]]
    initiated: list[float]  # initiation times of ALL workers
    running: list[float]  # running times of ALL workers

    @property
    def last_initiated(self) -> float:
        return max(self.initiated)

    @property
    def all_running(self) -> float:
        return max(self.running)


def simulate_two_level(
    n_workers: int, region: RegionProfile = REGIONS["eu"], *, cold: bool = True
) -> TwoLevelTimeline:
    """Two-level tree invocation of ``n_workers`` (paper §4.2).

    The driver invokes ~sqrt(P) first-generation workers; each receives a list
    of IDs and invokes that many second-generation workers before running its
    own query fragment.
    """
    if n_workers < 1:
        raise ValueError("need at least one worker")
    startup = COLD_START_S if cold else WARM_START_S
    g = first_generation_size(n_workers)
    remaining = n_workers - g
    batches = [remaining // g + (1 if i < remaining % g else 0) for i in range(g)]

    driver = simulate_pool_invocations(
        g, threads=DRIVER_THREADS, service_s=region.rtt_s, cap_per_s=region.cap_per_s, startup_s=startup
    )
    initiated = list(driver.initiated)
    running = list(driver.running)
    phases = []
    for i, batch in enumerate(batches):
        t_run = driver.running[i]
        if batch > 0:
            tl = simulate_pool_invocations(
                batch,
                threads=WORKER_THREADS,
                service_s=WORKER_SERVICE_S,
                start_s=t_run,
                startup_s=startup,
            )
            initiated.extend(tl.initiated)
            running.extend(tl.running)
            dur = tl.last_initiated - t_run
        else:
            dur = 0.0
        phases.append((driver.initiated[i], driver.running[i] - driver.initiated[i], dur))
    return TwoLevelTimeline(phases, initiated, running)


def table1() -> list[dict]:
    """Reproduce Table 1: per-region invocation characteristics."""
    rows = []
    for region in REGIONS.values():
        concurrent = simulate_driver_invocations(1000, region)
        intra = simulate_intra_region_invocations(256, region)
        rows.append(
            {
                "region": region.name,
                "single_invocation_ms": region.rtt_s * 1000.0,
                "concurrent_rate_per_s": concurrent.rate_per_s,
                "intra_region_rate_per_s": intra.rate_per_s,
            }
        )
    return rows
