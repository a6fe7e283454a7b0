"""Every calibrated constant of the simulation layer, with provenance.

Constants fall into two classes:
  * *paper-quoted*: numbers the paper states or that follow from AWS price
    sheets it cites — used verbatim;
  * *calibrated*: free parameters of our models fitted so that a paper-
    reported measurement emerges; each notes the measurement it was fit to.
No experiment module defines its own magic numbers; they all import from here
(or from ``repro.s3.pricing`` / ``repro.faas`` for prices and CPU law).
"""

# --- network (paper §4.3, Fig 6) ------------------------------------------
#: Steady-state S3 ingress bandwidth per worker: "a very stable limit of
#: about 90 MiB/s per worker" (paper-quoted).
STEADY_BW_BYTES_S = 90 * 2**20
#: Workers under 1 GB see "a slightly lower ingress bandwidth" (paper-quoted,
#: Fig 6a); modelled as a flat 70 MiB/s.
SMALL_WORKER_BW_BYTES_S = 70 * 2**20
SMALL_WORKER_MEMORY_MIB = 1024
#: Burst ceiling with several connections: "occasionally reaching almost
#: 300 MiB/s ... only ... if they use several network connections" and only
#: for large-memory workers (paper-quoted, Fig 6b). Scaled linearly in
#: memory up to 3008 MiB.
BURST_BW_BYTES_S = 300 * 2**20
BURST_FULL_MEMORY_MIB = 3008
#: "the time span during which the burst may exceed the target is a small
#: number of seconds" — credit window (calibrated to Fig 7: 4 connections at
#: 1 MB chunks sustain ~max bandwidth on a 1 GB file).
BURST_WINDOW_S = 2.5
#: One S3 request round-trip (GET first-byte latency) from a worker: ~30 ms,
#: calibrated to Fig 7.
S3_RTT_S = 0.030
#: Per-connection TCP throughput to S3 (calibrated to Fig 7: one connection
#: needs a 16 MB chunk size to approach the 90 MiB/s worker limit).
PER_CONNECTION_BW_BYTES_S = int(95.5 * 2**20)

# --- worker compute (paper §4.1/§5.2, Fig 4/10/11) -------------------------
#: Uncompressed bytes one vCPU decompresses+scans per second (gzip Parquet).
#: Calibrated to Fig 11 (non-pruned Q1 workers at M=1792, F=1 — ~18.75 M
#: rows/worker at SF 1000 — take 2-3 s of processing) and §5.2 ("scanning
#: GZIP-compressed data is CPU-bound": compute must dominate the ~90 MiB/s
#: download at >= 1792 MiB). Our synthetic LINEITEM compresses only ~1.4x
#: (random values) vs the paper's 4.7x, so the per-uncompressed-byte rate is
#: correspondingly lower than raw gzip throughput on TPC-H data.
SCAN_BYTES_PER_VCPU_S = int(130e6)
#: Threads the scan pipeline's critical path uses. The paper parallelises
#: decompression only when it is slower than the download AND the query has
#: spare compute — for Q1/Q6 it is not ("as we increase the worker size
#: further [beyond 1792 MiB] ... without improving speed", §5.2), so the
#: pipeline is single-thread-bound and performance plateaus at one vCPU.
WORKER_THREADS = 1
#: Fixed per-worker overhead: plan load + metadata round-trip + result PUT.
WORKER_OVERHEAD_S = 0.12
#: A fully pruned worker "loads the metadata of their file (inducing one
#: round-trip to S3) ... and immediately returns": 100-200 ms (paper-quoted,
#: Fig 11).
PRUNED_WORKER_S = 0.15
#: Cold executions are "somewhat slower ... (possibly due to loading of code
#: from the dependency layer)" (paper §5.2, ~20 % end-to-end penalty).
COLD_EXEC_PENALTY = 1.2
#: Deterministic straggler allowance on the slowest of W workers in a query
#: (calibrated: Fig 10's hot-run spread).
QUERY_STRAGGLER_FACTOR = 1.15
#: Driver polling the SQS result queue after the last worker message.
RESULT_FETCH_S = 0.3

# --- exchange runtime DES (paper §5.5, Table 3, Fig 13) --------------------
#: Write-phase slowdown quantile curve S(q) = 1 + a * q**k: "relatively
#: stable running time until the 95-percentile; the slowest worker about 30 %
#: [slower] ... for the small dataset" (paper-quoted shape; k calibrated so
#: p95 ≈ 1.2x).
STRAGGLER_EXPONENT = 8.0
#: max/median write slowdown at moderate scale (paper: ~1.3 at <= 1250
#: workers) and at 2500 workers (paper: ~4x).
STRAGGLER_TAIL_SMALL = 0.3
STRAGGLER_TAIL_LARGE = 3.0
STRAGGLER_SMALL_P = 1250
STRAGGLER_LARGE_P = 2500
#: Per-phase synchronisation overhead (polling lists until all senders are
#: visible; calibrated to Table 3's 13 s at 1000 workers where transfer time
#: alone is ~5 s).
PHASE_SYNC_S = 0.8
#: Retry amplification under sustained S3 throttling (exponential backoff on
#: 503 SlowDown). Calibrated so the 1-level S3 exchange at 250 workers lands
#: at Pocket's published 98 s baseline.
THROTTLE_RETRY_AMPLIFICATION = 3.0
#: Exchange workers use 2048 MiB (paper §5.5).
EXCHANGE_MEMORY_MIB = 2048

# --- Fig 1 intro simulation (paper-quoted assumptions) ---------------------
IAAS_STARTUP_S = 120.0  # "2 min start-up time for IaaS"
FAAS_STARTUP_S = 4.0  # "4 s for FaaS"
FAAS_WORKER_MEMORY_MIB = 2048  # "2 GiB main memory"
INTERACTIVE_TARGET_S = 10.0  # "processed in under 10 s"

# --- dataset (paper §5.1) ---------------------------------------------------
#: LINEITEM at SF 1000: 151 GiB Parquet (gzip), 6e9 rows (paper-quoted).
PAPER_SF = 1000.0
PAPER_LINEITEM_ROWS = 6_000_000_000
PAPER_LINEITEM_PARQUET_BYTES = 151 * 2**30
