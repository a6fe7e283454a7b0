"""Published comparator numbers quoted by the paper (Table 3, §5.5, §6).

The paper compares its exchange "with the numbers published for similar
implementations in previous work" — it did not rerun Pocket or Locus. We do
the same: these constants are citations, placed next to our simulated numbers
in EXPERIMENTS.md. The one *mechanistic* baseline claim (a 1-level S3
exchange throttles on the request rate) is reproduced by
``repro.sim.exchange_runtime.pocket_s3_baseline_runtime``.
"""

#: Pocket [Klimovic et al., OSDI'18], 100 GB shuffle through their VM-based
#: ephemeral storage tier (Table 3, "VMs" column).
POCKET_VM_SECONDS = {250: 58.0, 500: 28.0, 1000: 18.0}
#: Pocket's S3 baseline (Table 3, "S3" column): only reported for 250
#: workers — "this would result in I/O rate limit errors when using hundreds
#: of serverless workers".
POCKET_S3_SECONDS_250 = 98.0
#: Locus [Pu et al., NSDI'19], 100 GB with a dynamic number of workers.
LOCUS_100GB_RANGE_S = (80.0, 140.0)

#: Lambada's published Table 3 rows (what our DES should land near).
LAMBADA_TABLE3_S = {250: 22.0, 500: 15.0, 1000: 13.0}
LAMBADA_1TB = (1250, 56.0)
LAMBADA_3TB = (2500, 159.0)

#: Flint [Kim & Lin, CLOUD'18] (§6): "Flint could take around 100 s for
#: scanning a 1 TB of data whereas Lambada would take 10 s."
FLINT_1TB_SCAN_S = 100.0
LAMBADA_1TB_SCAN_S = 10.0

#: gg [Fouladi et al., ATC'19] (§6): 1000 workers started in ~6 s.
GG_1K_STARTUP_S = 6.0
