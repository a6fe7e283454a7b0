"""Table 3 + Fig 13: exchange runtime at paper scale (100 GB - 3 TB).

Usage: python jobs/table3_exchange_runtime.py  (pure DES, no Spark)
"""
from _common import print_table

from repro.sim import baselines, exchange_runtime as xr


def main() -> None:
    rows = []
    for p in (250, 500, 1000):
        rows.append(
            {
                "system": "Lambada (S3, 2l-wc)",
                "workers": p,
                "runtime_s": xr.lambada_table3_row(100e9, p),
                "paper_s": baselines.LAMBADA_TABLE3_S[p],
            }
        )
    pocket_s3 = xr.pocket_s3_baseline_runtime()
    rows.append(
        {
            "system": "Pocket S3 baseline (1l)",
            "workers": 250,
            "runtime_s": pocket_s3,
            "paper_s": baselines.POCKET_S3_SECONDS_250,
        }
    )
    for p, t in baselines.POCKET_VM_SECONDS.items():
        rows.append({"system": "Pocket (VMs, published)", "workers": p, "runtime_s": t, "paper_s": t})
    rows.append(
        {
            "system": "Locus (published)",
            "workers": "dynamic",
            "runtime_s": f"{baselines.LOCUS_100GB_RANGE_S[0]}-{baselines.LOCUS_100GB_RANGE_S[1]}",
            "paper_s": "80-140",
        }
    )
    print_table(rows, "Table 3: 100 GB exchange")
    print(
        f"Lambada is {pocket_s3 / rows[0]['runtime_s']:.1f}x faster than the "
        "1-level S3 baseline at 250 workers (paper: 5x)"
    )

    large = (("1 TB", 1e12, baselines.LAMBADA_1TB), ("3 TB", 3e12, baselines.LAMBADA_3TB))
    big = [
        {"dataset": label, "workers": p, "runtime_s": xr.lambada_table3_row(d, p), "paper_s": paper}
        for label, d, (p, paper) in large
    ]
    print_table(big, "Large datasets (§5.5)")

    for dataset, d, (p, _) in large:
        label = f"{dataset} / {p}"
        r = xr.simulate_exchange_runtime(d, p)
        print(f"\nFig 13 ({label}): waiting fraction {r.waiting_fraction:.0%} "
              f"(paper: >50% at 3 TB), fastest/slowest {r.fastest_to_slowest:.0%} (paper ~85% at 1 TB)")
        print_table(
            [vars(ph) for ph in r.phases],
            f"Fig 13 per-phase distribution ({label})",
        )


if __name__ == "__main__":
    main()
