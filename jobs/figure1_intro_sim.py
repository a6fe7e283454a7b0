"""Fig 1: the introduction's motivating simulation + the Spark-executor-model
vs serverless-scheduling comparison.

Usage: python jobs/figure1_intro_sim.py  (pure model, no Spark)
"""
from _common import print_table

from repro.qaas.spark_baseline import scheduling_comparison
from repro.sim import baselines, figure1


def main() -> None:
    f = figure1.figure1a()
    print_table([vars(p) for p in f["iaas"]], "Fig 1a: job-scoped IaaS (c5n.xlarge, 2 min startup)")
    print_table([vars(p) for p in f["faas"]], "Fig 1a: FaaS (2 GiB workers, 4 s startup)")
    print("paper: IaaS up to an order of magnitude cheaper; only FaaS reaches interactive latency")
    iaas_usd = min(p.cost_usd for p in f["iaas"])
    faas_usd = min(p.cost_usd for p in f["faas"])
    print(f"cheapest IaaS ${iaas_usd:.3f} vs cheapest FaaS ${faas_usd:.2f}: {faas_usd / iaas_usd:.1f}x")
    faas_1024 = next(p for p in f["faas"] if p.workers == 1024)
    print(
        f"§6: FaaS 1 TB scan with 1024 workers {faas_1024.latency_s:.2f} s; "
        f"published: Flint ~{baselines.FLINT_1TB_SCAN_S:.0f} s, "
        f"Lambada ~{baselines.LAMBADA_1TB_SCAN_S:.0f} s"
    )

    tiers = [
        {
            "option": t,
            "usd_per_hour": figure1.always_on_hourly(t),
            "scan_latency_s": figure1.tier_latency(t),
        }
        for t in figure1.ALWAYS_ON_TIERS
    ]
    print_table(tiers, "Fig 1b: always-on tiers meeting the 10 s target on 1 TB")
    print_table(
        [
            {"queries_per_hour": q, **figure1.figure1b_hourly(q)}
            for q in (0.1, 1, 10, 25, 100)
        ],
        "Fig 1b: $/hour vs query frequency",
    )
    print(
        f"FaaS break-even: {figure1.faas_breakeven_queries_per_hour():.1f} queries/hour "
        f"(FaaS ${figure1.faas_per_query_cost():.2f}/query, QaaS ${figure1.qaas_per_query_cost():.2f}/query)"
    )
    print_table(
        scheduling_comparison(),
        "Spark executor model vs Lambada function scheduling (1 TB cold scan)",
    )


if __name__ == "__main__":
    main()
