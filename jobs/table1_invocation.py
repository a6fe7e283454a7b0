"""Table 1 + Fig 5: function-invocation characteristics and two-level tree.

Usage: python jobs/table1_invocation.py  (no Spark needed — pure DES)
"""
from _common import print_table

from repro.faas import invocation as inv
from repro.sim import baselines


def main() -> None:
    rows = [
        {
            "region": r["region"],
            "single_invocation_ms": r["single_invocation_ms"],
            "concurrent_rate_inv_s": r["concurrent_rate_per_s"],
            "intra_region_rate_inv_s": r["intra_region_rate_per_s"],
        }
        for r in inv.table1()
    ]
    print_table(rows, "Table 1: characteristics of function invocations (simulated)")
    print("paper: single inv 36/363/474/536 ms; concurrent 294/276/243/222; intra 81/79/84/81")

    tree = inv.simulate_two_level(4096, inv.REGIONS["us"], cold=True)
    naive = inv.simulate_driver_invocations(4096, inv.REGIONS["us"])
    print_table(
        [
            {
                "strategy": "two-level tree (cold)",
                "last_invocation_initiated_s": tree.last_initiated,
                "all_running_s": tree.all_running,
            },
            {
                "strategy": "driver-only",
                "last_invocation_initiated_s": naive.last_initiated,
                "all_running_s": naive.all_running,
            },
        ],
        "Fig 5: starting 4096 workers",
    )
    print("paper: tree initiates last worker after ~2.5 s; driver-only would take 13-18 s")

    rows = []
    for region in inv.REGIONS.values():
        tree = inv.simulate_two_level(1000, region, cold=True)
        naive = inv.simulate_driver_invocations(1000, region, cold=True)
        rows.append(
            {
                "region": region.name,
                "tree_last_initiated_s": tree.last_initiated,
                "tree_all_running_s": tree.all_running,
                "driver_only_last_initiated_s": naive.last_initiated,
                "driver_only_all_running_s": naive.all_running,
            }
        )
    print_table(rows, "Starting 1000 cold workers")
    tree_s = [r["tree_last_initiated_s"] for r in rows]
    naive_s = [r["driver_only_last_initiated_s"] for r in rows]
    print(
        f"last of 1000 workers initiated: tree {min(tree_s):.2f}-{max(tree_s):.2f} s, "
        f"driver-only {min(naive_s):.2f}-{max(naive_s):.2f} s (paper: 3.4 s to 4.4 s); "
        f"gg starts 1000 workers in ~{baselines.GG_1K_STARTUP_S:.0f} s"
    )


if __name__ == "__main__":
    main()
