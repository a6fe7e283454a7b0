"""Table 2 + Fig 9: request counts and dollar costs of the exchange family.

Closed forms for paper-scale worker counts, plus a *real* exchange run on
Spark through the simulated S3 whose counted requests are checked against the
formulas.

Usage: python jobs/table2_exchange_costs.py [sf]
"""
import sys
import tempfile

from _common import get_spark, print_table

from repro import synth_data
from repro.exchange import algorithms as alg
from repro.exchange import cost_model, runner
from repro.s3.store import S3Store


def main(sf: float = 0.02) -> None:
    rows = []
    for p in (256, 1024, 4096):
        for spec in cost_model.ALL_SPECS:
            c = cost_model.table2_counts(p, spec)
            cost = cost_model.exchange_cost(p, spec)
            rows.append(
                {
                    "workers": p,
                    "algo": spec.label,
                    "reads": int(c["reads"]),
                    "writes": int(c["writes"]),
                    "lists": int(c["lists"]),
                    "scans": c["scans"],
                    "request_usd": cost.request_cost,
                    "worker_usd_low": cost.worker_cost_low,
                    "worker_usd_high": cost.worker_cost_high,
                }
            )
    print_table(rows, "Table 2 closed forms priced (Fig 9)")
    print("paper: 1l at 4k workers costs ~$100 in requests vs ~$3.3 of worker time;")
    print("       2l-wc brings requests below worker cost; 3l-wc makes them negligible")

    spark = get_spark("table2")
    tmp = tempfile.mkdtemp(prefix="lambada-x-")
    store = S3Store(tmp)
    df = synth_data.uniform_keys(spark, n=int(2_000_000 * sf * 10), n_keys=10_000)
    measured = []
    for spec in cost_model.ALL_SPECS:
        P = 27 if spec.levels == 3 else 16
        out, rep = runner.run_exchange(spark, df, P, spec, store)
        out.unpersist()
        exp = alg.expected_requests(P, spec)
        measured.append(
            {
                "algo": spec.label,
                "workers": P,
                "counted_gets": rep.ledger.gets,
                "expected_gets": exp["gets"],
                "counted_puts": rep.ledger.puts,
                "expected_puts": exp["puts"],
                "counted_lists": rep.ledger.lists,
                "expected_lists": exp["lists"],
                "match": rep.ledger.gets == exp["gets"]
                and rep.ledger.puts == exp["puts"]
                and rep.ledger.lists == exp["lists"],
            }
        )
    print_table(measured, "Counted requests of real exchange runs vs Table 2 forms")
    spark.stop()


if __name__ == "__main__":
    main(float(sys.argv[1]) if len(sys.argv) > 1 else 0.02)
