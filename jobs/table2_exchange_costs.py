"""Table 2 + Fig 9: request counts and dollar costs of the exchange family.

Closed forms for paper-scale worker counts and §4.4.3's offsets-variant
crossover, plus a *real* exchange run on Spark through the simulated S3 whose
counted requests are checked against the formulas.

Usage: python jobs/table2_exchange_costs.py [sf]
"""
import itertools
import sys
import tempfile

from _common import get_spark, print_table

from repro import synth_data
from repro.exchange import algorithms as alg
from repro.exchange import cost_model, runner
from repro.s3.store import S3Store


def closed_forms() -> None:
    """The model half of the job: Table 2 priced (Fig 9) and §4.4.3's
    crossover of the two write-combining offsets variants."""
    print_table(cost_model.figure9((256, 1024, 4096)), "Table 2 closed forms priced (Fig 9)")
    print("paper: 1l at 4k workers costs ~$100 in requests vs ~$3.3 of worker time;")
    print("       2l-wc brings requests below worker cost; 3l-wc makes them negligible")
    crossover = next(
        p
        for p in itertools.count(1)
        if (c := cost_model.offsets_variant_costs(p))["filename_extra_usd"]
        < c["sidecar_extra_usd"]
    )
    print(
        f"\noffsets in the filename (one LIST per worker) beat the sidecar file "
        f"(a second GET per sender) from {crossover} workers on "
        '(paper: "more than about 12")'
    )


def main(sf: float = 0.02) -> None:
    closed_forms()

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
