"""The entrypoints in jobs/ print every number EXPERIMENTS.md quotes from them.

The jobs that need no Spark session run as subprocesses. Of the Spark jobs,
table2's model half runs in-process; the rest only have to parse (their
logic is covered by test_experiments / test_exchange_runner).
"""
import ast
import re
import subprocess
import sys
from pathlib import Path

import pytest

JOBS = Path(__file__).resolve().parents[1] / "jobs"

#: Job -> the numbers EXPERIMENTS.md quotes from its stdout, as rounded there.
QUOTED = {
    "table1_invocation.py": [
        "36", "363", "474", "536",  # single invocation [ms]
        "294", "276", "243", "222",  # concurrent rate [inv/s]
        "83.3", "83.2", "83.1",  # intra-region rate [inv/s]
        "2.28", "14.8",  # Fig 5: last of 4096 initiated, tree vs driver-only
        "1.44", "1.97", "3.40", "4.50",  # 1000 cold workers, last initiated
        "2.53", "3.07", "4.43", "6.04",  # 1000 cold workers, all running
        "6",  # gg
    ],
    "table3_exchange_runtime.py": [
        "25.2", "14.6", "9.4", "107.4", "50.9", "142.3",
        "22", "15", "13", "98", "56", "159",  # paper column
        "4.3",  # speed-up over the 1-level S3 baseline
        "46", "11", "93",  # Fig 13 waiting fractions and fastest/slowest [%]
    ],
    "figure1_intro_sim.py": [
        "0.057", "0.37", "6.5", "6.6", "123",  # Fig 1a
        "9.07", "34.9", "50.5", "4.55", "24",  # Fig 1b
        "7.2", "3328",  # executor model vs function scheduling
        "14.35", "100", "10",  # §6: FaaS at 1024 workers vs Flint and Lambada
    ],
    "figure4_cpu_model.py": ["1.68"],
    "figure7_chunking.py": ["81", "24.7", "98.8", "1.65", "6.6", "26", "128", "32", "8"],
}

#: Numbers the model half of jobs/table2_exchange_costs.py must print.
TABLE2_QUOTED = ["90.6", "0.29", "0.20", "0.16", "4.9", "13"]

_NUMBER = re.compile(r"\d+(?:\.\d+)?")


def _missing(stdout: str, quoted: list[str]) -> list[str]:
    """The quoted numbers no printed number rounds to."""
    printed = [float(n) for n in _NUMBER.findall(stdout)]
    missing = []
    for q in quoted:
        decimals = len(q.partition(".")[2])
        if not any(round(n, decimals) == float(q) for n in printed):
            missing.append(q)
    return missing


@pytest.mark.parametrize("job", sorted(QUOTED))
def test_job_runs_and_prints_table(job):
    out = subprocess.run(
        [sys.executable, str(JOBS / job)],
        capture_output=True,
        text=True,
        timeout=180,
        cwd=JOBS,
    )
    assert out.returncode == 0, out.stderr[-2000:]
    assert "==" in out.stdout  # at least one table header
    assert _missing(out.stdout, QUOTED[job]) == []


def test_table2_closed_forms_print_quoted_numbers(monkeypatch, capsys):
    monkeypatch.syspath_prepend(str(JOBS))
    import table2_exchange_costs

    table2_exchange_costs.closed_forms()
    out = capsys.readouterr().out
    assert _missing(out, TABLE2_QUOTED) == []
    assert "from 13 workers on" in out


def test_spark_jobs_importable():
    """The Spark jobs must at least parse (their mains run under spark-submit)."""
    for job in ("table2_exchange_costs.py", "figure10_worker_config.py",
                "figure11_pushdown.py", "figure12_qaas.py"):
        ast.parse((JOBS / job).read_text())
