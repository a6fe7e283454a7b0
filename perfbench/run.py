"""Closed-loop benchmark of the Lambada reproduction.

Run from the repository root:

    python3 perfbench/run.py --workload q1-scan --seed 1 --seconds 10 --trace 0

One client issues one op at a time, from this process, on a ``local[*]``
Spark session. A run starts the session, generates the workload's inputs
from ``--seed`` and uploads them (``setup_s``), runs one cold op (reported
as ``first_op_s``, not gated) and ``WARMUP_OPS`` unmeasured warm-up ops,
then runs measured ops until ``--seconds`` have passed and at least
``MIN_MEASURED_OPS`` are done. Every op's output is checked outside the
timed region; a wrong result, a raised error or a request bill that does
not repeat exactly counts as a failed op and makes the command exit
non-zero.

``--trace 0`` reports the end-to-end metrics of BENCHMARK.json. ``--trace 1``
alternates untraced and traced ops, reports the per-layer metrics, and
records the traced-minus-untraced median latency as the tracing overhead.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the full record,
with every op and the provenance, goes to ``perfbench/results/``.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shlex
import shutil
import subprocess
import sys
import time
import traceback
from pathlib import Path

import duckdb
import pandas
import pyarrow
import pyspark
from pyspark import SparkContext
from pyspark.sql import SparkSession

import stats
from tracing import Spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

#: unmeasured warm ops after the cold one (JIT and Python-worker warm-up)
WARMUP_OPS = 1
#: measured ops a run always completes, even when they outlast ``--seconds``
#: (a traced run alternates untraced and traced ops, so it needs both kinds)
MIN_MEASURED_OPS = 3
#: start no op later than this after the command began, whatever the
#: minimum, so that a run on a slow machine still ends within three minutes
HARD_STOP_S = 120.0
#: measured per-layer values next to the calibrated model's counterparts
MODEL_CHECK = [
    ("decode bytes per core-second", "scan.decode_bytes_per_s", "model.scan_bytes_per_vcpu_s"),
    ("requests per worker", "s3.requests_per_worker", "model.requests_per_worker"),
    ("request USD per worker", "s3.request_usd_per_worker", "model.request_usd_per_worker"),
]


def _spec() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def _configure_env(work: Path) -> None:
    """Environment for the Spark JVM and its Python workers: set before the
    JVM starts, because both read it only then."""
    tmp = work / "tmp"
    tmp.mkdir(parents=True, exist_ok=True)
    os.environ["TMPDIR"] = str(tmp)
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH")) if p
    )
    os.environ["PYSPARK_PYTHON"] = sys.executable
    os.environ["PYSPARK_DRIVER_PYTHON"] = sys.executable
    mem = os.environ.get("SPARK_DRIVER_MEM", "4g")
    master = os.environ.get("SPARK_MASTER", "local[*]")
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {shlex.quote(master)}",
            f"--driver-memory {shlex.quote(mem)}",
            "--conf spark.driver.host=127.0.0.1",
            "--conf spark.ui.enabled=false",
            "--conf spark.ui.showConsoleProgress=false",
            f"--conf spark.local.dir={shlex.quote(str(work / 'spark'))}",
            f"--driver-java-options {shlex.quote('-Djava.io.tmpdir=' + str(tmp))}",
            "pyspark-shell",
        ]
    )


def _start_spark():
    """The session the test suite uses (same configs as the root conftest)."""
    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", os.environ.get("SPARK_SHUFFLE_PARTITIONS", "64"))
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def _stop_spark(spark) -> None:
    """Stop the session and wait for the JVM (and its Python workers)."""
    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the JVM exits on EOF from its parent
        try:
            proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            proc.kill()
            proc.wait()


def _provenance(spark, seed: int) -> dict:
    git = None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        ).stdout.split()
    except (OSError, subprocess.TimeoutExpired):
        out = []
    if len(out) == 2 and Path(out[0]).resolve() == ROOT:  # not an enclosing repo
        git = out[1]
    digest = hashlib.sha256()
    for p in sorted(SRC.rglob("*.py")):
        digest.update(p.relative_to(SRC).as_posix().encode())
        digest.update(p.read_bytes())
    sc = spark.sparkContext
    return {
        "git_hash": git,
        "src_sha256": digest.hexdigest(),
        "nproc": os.cpu_count(),
        "spark_master": sc.master,
        "default_parallelism": sc.defaultParallelism,
        "driver_memory": sc.getConf().get("spark.driver.memory", None),
        "pyspark": pyspark.__version__,
        "pyarrow": pyarrow.__version__,
        "pandas": pandas.__version__,
        "duckdb": duckdb.__version__,
        "python": platform.python_version(),
        "seed": seed,
    }


def _run_op(wl, i: int, traced: bool, replay: bool):
    """One op: timed call, untimed checks, untimed trace work, cleanup."""
    spans = Spans() if traced else None
    out = None
    rec = {"i": i, "traced": traced}
    try:
        t = time.perf_counter()
        out = wl.op(i, spans)
        rec["latency_s"] = time.perf_counter() - t
        rec.update(wl.check(i, out))
        if traced:
            rec["layers"].update(wl.traced_layers(out, spans, rec["latency_s"]))
        if replay:
            rec["replay"] = wl.replay(i, out)
        rec["ok"] = True
    except Exception as e:  # an op failure is a result, not a crash
        traceback.print_exc(file=sys.stderr)
        rec.update(ok=False, error=repr(e))
    finally:
        wl.cleanup(i, out)
    return rec


def _loop(wl, seconds: float, trace: int, stop_at: float) -> list[dict]:
    ops = [_run_op(wl, 0, False, False)]
    for _ in range(WARMUP_OPS):
        ops.append(_run_op(wl, len(ops), False, False) | {"warmup": True})
    n_warm = len(ops)
    deadline = time.perf_counter() + seconds
    replayed = False
    while time.perf_counter() < stop_at:
        if time.perf_counter() >= deadline and len(ops) - n_warm >= MIN_MEASURED_OPS:
            break
        i = len(ops)
        traced = trace == 1 and (i - n_warm) % 2 == 1
        ops.append(_run_op(wl, i, traced, traced and not replayed))
        replayed = replayed or traced
    # the request bill is deterministic for a fixed layout and seed
    good = [o for o in ops if o["ok"]]
    for o in good[1:]:
        if o["exact"] != good[0]["exact"]:
            o.update(ok=False, error=f"request bill {o['exact']} != first op's {good[0]['exact']}")
    return ops


def _measured(ops, traced: bool) -> list[dict]:
    return [o for o in ops[1:] if o["ok"] and not o.get("warmup") and o["traced"] == traced]


def _end_to_end(ops, setup_s: float, input_rows: int) -> tuple[dict, dict]:
    warm = _measured(ops, traced=False)
    lat = [o["latency_s"] for o in warm]
    tail, pct, beyond = stats.tail(lat)
    metrics = {
        "setup_s": setup_s,
        "latency_p50_s": stats.median(lat),
        "latency_tail_s": tail,
        "rows_per_s": input_rows * len(lat) / sum(lat),
        "s3_requests_per_op": stats.median([o["requests"] for o in warm]),
        "s3_bytes_read_per_op": stats.median([o["bytes_read"] for o in warm]),
        "s3_bytes_written_per_op": stats.median([o["bytes_written"] for o in warm]),
        "driver_peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    extra = {
        # one cold op per run spreads too widely between runs to be gated
        "first_op_s": ops[0]["latency_s"],
        "warm_ops": len(lat),
        "latency_tail_percentile": pct,
        "latency_tail_samples_beyond": beyond,
        "latency_slope_s_per_op": stats.slope(lat),
    }
    return metrics, extra


def _per_layer(ops) -> dict:
    traced = _measured(ops, traced=True)
    untraced = _measured(ops, traced=False)
    layers = {}
    for key in traced[0]["layers"]:
        layers[key] = stats.median([o["layers"][key] for o in traced])
    for o in ops:
        layers.update(o.get("replay", {}))
    t50 = stats.median([o["latency_s"] for o in traced])
    u50 = stats.median([o["latency_s"] for o in untraced])
    layers.update(
        {
            "trace.traced_p50_s": t50,
            "trace.untraced_p50_s": u50,
            "trace.overhead_s": t50 - u50,
            "loop.first_op_s": ops[0]["latency_s"],
            "loop.latency_slope_s_per_op": stats.slope([o["latency_s"] for o in untraced]),
        }
    )
    return layers


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    stop_at = time.perf_counter() + HARD_STOP_S

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program to measure under {SRC}", file=sys.stderr)
        return 2
    spec = _spec()
    why = {w["name"]: w["why"] for w in spec["workloads"]}

    sys.path.insert(0, str(SRC))
    import workloads  # imports the program, so only after the check above

    if args.workload not in workloads.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS[args.workload]()
    why.setdefault(args.workload, "not a BENCHMARK.json workload")
    work = HERE / ".work" / f"{args.workload}-s{args.seed}-t{args.trace}-{os.getpid()}"
    _configure_env(work)
    spark = None
    try:
        t = time.perf_counter()
        spark = _start_spark()
        session_s = time.perf_counter() - t
        data_s = wl.setup(spark, work, args.seed)
        setup_s = session_s + stats.median(data_s)
        ops = _loop(wl, args.seconds, args.trace, stop_at)
        provenance = _provenance(spark, args.seed)
    finally:
        if spark is not None:
            _stop_spark(spark)
        shutil.rmtree(work, ignore_errors=True)

    failed = sum(not o["ok"] for o in ops)
    if not failed and not all(_measured(ops, t) for t in {False, bool(args.trace)}):
        print(f"perfbench: no measured op started within {HARD_STOP_S} s", file=sys.stderr)
        return 1
    record = {
        "workload": args.workload,
        "why": why[args.workload],
        "closed_loop": "one client, one op at a time",
        "seconds": args.seconds,
        "trace": args.trace,
        "provenance": provenance,
        "setup": {"session_s": session_s, "data_s": data_s},
        "attempted": len(ops),
        "failed": failed,
        "error_rate": failed / len(ops),
        "ops": ops,
    }
    print(f"# provenance {json.dumps(provenance)}")
    print(f"# workload {args.workload}: {why[args.workload]}")
    metrics = {}
    if not failed:
        if args.trace == 0:
            values, extra = _end_to_end(ops, setup_s, wl.input_rows)
            catalogue = spec["end_to_end"]
        else:
            values = _per_layer(ops)
            extra = {
                f"model check, {q}: measured vs model": [values[m], values[c]]
                for q, m, c in MODEL_CHECK
                if c in values
            }
            catalogue = spec["per_layer"]
        unused = [m["name"] for m in catalogue if m["name"] not in values]
        if unused:  # layers this workload does not enter
            print(f"# not entered by this workload (reported as 0): {' '.join(unused)}")
        for m in catalogue:
            metrics[m["name"]] = {"value": values.get(m["name"], 0), "unit": m["unit"]}
            print(f"{m['name']} {values.get(m['name'], 0)!r} {m['unit']}")
        record.update(metrics=metrics, extra=extra)
        for k, v in extra.items():
            print(f"# {k} {v!r}")
    print(f"error_rate {record['error_rate']!r} fraction ({failed}/{len(ops)})")
    out_dir = HERE / "results"
    out_dir.mkdir(exist_ok=True)
    (out_dir / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1, default=str)
    )
    print(json.dumps({"correct": not failed, "attempted": len(ops), "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
