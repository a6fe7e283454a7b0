"""Tests of the benchmark itself.

Run from the repository root: ``python -m pytest perfbench/tests -q``.
The tests marked ``slow`` run the benchmark command end to end (a few
minutes); ``-m "not slow"`` skips them.
"""
from __future__ import annotations

import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import stats  # noqa: E402
from tracing import Spans, patched  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


# -- statistics ---------------------------------------------------------------
def test_tail_leaves_ten_samples_beyond():
    value, pct, beyond = stats.tail(list(range(1, 101)))
    assert (value, pct, beyond) == (90, 90.0, 10)


def test_tail_never_reads_below_the_median():
    for n in range(1, 25):
        xs = list(range(n))
        value, _, beyond = stats.tail(xs)
        assert value >= stats.median(xs)
        if n >= 22:
            assert beyond == 10


def test_slope():
    assert stats.slope([1.0, 2.0, 3.0, 4.0]) == pytest.approx(1.0)
    assert stats.slope([5.0]) == 0.0


# -- tracing ------------------------------------------------------------------
class _Base:
    def hello(self):
        return "base"


class _Child(_Base):
    def own(self):
        return "own"

    def items(self):
        yield from (1, 2, 3)


def test_patched_times_calls_and_restores_attributes():
    spans = Spans()
    own_before = vars(_Child)["own"]
    with patched(spans, [(_Child, "own", "a"), (_Child, "hello", "b"), (_Child, "items", "c", "iter")]):
        c = _Child()
        assert c.own() == "own" and c.hello() == "base"
        assert list(c.items()) == [1, 2, 3]
    assert spans.calls == {"a": 1, "b": 1, "c": 4}  # three items and the stop
    assert vars(_Child)["own"] is own_before
    assert "hello" not in vars(_Child)  # inherited attribute not pinned
    assert "items" in vars(_Child)


# -- the BENCHMARK.json contract ---------------------------------------------------
def test_benchmark_json_is_well_formed():
    assert set(SPEC) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert SPEC["paths"] == ["perfbench"]
    assert 1 <= SPEC["run_seconds"] <= 60 and isinstance(SPEC["run_seconds"], int)
    assert 2 <= len(SPEC["workloads"]) <= 8
    names = [w["name"] for w in SPEC["workloads"]]
    names += [m["name"] for m in SPEC["end_to_end"] + SPEC["per_layer"]]
    assert len(names) == len(set(names))
    assert all(NAME.match(n) for n in names)
    for w in SPEC["workloads"]:
        assert set(w) == {"name", "why"} and len(w["why"]) <= 200 and "\n" not in w["why"]
    for m in SPEC["end_to_end"]:
        assert set(m) == {"name", "unit", "better", "bound"}
        assert 0 < m["bound"] <= 0.25
    for m in SPEC["per_layer"]:
        assert set(m) == {"name", "unit", "better"}
    for m in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.match(m["unit"]) and m["better"] in ("lower", "higher")
    setup = next(m for m in SPEC["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns(".work", "results", "__pycache__"))
    p = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", SPEC["workloads"][0]["name"],
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=180,
    )
    assert p.returncode != 0
    assert not p.stdout.strip()


# -- the request bill repeats exactly ------------------------------------------------
def _run(workload: str, seed: int) -> dict:
    p = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, timeout=900,
    )
    assert p.returncode == 0, p.stderr[-3000:]
    result = json.loads(p.stdout.strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    record = json.loads((HERE / "results" / f"{workload}-seed{seed}-trace0.json").read_text())
    assert record["provenance"]["seed"] == seed
    return record


@pytest.mark.slow
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_request_bill_repeats_exactly(workload):
    first, again, other = _run(workload, 1), _run(workload, 1), _run(workload, 2)
    for record in (first, again, other):
        bills = [o["exact"] for o in record["ops"]]
        assert len(bills) >= 3 and all(b == bills[0] for b in bills)
    # same seed, same layout: the same requests and bytes, op for op
    assert first["ops"][0]["exact"] == again["ops"][0]["exact"]
    assert first["metrics"]["s3_requests_per_op"] == again["metrics"]["s3_requests_per_op"]
    assert first["metrics"]["s3_bytes_read_per_op"] == again["metrics"]["s3_bytes_read_per_op"]
    if workload.startswith("exchange"):
        # the exchange's request counts depend only on P and the algorithm
        counts = ("gets", "puts", "lists", "heads", "deletes")
        assert {k: first["ops"][0]["exact"][k] for k in counts} == {
            k: other["ops"][0]["exact"][k] for k in counts
        }
