"""Spark task start-up: ``pytask.run_on_workers`` prepares each worker
process once, so that it re-reads its import archives only when they change
and freezes its imported heap, and leaves the driver as it is.

The invalidation itself is checked in a fresh interpreter, so this pytest
process is never patched; the Spark test counts archive reads rather than
timing tasks."""
import gc
import json
import subprocess
import sys
import zipfile
import zipimport
from pathlib import Path

import pyarrow as pa
import pytest

from repro import pytask

SRC = Path(__file__).resolve().parents[1] / "src"

#: imports a module from the archive, prepares the process as a task's first
#: ID does, then counts the archive reads of each
#: ``importlib.invalidate_caches()`` that follows
_SCRIPT = r"""
import importlib, json, sys, zipfile, zipimport
src, archive, version = sys.argv[1:4]
if version:
    sys.version_info = tuple(map(int, version.split(".")))
sys.path[:0] = [src, archive]
import m1
from repro import pytask
stdlib = zipimport.zipimporter.invalidate_caches
pytask._prepare()
out = {"patched": zipimport.zipimporter.invalidate_caches is not stdlib}
reads, read = [], zipimport._read_directory
zipimport._read_directory = lambda path: reads.append(path) or read(path)

def invalidate():
    del reads[:]
    importlib.invalidate_caches()
    return list(reads)

out["first"], out["second"] = invalidate(), invalidate()
with zipfile.ZipFile(archive, "w") as z:
    z.writestr("m1.py", "")
    z.writestr("m2.py", "")
out["rewritten"] = invalidate()
import m2
out["after"] = invalidate()
print(json.dumps(out))
"""


def _run_script(tmp_path, version=""):
    archive = tmp_path / "mods.zip"
    with zipfile.ZipFile(archive, "w") as z:
        z.writestr("m1.py", "")
    proc = subprocess.run(
        [sys.executable, "-c", _SCRIPT, str(SRC), str(archive), version],
        capture_output=True, text=True, check=True,
    )
    return str(archive), json.loads(proc.stdout)


@pytest.mark.skipif(sys.version_info >= (3, 13), reason="CPython 3.13 invalidates lazily")
def test_archive_is_read_again_only_when_it_changes(tmp_path):
    archive, out = _run_script(tmp_path)
    assert out["patched"]
    assert out["first"] == []  # stamped at install: read just before the task
    assert out["second"] == []
    assert out["rewritten"] == [archive]  # the size changed, and m2 imported
    assert out["after"] == []


def test_class_left_as_is_on_cpython_3_13(tmp_path):
    archive, out = _run_script(tmp_path, version="3.13.0")
    assert not out["patched"]


def test_reused_worker_reads_archives_once(spark):
    """Every task of a reused Python worker calls ``invalidate_caches``;
    after its first task, which stamps every importer, the worker reads no
    archive again. Unprepared, it reads 16 per task."""

    def probe(p):
        import os
        import zipimport

        read = zipimport._read_directory
        if not hasattr(read, "calls"):  # once per process

            def counted(path):
                counted.calls += 1
                return read(path)

            counted.calls = 0
            zipimport._read_directory = counted
        calls = zipimport._read_directory.calls
        yield pa.record_batch([[os.getpid()], [calls]], names=["pid", "reads"])

    counts: dict[int, list[int]] = {}
    n = spark.sparkContext.defaultParallelism  # one ID per task
    for _ in range(12):
        for row in pytask.run_on_workers(spark, n, probe, "pid long, reads long").collect():
            counts.setdefault(row.pid, []).append(row.reads)
    reused = {pid: c for pid, c in counts.items() if len(c) >= 3}
    assert reused, counts
    for pid, c in reused.items():
        assert c == [0] * len(c), (pid, c)


def test_worker_processes_freeze_their_heap(spark, mq1):
    """Every worker process froze what pyspark, pyarrow, pandas and the
    tasks' modules built: the daemon's ``gc.collect()`` after each task
    traverses only the few objects left tracked. Unfrozen, a worker tracks
    ~75k objects after a query, and ~30k when only pandas is left out of the
    freeze. It froze once: an object a task keeps for the next one is still
    tracked there (``gc.get_objects`` leaves frozen objects out)."""

    def probe(p):
        import os

        kept = getattr(gc, "_kept_by_probe", None)
        refrozen = kept is not None and not any(o is kept for o in gc.get_objects())
        gc._kept_by_probe = [p]
        counts = [os.getpid(), gc.get_freeze_count(), len(gc.get_objects()), refrozen]
        yield pa.RecordBatch.from_arrays(
            [pa.array([c]) for c in counts], ["pid", "frozen", "tracked", "refrozen"]
        )

    for _ in range(3):
        schema = "pid long, frozen long, tracked long, refrozen boolean"
        for row in pytask.run_on_workers(spark, 8, probe, schema).collect():
            assert row.frozen > 0 and row.tracked * 10 < row.frozen, row
            assert not row.refrozen, row


def test_driver_is_not_patched(mq1):
    assert mq1.result.n_workers == 16  # the query ran its prepared tasks
    assert zipimport.zipimporter.invalidate_caches is pytask._EAGER
    assert pytask._EAGER.__module__ == "zipimport"
    assert gc.get_freeze_count() == 0
