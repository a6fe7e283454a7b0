"""Spark Python task start-up without re-reading the import archives or
re-scanning the imported heap.

Two costs of PySpark's reused Python worker process are paid per task:

* Before every task, PySpark's worker calls ``importlib.invalidate_caches()``.
  Up to CPython 3.12 every ``zipimporter`` then re-reads its archive's whole
  directory in pure Python: here pyspark.zip, the py4j zip and the
  spark-core jar, behind 16 importers, 0.12-0.29 s per task on a 4 vCPU VM.
  :func:`run_on_workers` makes a worker process's zipimporters re-read an
  archive only when its ``(st_mtime_ns, st_size)`` has changed since that
  importer last read it. CPython 3.13 is lazy by itself (it only drops the
  cache), so there the class is left as it is.
* After every task, PySpark's daemon calls ``gc.collect()`` in the reused
  worker, a full collection that traverses every object pyspark, pyarrow
  and pandas left on the heap: about 30 ms of CPU per task.
  :func:`run_on_workers` runs ``gc.freeze()`` once per worker process, on
  every CPython version, so each later collection traverses only what the
  tasks allocated.

The driver process never runs a task, so it is never patched or frozen.
:func:`run_on_workers` is the one job shape that runs a function per worker
ID, and its task prepares the worker process before its first ID.
"""
import gc
import os
import sys
import zipimport

_EAGER = zipimport.zipimporter.invalidate_caches


def _stamp(archive: str):
    try:
        st = os.stat(archive)
    except OSError:
        return None
    return st.st_mtime_ns, st.st_size


def _invalidate_caches(self):
    """Re-read the archive iff it changed since this importer last read it."""
    stamp = _stamp(self.archive)
    if stamp is None or getattr(self, "_stamp", None) != stamp:
        _EAGER(self)
        self._stamp = stamp


def _install():
    zipimport.zipimporter.invalidate_caches = _invalidate_caches
    # PySpark's worker re-read every archive just before this task ran
    for importer in list(sys.path_importer_cache.values()):
        if isinstance(importer, zipimport.zipimporter):
            importer._stamp = _stamp(importer.archive)


def _prepare():
    """Install the lazy invalidation (CPython < 3.13), then freeze the heap
    the imports built. pyarrow imports pandas, when it can, on a task's
    first ``pa.table`` call, so it is imported here first: left to the task,
    its ~30k objects would stay in every collection."""
    if sys.version_info < (3, 13):
        _install()
    try:
        import pandas  # noqa: F401
    except ImportError:  # as pyarrow, go on without it
        pass
    gc.freeze()


def run_on_workers(spark, n_workers: int, fn, schema):
    """One Spark job over the worker IDs ``0..n_workers-1``, lazily: each
    task runs ``fn(p)`` for its IDs in turn and emits the Arrow record
    batches it yields, typed by ``schema``. A task first prepares its worker
    process, once per process: until then the heap is not frozen."""

    def tasks(batches):
        if not gc.get_freeze_count():
            _prepare()
        for batch in batches:
            for p in batch.column(0).to_pylist():
                yield from fn(p)

    return spark.range(n_workers).mapInArrow(tasks, schema)
