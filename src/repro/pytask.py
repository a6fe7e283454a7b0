"""Spark Python task start-up without re-reading the import archives.

Before every task, PySpark's worker calls ``importlib.invalidate_caches()``.
Up to CPython 3.12 every ``zipimporter`` then re-reads its archive's whole
directory in pure Python: here pyspark.zip, the py4j zip and the spark-core
jar, behind 16 importers, 0.12-0.29 s per task on a 4 vCPU VM. :func:`task`
makes a worker process's zipimporters re-read an archive only when its
``(st_mtime_ns, st_size)`` has changed since that importer last read it.
CPython 3.13 is lazy by itself (it only drops the cache), so there the
class is left as it is. The driver process never runs a task, so it is
never patched. :func:`run_on_workers` is the one job shape that runs a
function per worker ID, wrapped so.
"""
import functools
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


def task(fn):
    """Wrap a one-argument Spark task function (an Arrow batch iterator, or
    a group's table) so that the worker process running it first installs
    the lazy invalidation, once per process."""

    @functools.wraps(fn)
    def wrapped(arg):
        if sys.version_info < (3, 13) and zipimport.zipimporter.invalidate_caches is _EAGER:
            _install()
        return fn(arg)

    return wrapped


def run_on_workers(spark, n_workers: int, fn, schema):
    """One Spark job over the worker IDs ``0..n_workers-1``, lazily: each
    task runs ``fn(p)`` for its IDs in turn and emits the Arrow record
    batches it yields, typed by ``schema``."""

    @task
    def tasks(batches):
        for batch in batches:
            for p in batch.column(0).to_pylist():
                yield from fn(p)

    return spark.range(n_workers).mapInArrow(tasks, schema)
