"""Spark Python task start-up without re-reading the import archives.

Before every task, PySpark's worker calls ``importlib.invalidate_caches()``.
Up to CPython 3.12 every ``zipimporter`` then re-reads its archive's whole
directory in pure Python: here pyspark.zip, the py4j zip and the spark-core
jar, behind 16 importers, 0.12-0.29 s per task on a 4 vCPU VM. :func:`task`
makes a worker process's zipimporters re-read an archive only when its
``(st_mtime_ns, st_size)`` has changed since that importer last read it.
CPython 3.13 is lazy by itself (it only drops the cache), so there the
class is left as it is. The driver process never runs a task, so it is
never patched.
"""
import functools
import os
import sys
import zipimport

_EAGER = zipimport.zipimporter.invalidate_caches


def _invalidate_caches(self):
    """Re-read the archive iff it changed since this importer last read it."""
    try:
        st = os.stat(self.archive)
        stamp = (st.st_mtime_ns, st.st_size)
    except OSError:
        stamp = None
    if stamp is None or getattr(self, "_stamp", None) != stamp:
        _EAGER(self)
        self._stamp = stamp


def task(fn):
    """Wrap a one-argument Spark task function (an Arrow batch iterator, or
    a group's table) so that the worker process running it first installs
    the lazy invalidation, once per process."""

    @functools.wraps(fn)
    def wrapped(arg):
        if sys.version_info < (3, 13) and zipimport.zipimporter.invalidate_caches is _EAGER:
            zipimport.zipimporter.invalidate_caches = _invalidate_caches
        return fn(arg)

    return wrapped
