"""Guard against code and knobs that only tests run.

Every top-level function and class of ``src/repro``, and every method of a
top-level class, must be referenced from ``src/``, ``jobs/``, ``benchmarks/``
or ``perfbench/`` somewhere outside its own definition. A reference is any
use of the name as an identifier, attribute or import. Reference models that
only tests need belong in ``tests/``.

Likewise every settable value of ``src/repro`` (a defaulted parameter of a
top-level function or of a method, a field of a frozen dataclass) must be
passed by some call in those directories: a branch that only a test's
argument selects is code that only tests run, and a value that nothing sets
is a constant.
"""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "repro"
CALLER_DIRS = ("src", "jobs", "benchmarks", "perfbench")

#: (module path relative to src/repro, qualified name) -> why it may have no
#: caller in the program's own code.
ALLOWLIST = {
    ("scan/s3file.py", "S3RandomAccessFile.readable"): "file protocol pyarrow calls by name",
    ("scan/s3file.py", "S3RandomAccessFile.seekable"): "file protocol pyarrow calls by name",
    ("scan/s3file.py", "S3RandomAccessFile.tell"): "file protocol pyarrow calls by name",
    ("scan/s3file.py", "S3RandomAccessFile.writable"): "file protocol pyarrow calls by name",
    ("exchange/runner.py", "_LedgerSum.zero"): "AccumulatorParam method Spark calls by name",
    ("exchange/runner.py", "_LedgerSum.addInPlace"): "AccumulatorParam method Spark calls by name",
    ("core/expr.py", "Expr.eq"): "frontend API for user predicates",
    ("core/frontend.py", "Lambada.from_parquet"): "frontend API: the paper's Listing 1 entry point",
    ("core/queries.py", "listing1"): "frontend API: the paper's Listing 1",
}
#: Modules provided as given (data generator and DuckDB oracle); their
#: public functions are the tests' inputs and references.
PROVIDED = {"synth_data.py", "oracle.py"}


def _definitions(tree: ast.Module):
    """(qualified name, node) for top-level defs and methods of top-level classes."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for sub in node.body:
                if isinstance(sub, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    if not (sub.name.startswith("__") and sub.name.endswith("__")):
                        yield f"{node.name}.{sub.name}", sub


def _uses(tree: ast.Module):
    """(identifier, line) of every name, attribute and imported name."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno
        elif isinstance(node, ast.alias):
            yield node.name.rsplit(".", 1)[-1], node.lineno


def _parsed():
    for d in CALLER_DIRS:
        for path in sorted((ROOT / d).rglob("*.py")):
            yield path, ast.parse(path.read_text(), filename=str(path))


def unreferenced() -> list[str]:
    trees = list(_parsed())
    uses: dict[str, list[tuple[Path, int]]] = {}
    for path, tree in trees:
        for name, line in _uses(tree):
            uses.setdefault(name, []).append((path, line))
    missing = []
    for path, tree in trees:
        if not path.is_relative_to(SRC) or path.name in PROVIDED:
            continue
        rel = path.relative_to(SRC).as_posix()
        for qual, node in _definitions(tree):
            if (rel, qual) in ALLOWLIST:
                continue
            name = qual.rsplit(".", 1)[-1]
            outside = [
                (p, ln)
                for p, ln in uses.get(name, [])
                if not (p == path and node.lineno <= ln <= node.end_lineno)
            ]
            if not outside:
                missing.append(f"{rel}:{qual}")
    return missing


def test_every_definition_has_a_caller_outside_tests():
    assert unreferenced() == []


def test_allowlist_names_existing_definitions():
    defined = {
        (path.relative_to(SRC).as_posix(), qual)
        for path, tree in _parsed()
        if path.is_relative_to(SRC)
        for qual, _ in _definitions(tree)
    }
    assert set(ALLOWLIST) <= defined


#: (module path relative to src/repro, callable, parameter) -> why no call in
#: the program's own code passes it.
KNOB_ALLOWLIST = {
    ("core/engine.py", "run_query", "memory_limit_mib"): (
        "the §3.3 memory guard, a safety path the OOM test drives"
    ),
    ("exchange/algorithms.py", "ExchangeSpec", "n_buckets"): (
        "the installation-time bucket count of §4.4.1"
    ),
    ("scan/s3file.py", "S3RandomAccessFile.seek", "whence"): (
        "file protocol pyarrow calls positionally"
    ),
    ("core/dataset.py", "prepare_lineitem", "bucket"): "a storage location is a deployment path",
    ("core/dataset.py", "prepare_lineitem", "prefix"): "a storage location is a deployment path",
}


def _is_frozen_dataclass(node: ast.ClassDef) -> bool:
    return any(
        isinstance(d, ast.Call)
        and "dataclass" in ast.unparse(d.func)
        and any(k.arg == "frozen" and getattr(k.value, "value", False) for k in d.keywords)
        for d in node.decorator_list
    )


def _signature(node: ast.FunctionDef, method: bool) -> tuple[list, list]:
    """(every parameter in call order, the settable ones: those with a
    default) of a function; a method's ``self`` or ``cls`` is left out."""
    a = node.args
    positional = [x.arg for x in a.posonlyargs + a.args]
    settable = positional[len(positional) - len(a.defaults):]
    settable += [x.arg for x, d in zip(a.kwonlyargs, a.kw_defaults) if d is not None]
    static = any(getattr(d, "id", None) == "staticmethod" for d in node.decorator_list)
    if method and not static:
        positional = positional[1:]
    return positional, settable


def _knob_owners(tree: ast.Module):
    """(qualified name, the name its calls use, every parameter in call
    order, the settable ones) of every top-level function, every method of a
    top-level class (``__init__`` is called by its class's name) and every
    frozen dataclass (its fields, which are configuration)."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield (node.name, node.name, *_signature(node, method=False))
        if not isinstance(node, ast.ClassDef):
            continue
        if _is_frozen_dataclass(node):
            fields = [n for n in node.body if isinstance(n, ast.AnnAssign)]
            settable = [f.target.id for f in fields if f.value is not None]
            yield node.name, node.name, [f.target.id for f in fields], settable
        for sub in node.body:
            if isinstance(sub, ast.FunctionDef):
                called = node.name if sub.name == "__init__" else sub.name
                yield (f"{node.name}.{sub.name}", called, *_signature(sub, method=True))


def _passed(trees, name: str, params: list) -> set:
    """Parameters of ``name`` that some call passes, by keyword or position."""
    passed = set()
    for _, tree in trees:
        for node in ast.walk(tree):
            if not isinstance(node, ast.Call):
                continue
            func = node.func
            if getattr(func, "id", None) != name and getattr(func, "attr", None) != name:
                continue
            passed |= {kw.arg for kw in node.keywords if kw.arg is not None}
            passed |= set(params[: len(node.args)])
    return passed


def unset_knobs() -> tuple[list[str], set]:
    """(``path:callable(parameter)`` of every settable value of ``src/repro``
    that no call in the program's own code passes, every settable value)."""
    trees = list(_parsed())
    unset, knobs = [], set()
    for path, tree in trees:
        if not path.is_relative_to(SRC) or path.name in PROVIDED:
            continue
        rel = path.relative_to(SRC).as_posix()
        for qual, called, params, settable in _knob_owners(tree):
            knobs |= {(rel, qual, k) for k in settable}
            passed = _passed(trees, called, params)
            unset += [
                f"{rel}:{qual}({k})"
                for k in settable
                if k not in passed and (rel, qual, k) not in KNOB_ALLOWLIST
            ]
    return unset, knobs


def test_every_knob_is_set_outside_tests():
    unset, knobs = unset_knobs()
    assert unset == []
    assert set(KNOB_ALLOWLIST) <= knobs


#: Spark calls whose function runs as a Python task on a worker
TASK_CALLS = {"mapInArrow", "applyInArrow"}


def _is_task(node) -> bool:
    return getattr(node, "id", None) == "task" or getattr(node, "attr", None) == "task"


def unwrapped_tasks() -> list[str]:
    """``path:line`` of every task call in ``src/`` whose function is not
    wrapped by ``pytask.task``, by ``task(fn)`` or by ``@task`` on its def."""
    bad = []
    for path, tree in _parsed():
        if not path.is_relative_to(SRC):
            continue
        decorated = {
            n.name
            for n in ast.walk(tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
            and any(_is_task(d) for d in n.decorator_list)
        }
        for node in ast.walk(tree):
            if not (isinstance(node, ast.Call) and getattr(node.func, "attr", None) in TASK_CALLS):
                continue
            fn = node.args[0] if node.args else None
            wrapped = (isinstance(fn, ast.Call) and _is_task(fn.func)) or (
                isinstance(fn, ast.Name) and fn.id in decorated
            )
            if not wrapped:
                bad.append(f"{path.relative_to(SRC).as_posix()}:{node.lineno}")
    return bad


def test_every_spark_task_is_wrapped():
    """A Spark Python task whose function is not wrapped re-reads every
    import archive before it runs (see ``repro.pytask``)."""
    assert unwrapped_tasks() == []


#: the modules of the Arrow pipeline that hand pandas frames to their callers
PANDAS_OWNERS = {"core/engine.py", "core/dataset.py"}


def pandas_imports() -> list[str]:
    """``path:line`` of every pandas import in ``src/repro/scan/`` and
    ``src/repro/core/`` outside :data:`PANDAS_OWNERS`."""
    bad = []
    for path, tree in _parsed():
        if not path.is_relative_to(SRC):
            continue
        rel = path.relative_to(SRC).as_posix()
        if rel.split("/")[0] not in ("scan", "core") or rel in PANDAS_OWNERS:
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                modules = [a.name for a in node.names]
            elif isinstance(node, ast.ImportFrom):
                modules = [node.module or ""]
            else:
                continue
            if any(m.split(".")[0] == "pandas" for m in modules):
                bad.append(f"{rel}:{node.lineno}")
    return bad


def test_arrow_pipeline_imports_no_pandas():
    """One columnar representation from scan to partial state: the scan and
    the worker's pipeline work in Arrow alone."""
    assert pandas_imports() == []
