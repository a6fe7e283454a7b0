"""Expression mini-language for Lambada plans (paper §3.2).

The paper's framework lowers UDF pipelines through an IR with selection and
projection push-downs. This module is that IR's expression layer: column
references, literals, arithmetic, and predicates. A comparison of a bare
column and a literal exposes a *prune interval*, which the compiler hands to
the scan operator so it can skip row groups using Parquet min/max statistics
(paper §4.3.2 / §5.3); ``BETWEEN`` is the conjunction of two comparisons.

Expressions evaluate vectorised over Arrow tables with ``pyarrow.compute``
(the reproduction's stand-in for the paper's LLVM-JIT-compiled pipelines —
both avoid per-record interpretation). A null operand yields null, so a
predicate over a null drops the row, as in SQL; ``AND`` is SQL's
three-valued one (``NULL AND FALSE`` is false).
"""
from __future__ import annotations

import dataclasses
import datetime
import functools
from typing import Any

import pyarrow as pa
import pyarrow.compute as pc


def _wrap(x: Any) -> "Expr":
    return x if isinstance(x, Expr) else Lit(x)


class Expr:
    """Base class: a vectorised expression over an Arrow table."""

    def eval(self, table: pa.Table):
        """An Arrow array over ``table``'s rows, or a scalar when the
        expression reads no column."""
        raise NotImplementedError

    def columns(self) -> frozenset:
        raise NotImplementedError

    # arithmetic -----------------------------------------------------------
    def __add__(self, o):
        return Arith("+", self, _wrap(o))

    def __radd__(self, o):
        return Arith("+", _wrap(o), self)

    def __sub__(self, o):
        return Arith("-", self, _wrap(o))

    def __rsub__(self, o):
        return Arith("-", _wrap(o), self)

    def __mul__(self, o):
        return Arith("*", self, _wrap(o))

    def __rmul__(self, o):
        return Arith("*", _wrap(o), self)

    def __truediv__(self, o):
        return Arith("/", self, _wrap(o))

    # comparisons ----------------------------------------------------------
    def __le__(self, o):
        return Cmp("<=", self, _wrap(o))

    def __lt__(self, o):
        return Cmp("<", self, _wrap(o))

    def __ge__(self, o):
        return Cmp(">=", self, _wrap(o))

    def __gt__(self, o):
        return Cmp(">", self, _wrap(o))

    def eq(self, o):
        """Equality predicate (named method: ``==`` is kept for identity)."""
        return Cmp("==", self, _wrap(o))

    def between(self, lo, hi):
        """Inclusive range predicate: ``self >= lo AND self <= hi``."""
        return And([Cmp(">=", self, _wrap(lo)), Cmp("<=", self, _wrap(hi))])


@dataclasses.dataclass(frozen=True)
class Col(Expr):
    """Reference to an input column."""

    name: str

    def eval(self, table):
        return table[self.name]

    def columns(self):
        return frozenset({self.name})


@dataclasses.dataclass(frozen=True)
class Lit(Expr):
    """Literal scalar; :func:`lit` turns an ISO date string into a
    ``datetime``."""

    value: Any

    def eval(self, table):
        return self.value

    def columns(self):
        return frozenset()


def _true_divide(a, b):
    # pc.divide truncates integers; ``/`` is true division, as in Python
    return pc.divide(pc.cast(a, pa.float64()), b)


_ARITH = {"+": pc.add, "-": pc.subtract, "*": pc.multiply, "/": _true_divide}


@dataclasses.dataclass(frozen=True)
class Arith(Expr):
    op: str
    left: Expr
    right: Expr

    def eval(self, table):
        return _ARITH[self.op](self.left.eval(table), self.right.eval(table))

    def columns(self):
        return self.left.columns() | self.right.columns()


class Pred(Expr):
    """Boolean-valued expression."""

    def conjuncts(self) -> list["Pred"]:
        return [self]

    def prune_interval(self):
        """``(column, lo, hi)`` of values that may satisfy this predicate
        (closed interval; ``None`` bound = unbounded), or ``None`` when the
        predicate is not a bare column-vs-literal comparison. Closed bounds
        for strict comparisons are conservative, hence always correct."""
        return None

    def __and__(self, o):
        return And([self, o])


_CMP = {
    "<=": pc.less_equal,
    "<": pc.less,
    ">=": pc.greater_equal,
    ">": pc.greater,
    "==": pc.equal,
}


@dataclasses.dataclass(frozen=True)
class Cmp(Pred):
    op: str
    left: Expr
    right: Expr

    def eval(self, table):
        return _CMP[self.op](self.left.eval(table), self.right.eval(table))

    def columns(self):
        return self.left.columns() | self.right.columns()

    def prune_interval(self):
        if isinstance(self.left, Col) and isinstance(self.right, Lit):
            col, v, op = self.left.name, self.right.value, self.op
        elif isinstance(self.left, Lit) and isinstance(self.right, Col):
            col, v = self.right.name, self.left.value
            op = {"<=": ">=", "<": ">", ">=": "<=", ">": "<", "==": "=="}[self.op]
        else:
            return None
        if op in ("<=", "<"):
            return (col, None, v)
        if op in (">=", ">"):
            return (col, v, None)
        return (col, v, v)


@dataclasses.dataclass(frozen=True)
class And(Pred):
    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))

    def eval(self, table):
        return functools.reduce(pc.and_kleene, (p.eval(table) for p in self.parts))

    def columns(self):
        cols = frozenset()
        for p in self.parts:
            cols |= p.columns()
        return cols

    def conjuncts(self):
        out = []
        for p in self.parts:
            out.extend(p.conjuncts())
        return out


def col(name: str) -> Col:
    return Col(name)


def lit(value) -> Lit:
    if isinstance(value, str):
        # date-literal convenience: "1994-01-01" -> datetime(1994, 1, 1)
        try:
            return Lit(datetime.datetime.fromisoformat(value))
        except ValueError:
            pass
    return Lit(value)


def over_rows(e: Expr, table: pa.Table):
    """``e`` over ``table``'s rows; a scalar result (an expression that reads
    no column) is repeated once per row."""
    v = e.eval(table)
    if isinstance(v, (pa.Array, pa.ChunkedArray)):
        return v
    return pa.repeat(v, table.num_rows)


def interval_overlaps(lo, hi, stat_min, stat_max) -> bool:
    """Whether [stat_min, stat_max] intersects the closed interval [lo, hi]
    (None = unbounded). Used for row-group pruning; returning True keeps the
    row group, so unknown statistics must map to True upstream. Compares
    with the residual filter's kernels, so Arrow scalars of a column's type
    meet a literal as that column's values do; a null comparison keeps."""
    if lo is not None and pc.less(stat_max, lo).as_py():
        return False
    if hi is not None and pc.greater(stat_min, hi).as_py():
        return False
    return True
