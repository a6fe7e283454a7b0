"""Expression mini-language for Lambada plans (paper §3.2).

The paper's framework lowers UDF pipelines through an IR with selection and
projection push-downs. This module is that IR's expression layer: column
references, literals, arithmetic, and predicates. Predicates over a bare
column and a literal expose a *prune interval* so the scan operator can skip
row groups using Parquet min/max statistics (paper §4.3.2 / §5.3).

Expressions evaluate vectorised over Arrow tables with ``pyarrow.compute``
(the reproduction's stand-in for the paper's LLVM-JIT-compiled pipelines —
both avoid per-record interpretation). A null operand yields null, so a
predicate over a null drops the row, as in SQL.
"""
from __future__ import annotations

import dataclasses
import functools
from typing import Any

import pandas as pd
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
        """Inclusive range predicate."""
        return Between(self, _wrap(lo), _wrap(hi))


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
    """Literal scalar. Date strings are normalised to pandas Timestamps so
    they compare cleanly with Parquet timestamp statistics."""

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
class Between(Pred):
    expr: Expr
    lo: Expr
    hi: Expr

    def eval(self, table):
        v = self.expr.eval(table)
        lo, hi = self.lo.eval(table), self.hi.eval(table)
        return pc.and_(pc.greater_equal(v, lo), pc.less_equal(v, hi))

    def columns(self):
        return self.expr.columns() | self.lo.columns() | self.hi.columns()

    def prune_interval(self):
        if isinstance(self.expr, Col) and isinstance(self.lo, Lit) and isinstance(self.hi, Lit):
            return (self.expr.name, self.lo.value, self.hi.value)
        return None


@dataclasses.dataclass(frozen=True)
class And(Pred):
    parts: tuple

    def __init__(self, parts):
        object.__setattr__(self, "parts", tuple(parts))

    def eval(self, table):
        return functools.reduce(pc.and_, (p.eval(table) for p in self.parts))

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
        # date-literal convenience: "1994-01-01" -> Timestamp
        try:
            return Lit(pd.Timestamp(value))
        except ValueError:
            pass
    return Lit(value)


def interval_overlaps(lo, hi, stat_min, stat_max) -> bool:
    """Whether [stat_min, stat_max] intersects the closed interval [lo, hi]
    (None = unbounded). Used for row-group pruning; returning True keeps the
    row group, so unknown statistics must map to True upstream."""
    if lo is not None and stat_max < lo:
        return False
    if hi is not None and stat_min > hi:
        return False
    return True
