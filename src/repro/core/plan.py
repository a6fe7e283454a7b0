"""Logical plan IR for Lambada queries (paper §3.2).

A plan is a linear chain Scan -> Filter* -> [Project] -> [Aggregate], which
:func:`repro.core.compile.compile_plan` checks as it lowers it. Plans are
divided into *scopes* at compile time: the scan/filter/project/partial-
aggregate pipeline runs in the **serverless scope** (one fragment per worker),
the final aggregation runs in the **driver scope** (here: one Arrow group-by
in the driver process).
"""
from __future__ import annotations

import dataclasses

from . import expr as ex

AGG_FNS = ("sum", "count", "avg", "min", "max")


@dataclasses.dataclass(frozen=True)
class AggSpec:
    """One output aggregate: ``out_name = fn(expr)`` (expr is None for count)."""

    out_name: str
    fn: str
    expr: ex.Expr | None = None

    def __post_init__(self):
        if self.fn not in AGG_FNS:
            raise ValueError(f"unknown aggregate {self.fn!r}")
        if self.fn != "count" and self.expr is None:
            raise ValueError(f"aggregate {self.fn} needs an expression")

    def columns(self) -> frozenset:
        return self.expr.columns() if self.expr is not None else frozenset()


class Plan:
    """Base node; children chain via a ``child`` attribute on subclasses."""

    def lineage(self) -> list["Plan"]:
        """Nodes from the scan upward."""
        nodes, n = [], self
        while n is not None:
            nodes.append(n)
            n = getattr(n, "child", None)
        return list(reversed(nodes))


@dataclasses.dataclass
class ScanNode(Plan):
    """Parquet scan over ``files`` (``(bucket, key)`` pairs)."""

    files: list
    child: None = None


@dataclasses.dataclass
class FilterNode(Plan):
    child: Plan
    predicate: ex.Pred


@dataclasses.dataclass
class ProjectNode(Plan):
    """Projection / map: output columns computed from input columns."""

    child: Plan
    exprs: dict  # out_name -> Expr


@dataclasses.dataclass
class AggregateNode(Plan):
    child: Plan
    keys: list
    aggs: list

    def __post_init__(self):
        if not self.aggs:
            raise ValueError("aggregate needs at least one AggSpec")
        names = [a.out_name for a in self.aggs] + list(self.keys)
        if len(set(names)) != len(names):
            raise ValueError(f"duplicate output names in {names}")
