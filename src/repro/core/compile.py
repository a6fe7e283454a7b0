"""Plan compilation: push-downs and scope split (paper §3.2).

Checks a logical plan's chain and lowers it into a :class:`PhysicalQuery`,
in one walk from the scan up, with
  * projection push-down: the scan downloads only columns any operator uses
    (a query that neither projects nor aggregates returns, so reads, all),
  * selection push-down: the filters' conjuncts form one residual
    predicate, which the scan takes whole: it skips a row group whose
    min/max statistics miss the ``prune_interval()`` of a conjunct (a bare
    column vs literal), and filters each row group by the conjuncts that
    its statistics do not prove (pruning is row-group-granular),
  * the aggregate keys and functions, unchanged: ``worker.PARTIAL_STATES``
    splits each function into the states the serverless scope computes and
    the driver scope combines.
"""
from __future__ import annotations

import dataclasses

from . import expr as ex
from . import plan as pl


@dataclasses.dataclass
class PhysicalQuery:
    """Executable form of a plan: the serverless fragment + driver fragment."""

    files: list
    scan_columns: list | None  # projection push-down; None: every column
    residual_predicate: ex.Pred | None  # row-level filter (all conjuncts)
    projections: dict | None  # post-filter computed columns
    keys: list
    aggs: list  # list[pl.AggSpec]; empty => no aggregation (row output)


#: The chain above the scan, in order: filters, at most one projection, at
#: most one aggregate (the top node). A second scan ranks 0.
_RANK = {pl.FilterNode: 1, pl.ProjectNode: 2, pl.AggregateNode: 3}


def compile_plan(plan: pl.Plan) -> PhysicalQuery:
    """Check the chain (a scan of at least one file at the bottom, then
    filters, then at most one projection, then at most one aggregate on
    top) and lower it into its physical form."""
    nodes = plan.lineage()
    scan = nodes[0]
    if not isinstance(scan, pl.ScanNode):
        raise ValueError("plan must start with a scan")
    if not scan.files:
        raise ValueError("the scan has no files")

    predicates: list[ex.Pred] = []
    projections: dict | None = None
    keys: list = []
    aggs: list = []
    for below, n in zip(nodes, nodes[1:]):
        rank, prev = _RANK.get(type(n), 0), _RANK.get(type(below), 0)
        if rank < prev or rank == prev != 1:
            raise ValueError(
                f"{type(n).__name__} above {type(below).__name__}: a plan is a scan, "
                "filters, at most one projection and at most one aggregate on top"
            )
        if isinstance(n, pl.FilterNode):
            predicates.extend(n.predicate.conjuncts())
        elif isinstance(n, pl.ProjectNode):
            projections = dict(n.exprs)
        else:
            keys, aggs = list(n.keys), list(n.aggs)

    # selection push-down: the scan prunes and filters on the residual
    residual = None
    if predicates:
        residual = predicates[0] if len(predicates) == 1 else ex.And(predicates)

    # projection push-down: every column any operator touches. Filters and
    # the projection read input columns; the aggregate reads the projection's
    # outputs where it names them, and input columns otherwise.
    used: frozenset = frozenset()
    for p in predicates:
        used |= p.columns()
    if projections is not None:
        for e in projections.values():
            used |= e.columns()
    above = frozenset(keys)
    for a in aggs:
        above |= a.columns()
    used |= above - set(projections or {})
    # rows without a projection keep every column of the table
    scan_columns = None if projections is None and not aggs else sorted(used)

    return PhysicalQuery(
        files=list(scan.files),
        scan_columns=scan_columns,
        residual_predicate=residual,
        projections=projections,
        keys=keys,
        aggs=aggs,
    )
