"""Plan compilation: push-downs and scope split (paper §3.2).

Lowers a logical plan into a :class:`PhysicalQuery` with
  * projection push-down: the scan downloads only columns any operator uses,
  * selection push-down: prunable conjuncts (bare column vs literal) become
    the scan's min/max row-group predicate; *all* conjuncts remain as the
    row-level residual filter (pruning is row-group-granular),
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
    scan_columns: list  # projection push-down
    scan_predicate: list  # prunable Pred conjuncts (min/max row-group pruning)
    residual_predicate: ex.Pred | None  # row-level filter (all conjuncts)
    projections: dict | None  # post-filter computed columns
    keys: list
    aggs: list  # list[pl.AggSpec]; empty => no aggregation (row output)


def compile_plan(plan: pl.Plan) -> PhysicalQuery:
    """Lower a validated logical plan into its physical form."""
    pl.validate(plan)
    nodes = plan.lineage()
    scan: pl.ScanNode = nodes[0]

    predicates: list[ex.Pred] = []
    projections: dict | None = None
    keys: list = []
    aggs: list = []
    seen_project = False
    for n in nodes[1:]:
        if isinstance(n, pl.FilterNode):
            if seen_project:
                raise ValueError("filters after a projection are not supported")
            predicates.extend(n.predicate.conjuncts())
        elif isinstance(n, pl.ProjectNode):
            projections = dict(n.exprs)
            seen_project = True
        elif isinstance(n, pl.AggregateNode):
            keys, aggs = list(n.keys), list(n.aggs)

    # selection push-down: prunable conjuncts drive row-group pruning
    scan_predicate = [p for p in predicates if p.prune_interval() is not None]
    residual = None
    if predicates:
        residual = predicates[0] if len(predicates) == 1 else ex.And(predicates)

    # projection push-down: every column any operator touches
    used: frozenset = frozenset()
    for p in predicates:
        used |= p.columns()
    if projections is not None:
        for e in projections.values():
            used |= e.columns()
    for a in aggs:
        used |= a.columns()
    out_names = set(projections or {})
    used |= {k for k in keys if k not in out_names}
    # aggregate exprs may reference projected names; those are not scan columns
    used -= out_names
    scan_columns = sorted(used)

    return PhysicalQuery(
        files=list(scan.files),
        scan_columns=scan_columns,
        scan_predicate=scan_predicate,
        residual_predicate=residual,
        projections=projections,
        keys=keys,
        aggs=aggs,
    )
