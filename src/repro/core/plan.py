"""KBA plans and their metered, interleaved executor (paper §6.2, §7.2).

A :class:`KBAPlan` is an ordered list of operations over a *frontier*
DataFrame that holds **one column per equality class** of ``min(Q)``,
named after the class representative (``alias__column``):

- :class:`SeedOp` — constant keyed blocks (the plan's leaf constants);
- :class:`FetchOp` — extension ``∝``: ship the frontier's distinct keys
  to the KV instance, fetch only the matching blocks, natural-join them
  back in (§7.2 interleaving — data access and computation interleave);
- :class:`ScanOp` — a leaf KV instance for atoms that are not scan-free
  (rule (3) of §7.2).

Natural joins on class-representative columns enforce exactly the
query's equality predicates; residual filters are applied as soon as
their column exists. A plan with no :class:`ScanOp` is scan-free: its
only leaves are constants (§4.2).
"""
from __future__ import annotations

import itertools
from dataclasses import dataclass, field

from pyspark.sql import DataFrame
from pyspark.sql import functions as F

from ..nosql.kvstore import BaaVStore
from .query import (
    Atom,
    EqClasses,
    Filter,
    GroupByQuery,
    Query,
    SPCQuery,
    attr_name,
)
from .schema import Attr, KVSchema


def rep_col(rep: Attr) -> str:
    """Frontier column name for a class representative."""
    return f"{rep[0]}__{rep[1]}"


@dataclass(frozen=True)
class SeedOp:
    """Constant seed: one frontier column per constant class; IN-list
    constants produce one row per combination (multi-key get seeds)."""

    columns: tuple[tuple[str, object], ...]  # (frontier col, value|tuple)


@dataclass(frozen=True)
class FetchOp:
    """Extension ``∝`` of the frontier with one KV instance."""

    atom: Atom
    kv: KVSchema
    key_cols: tuple[tuple[str, str], ...]  # (kv key col, frontier col)


@dataclass(frozen=True)
class ScanOp:
    """Full-instance leaf for a non-scan-free atom."""

    atom: Atom
    kv: KVSchema


PlanOp = SeedOp | FetchOp | ScanOp


@dataclass
class KBAPlan:
    """An executable KBA plan for one query."""

    query: Query
    minq: SPCQuery
    ec: EqClasses  # classes of minq
    ops: tuple[PlanOp, ...]
    filters: tuple[Filter, ...]  # minq filters (attrs in minq terms)
    # original -> minq attribute (positionally, via the projection)
    attr_map: dict[Attr, Attr] = field(default_factory=dict)

    @property
    def scan_free(self) -> bool:
        return not any(isinstance(op, ScanOp) for op in self.ops)

    @property
    def fetch_schemas(self) -> tuple[KVSchema, ...]:
        return tuple(op.kv for op in self.ops if isinstance(op, FetchOp))

    def describe(self) -> str:
        lines = []
        for op in self.ops:
            if isinstance(op, SeedOp):
                lines.append(f"SEED {dict(op.columns)}")
            elif isinstance(op, FetchOp):
                keys = ", ".join(f"{k}<-{v}" for k, v in op.key_cols)
                lines.append(f"FETCH {op.atom.alias}:{op.kv.name} on ({keys})")
            else:
                lines.append(f"SCAN  {op.atom.alias}:{op.kv.name}")
        lines.append("SCAN-FREE" if self.scan_free else "NOT SCAN-FREE")
        return "\n".join(lines)


class _Frontier:
    """Execution state: the running natural join of plan operations."""

    def __init__(self) -> None:
        self.df: DataFrame | None = None

    def merge(self, other: DataFrame) -> None:
        if self.df is None:
            self.df = other
            return
        shared = sorted(set(self.df.columns) & set(other.columns))
        if shared:
            self.df = self.df.join(other, on=shared, how="inner")
        else:
            self.df = self.df.crossJoin(other)


def _rename_to_classes(
    df: DataFrame, atom: Atom, kv: KVSchema, ec: EqClasses
) -> DataFrame:
    """Rename an instance's columns to class-representative names; if two
    columns of one atom share a class (intra-atom equality), keep one
    and filter equality first."""
    exprs: list = []
    used: dict[str, str] = {}  # rep col -> original col kept
    conds = []
    for c in kv.columns:
        rep = rep_col(ec.find((atom.alias, c)))
        if rep in used:
            conds.append(F.col(used[rep]) == F.col(c))
        else:
            used[rep] = c
            exprs.append(F.col(c).alias(rep))
    for cond in conds:
        df = df.where(cond)
    return df.select(*exprs)


def _seed_df(store: BaaVStore, op: SeedOp) -> DataFrame:
    spark = next(iter(store.instances.values())).df.sparkSession
    cols = [c for c, _ in op.columns]
    lists = [v if isinstance(v, tuple) else (v,) for _, v in op.columns]
    rows = [tuple(r) for r in itertools.product(*lists)]
    return spark.createDataFrame(rows, schema=cols)


def execute(plan: KBAPlan, store: BaaVStore) -> DataFrame:
    """Execute a KBA plan over a BaaV store with metered data access.

    Returns a DataFrame whose columns match ``query.to_sql()`` output
    (same names, same bag of rows).
    """
    fr = _Frontier()
    pending = list(plan.filters)

    def apply_filters() -> None:
        """Filter pushdown: apply a residual predicate as soon as its
        class column is materialized."""
        if fr.df is None:
            return
        for f in list(pending):
            col = rep_col(plan.ec.find(f.attr))
            if col in fr.df.columns:
                fr.df = fr.df.where(_compare(col, f.op, f.value))
                pending.remove(f)

    for op in plan.ops:
        if isinstance(op, SeedOp):
            fr.merge(_seed_df(store, op))
        elif isinstance(op, FetchOp):
            assert fr.df is not None, "fetch before any seed/scan"
            keys = fr.df.select(
                *[F.col(fc).alias(kc) for kc, fc in op.key_cols]
            ).distinct()
            fetched = store[op.kv].fetch(keys)
            fr.merge(_rename_to_classes(fetched, op.atom, op.kv, plan.ec))
        else:  # ScanOp
            scanned = store[op.kv].scan()
            fr.merge(_rename_to_classes(scanned, op.atom, op.kv, plan.ec))
        apply_filters()
    assert fr.df is not None, "empty plan"
    assert not pending, f"unapplied filters {pending}"
    return _finalize(plan, fr.df)


def _compare(col: str, op: str, value: object):
    """``col op value`` for a query comparison op (filters and HAVING)."""
    c, v = F.col(col), F.lit(value)
    return {
        "<": c < v,
        "<=": c <= v,
        ">": c > v,
        ">=": c >= v,
        "<>": c != v,
        "=": c == v,
    }[op]


def _minq_col(plan: KBAPlan, orig: Attr) -> str:
    """Frontier column of an original-query attribute."""
    a = plan.attr_map.get(orig, orig)
    return rep_col(plan.ec.find(a))


def _finalize(plan: KBAPlan, df: DataFrame) -> DataFrame:
    q = plan.query
    if isinstance(q, GroupByQuery):
        group_cols = [
            F.col(_minq_col(plan, a)).alias(attr_name(a)) for a in q.group_by
        ]
        agg_inputs = []
        for i, g in enumerate(q.aggs):
            if g.expr is not None:
                tmpl, attrs = g.expr
                rendered = tmpl.format(*[_minq_col(plan, a) for a in attrs])
                agg_inputs.append(F.expr(rendered).alias(f"__agg_{i}"))
            elif g.attr is not None:
                agg_inputs.append(
                    F.col(_minq_col(plan, g.attr)).alias(f"__agg_{i}")
                )
        grouped = df.select(*group_cols, *agg_inputs)
        exprs = []
        for i, g in enumerate(q.aggs):
            if g.attr is None and g.expr is None:
                exprs.append(F.count(F.lit(1)).alias(g.alias))
            else:
                fn = getattr(F, g.func)
                exprs.append(fn(F.col(f"__agg_{i}")).alias(g.alias))
        out = grouped.groupBy(*[attr_name(a) for a in q.group_by]).agg(*exprs)
        for alias, op, v in q.having:
            out = out.where(_compare(alias, op, v))
        return out
    # plain SPC
    out = df.select(
        *[F.col(_minq_col(plan, a)).alias(attr_name(a)) for a in q.projection]
    )
    return out.dropDuplicates() if q.distinct else out
