"""Chase-based KBA plan generation (paper §6.2, Theorem 6).

Given a query ``Q`` and a BaaV schema ``~R`` that is result preserving
for ``Q``, generate a :class:`~repro.core.plan.KBAPlan`:

1. minimize the (max SPC sub-)query — Condition (II)/(III) are stated
   over ``min(Q)``;
2. chase from the constant classes with the ``GET`` rule (§6.1) over
   each atom's covering KV schemas, narrowest first: the first cover of
   an atom to fire is its extension ``∝``;
3. when no cover fires, the first remaining atom (in ``min(Q)`` order)
   gets a scan leaf over its narrowest cover (rule (3) of §6.2), and
   the chase resumes from its attributes (scan-free *sub-plans* of
   non-scan-free queries, §5.1).

Per DESIGN.md, an atom is "covered" by a single KV schema with
``X^{min(Q)}_R ⊆ att(~R)`` (the workload schemas are designed so such
covers exist whenever the clo-based Condition (II)/(III) holds). The
generated plan is scan-free iff no scan leaf was needed; by Theorem 6
this coincides with Condition (III) for such schemas.
"""
from __future__ import annotations

from .closure import chase
from .minimize import minimize
from .plan import FetchOp, KBAPlan, PlanOp, ScanOp, SeedOp, rep_col
from .query import Atom, Query, SPCQuery, spc_of
from .schema import Attr, BaaVSchema, Catalog, KVSchema


class NotAnswerable(Exception):
    """``~R`` is not result preserving for the query (module M1 would
    route it to the plain SQL layer)."""


def _covers(minq: SPCQuery, schema: BaaVSchema, atom: Atom) -> list[KVSchema]:
    """KV schemas that can fetch this atom: att(~R) ⊇ X^minQ_R.

    Sorted narrowest-first so fetches move the least data.
    """
    need = {c for (al, c) in minq.attrs_of_alias(atom.alias) if al == atom.alias}
    out = [
        kv
        for kv in schema.for_relation(atom.relation)
        if need <= set(kv.columns)
    ]
    return sorted(out, key=lambda kv: (len(kv.columns), kv.name))


def _attr_map(q: Query, minq: SPCQuery) -> dict[Attr, Attr]:
    """Original attr -> minq attr, positionally via the projection."""
    orig = spc_of(q)
    return dict(zip(orig.projection, minq.projection))


def generate_plan(q: Query, catalog: Catalog, schema: BaaVSchema) -> KBAPlan:
    """Generate a KBA plan for ``q`` over ``~R`` (Theorem 6)."""
    spc = spc_of(q)
    minq = minimize(spc, catalog)
    ec = minq.eq_classes()

    covers = {a.alias: _covers(minq, schema, a) for a in minq.atoms}
    for alias, kvs in covers.items():
        if not kvs:
            raise NotAnswerable(
                f"no KV schema covers X_Q of atom {alias}; "
                "~R is not result preserving for this query"
            )

    ops: list[PlanOp] = []
    # Seeds: one frontier column per constant class.
    seed_cols: dict[str, object] = {}
    for a, v in minq.const:
        seed_cols[rep_col(ec.find(a))] = v
    if seed_cols:
        ops.append(SeedOp(tuple(sorted(seed_cols.items()))))

    def cls(atom: Atom, cols: tuple[str, ...]) -> set[Attr]:
        return {ec.find((atom.alias, c)) for c in cols}

    # A later cover of an already fetched atom may fire as well; it adds
    # only that atom's classes, which the winning cover made derivable
    # already or which no other atom shares (X_Q holds every shared one).
    derivable: set[Attr] = {ec.find(a) for a, _ in minq.const}
    remaining: list[Atom] = list(minq.atoms)
    while remaining:
        rules = [
            ((atom, kv), cls(atom, kv.key), cls(atom, kv.columns))
            for atom in remaining
            for kv in covers[atom.alias]
        ]
        for atom, kv in chase(derivable, rules):
            if atom in remaining:
                key_cols = tuple(
                    (c, rep_col(ec.find((atom.alias, c)))) for c in kv.key
                )
                ops.append(FetchOp(atom, kv, key_cols))
                remaining.remove(atom)
        if remaining:
            atom = remaining.pop(0)
            kv = covers[atom.alias][0]
            ops.append(ScanOp(atom, kv))
            derivable |= cls(atom, kv.columns)

    plan = KBAPlan(
        query=q,
        minq=minq,
        ec=ec,
        ops=tuple(ops),
        filters=minq.filters,
        attr_map=_attr_map(q, minq),
    )
    return plan


def plan_is_bounded(
    plan: KBAPlan, degrees: dict[KVSchema, int], c: int
) -> bool:
    """Boundedness of a *plan* over a store (§6.1 corollary): scan-free
    and every fetched instance has degree ≤ c — then the plan touches at
    most ``O(∏ deg)`` values, independent of |D|."""
    if not plan.scan_free:
        return False
    return all(degrees.get(kv, 0) <= c for kv in plan.fetch_schemas)
