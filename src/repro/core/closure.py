"""The chase, attribute closure and data preservability (paper §5.2).

:func:`chase` is the one fixpoint behind every closure in the decision
layer: ``clo`` here, QCS support (§8.1), ``GET`` (§6.1) and plan
generation (§6.2). Each applies the same rule — once a KV schema's key
attributes are known, all its attributes are known — over its own
notion of "attribute".

``clo(~R, ~R)`` is the closure of ``att(~R)`` under the rule: if
``pk(~R') ⊆ clo`` for some KV schema ``~R'`` then ``att(~R') ⊆ clo``.
Attributes are relation-scoped, so propagation stays within one
relation's KV schemas (each KV schema draws from one relation, §4.1).

Condition (I): ``~R`` is data preserving for ``R`` iff every relation
``R ∈ R`` has some ``~R ∈ ~R`` with ``att(R) = clo(~R, ~R)``
(Theorem 1). The check runs in O(|R| |~R|^2) as in the paper.
"""
from __future__ import annotations

from collections.abc import Set
from typing import Iterable

from .schema import Attr, BaaVSchema, Catalog, KVSchema, qualify


def chase(known: set, rules: Iterable[tuple[object, Set, Set]]) -> list:
    """Apply ``rules`` to ``known`` (in place) until a fixpoint.

    Rules are tried in order, round after round; a rule fires at most
    once, when ``needs ⊆ known``, and adds ``gives`` to ``known``. A
    firing is recorded even when ``gives`` adds nothing (GET's trace
    lists every applicable step). Returns the fired tags in firing order.
    """
    pending = list(rules)
    fired = []
    while True:
        left = []
        for tag, needs, gives in pending:
            if needs <= known:
                known |= gives
                fired.append(tag)
            else:
                left.append((tag, needs, gives))
        if len(left) == len(pending):
            return fired
        pending = left


def clo(kv: KVSchema, schemas: Iterable[KVSchema]) -> frozenset[Attr]:
    """``clo(~R, ~R)`` per Condition (I)'s inductive definition."""
    out: set[Attr] = set(kv.attrs)
    chase(out, [(o, qualify(o.relation, o.pk_cols), o.attrs) for o in schemas])
    return frozenset(out)


def preserved_relations(catalog: Catalog, schema: BaaVSchema) -> dict[str, bool]:
    """Per-relation data preservability: relation -> whether some KV
    schema's closure recovers all its attributes."""
    report: dict[str, bool] = {}
    for rel in catalog:
        ok = False
        for kv in schema.for_relation(rel.name):
            if clo(kv, schema) >= rel.attrs:
                ok = True
                break
        report[rel.name] = ok
    return report


def is_data_preserving(catalog: Catalog, schema: BaaVSchema) -> bool:
    """Condition (I) / Theorem 1."""
    return all(preserved_relations(catalog, schema).values())
