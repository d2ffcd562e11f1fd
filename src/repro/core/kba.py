"""KBA: the algebra of keyed blocks (paper §4.2, Example 2).

Operators act on :class:`KV` pairs — a KV schema plus the flattened
DataFrame of its instance (the *relational version*; see
``core.baav``). Extension (``∝``) and shift (``↑``) are the two
operators unique to KBA; join is the RA join lifted to keyed blocks by
transforming between KV instances and relations on the fly, as §4.2
prescribes. These are the operators of Example 2, which the algebra
tests replay. Query plans do not run through this module: the metered
executor in ``core.plan`` realizes extension as keyed fetches and does
σ, π, ⋈ and group-by itself, with bag semantics (DESIGN.md §2).
"""
from __future__ import annotations

from dataclasses import dataclass

from pyspark.sql import DataFrame

from .schema import KVSchema

DERIVED = "_derived"  # relation name for intermediate KBA results


@dataclass
class KV:
    """A KV instance: schema ``~R<X,Y>`` + flattened DataFrame."""

    kv: KVSchema
    df: DataFrame

    def __post_init__(self) -> None:
        missing = set(self.kv.columns) - set(self.df.columns)
        if missing:
            raise ValueError(f"instance missing columns {sorted(missing)}")
        self.df = self.df.select(*self.kv.columns)

    @property
    def columns(self) -> tuple[str, ...]:
        return self.kv.columns


def _schema(key: tuple[str, ...], value: tuple[str, ...]) -> KVSchema:
    return KVSchema(DERIVED, key, value)


def extend(d1: KV, d2: KV) -> KV:
    """Extension ``d1 ∝ d2`` (§4.2 op 1).

    Requires ``key(d2) ⊆ att(d1)``. Result: the mapping of
    ``D1 ⋈_{key(d2)} D2`` on ``<att(d1), value(d2)>`` — d1 extended with
    d2's value attributes, fetched by using d1's values as keys. Does
    not scan d2 conceptually; the metered executor in ``core.plan``
    realizes that via keyed fetches.
    """
    y_prime = d2.kv.key
    if not set(y_prime) <= set(d1.columns):
        raise ValueError(
            f"extension needs key {y_prime} ⊆ {d1.columns} of the left side"
        )
    new_vals = tuple(c for c in d2.kv.value if c not in d1.columns)
    out = d1.df.join(d2.df, on=list(y_prime), how="inner")
    return KV(_schema(d1.columns, new_vals), out)


def shift(d: KV, new_key: tuple[str, ...]) -> KV:
    """Shift ``d ↑ X'`` (§4.2 op 2): redistribute key/value attributes;
    the relational version is unchanged."""
    if not set(new_key) <= set(d.columns):
        raise ValueError(f"shift key {new_key} not in {d.columns}")
    value = tuple(c for c in d.columns if c not in new_key)
    return KV(_schema(tuple(new_key), value), d.df)


def join(d1: KV, d2: KV, on: tuple[str, ...]) -> KV:
    """Join ``d1 ⋈_X d2`` (§4.2 op 3): natural join of the relational
    versions on ``X ⊆ att(d1) ∩ att(d2)``; result key ``X1 X2``."""
    shared = set(d1.columns) & set(d2.columns)
    if not set(on) <= shared:
        raise ValueError(f"join attrs {on} not shared")
    if shared - set(on):
        raise ValueError(
            f"non-join shared attributes {sorted(shared - set(on))}; rename first"
        )
    out = d1.df.join(d2.df, on=list(on), how="inner")
    key = tuple(dict.fromkeys(d1.kv.key + d2.kv.key))
    value = tuple(c for c in d1.columns + d2.columns if c not in key)
    value = tuple(dict.fromkeys(value))
    return KV(_schema(key, value), out)
