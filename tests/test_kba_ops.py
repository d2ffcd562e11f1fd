"""Tests for the KBA algebra operators (paper §4.2, Example 2)."""
import pandas as pd
import pytest

from repro.core import kba
from repro.core.schema import KVSchema


@pytest.fixture(scope="module")
def example2(spark):
    """The KV instances of Fig. 2 / Example 2: ~R1<A,B>, ~R2<B,C>,
    ~R3<A,C>."""
    r1 = kba.KV(
        KVSchema("r1", ("A",), ("B",)),
        spark.createDataFrame(pd.DataFrame({"A": [1, 1, 2], "B": [1, 2, 3]})),
    )
    r2 = kba.KV(
        KVSchema("r2", ("B",), ("C",)),
        spark.createDataFrame(pd.DataFrame({"B": [1, 3, 4], "C": [1, 3, 4]})),
    )
    r3 = kba.KV(
        KVSchema("r3", ("A",), ("C",)),
        spark.createDataFrame(pd.DataFrame({"A": [1, 2], "C": [1, 3]})),
    )
    return r1, r2, r3


def _rows(kv: kba.KV) -> set[tuple]:
    return {tuple(r) for r in kv.df.select(*kv.columns).collect()}


def test_example2_extension(example2):
    """~R1 ∝ ~R2 = instance of ~R4<AB, C>."""
    r1, r2, _ = example2
    r4 = kba.extend(r1, r2)
    assert r4.kv.key == ("A", "B")
    assert r4.kv.value == ("C",)
    assert _rows(r4) == {(1, 1, 1), (2, 3, 3)}


def test_example2_shift(example2):
    """~R4 ↑ A = instance of ~R5<A, BC> with the same relational version."""
    r1, r2, _ = example2
    r4 = kba.extend(r1, r2)
    r5 = kba.shift(r4, ("A",))
    assert r5.kv.key == ("A",)
    assert set(r5.kv.value) == {"B", "C"}
    assert _rows(r4) == {tuple(r) for r in r5.df.select("A", "B", "C").collect()}


def test_example2_join(example2):
    """~R5 ⋈_AC ~R3 = {(1,{(1,1)}), (2,{(3,3)})}."""
    r1, r2, r3 = example2
    r5 = kba.shift(kba.extend(r1, r2), ("A",))
    out = kba.join(r5, r3, on=("A", "C"))
    assert _rows(out) == {(1, 1, 1), (2, 3, 3)}


def test_extension_requires_key_subset(example2):
    r1, _, r3 = example2
    with pytest.raises(ValueError):
        kba.extend(r3, kba.KV(KVSchema("x", ("Z",), ("W",)), r3.df.selectExpr("A as Z", "C as W")))


def test_extension_does_not_invent_rows(example2):
    """∝ is a join: keys of r1 with no block in r2 drop out."""
    r1, r2, _ = example2
    r4 = kba.extend(r1, r2)
    assert r4.df.count() == 2  # B=2 has no block in r2


def test_shift_requires_subset(example2):
    r1, _, _ = example2
    with pytest.raises(ValueError):
        kba.shift(r1, ("Z",))


def test_join_rejects_hidden_shared_attrs(example2):
    r1, _, r3 = example2
    # r1<A,B> and r3<A,C> share only A; joining on () must be rejected
    with pytest.raises(ValueError):
        kba.join(r1, r3, on=())


def test_algebra_is_closed(example2):
    """Results of KBA operators are again keyed blocks (KV instances)."""
    r1, r2, r3 = example2
    out = kba.join(kba.shift(kba.extend(r1, r2), ("A",)), r3, on=("A", "C"))
    assert isinstance(out, kba.KV)
    assert out.kv.relation == kba.DERIVED
