"""Tests for chase-based KBA plan generation (paper §6.2, Thm 6)."""
import pytest

from repro.core.plan import FetchOp, ScanOp, SeedOp
from repro.core.plangen import NotAnswerable, generate_plan, plan_is_bounded
from repro.core.query import Atom, SPCQuery
from repro.core.scanfree import is_scan_free
from repro.core.schema import BaaVSchema, Catalog, KVSchema, RelSchema
from repro.workloads import WORKLOADS, tpch


def test_example_7_plan_structure():
    """Example 7: the plan for Q1 is the chain
    ('GERMANY' ∝ ~NATION) ∝ ~SUPPLIER ∝ ~PARTSUPP + group-by."""
    q = tpch.q11("GERMANY")
    plan = generate_plan(q, tpch.CATALOG, tpch.BAAV)
    assert plan.scan_free
    kinds = [type(op).__name__ for op in plan.ops]
    assert kinds == ["SeedOp", "FetchOp", "FetchOp", "FetchOp"]
    order = [op.kv.relation for op in plan.ops if isinstance(op, FetchOp)]
    assert order == ["nation", "supplier", "partsupp"]
    # the seed is the constant keyed block 'GERMANY'
    seed = plan.ops[0]
    assert isinstance(seed, SeedOp)
    assert dict(seed.columns) == {"N__n_name": "GERMANY"}


def test_plan_keys_flow_through_equalities():
    q = tpch.q11("GERMANY")
    plan = generate_plan(q, tpch.CATALOG, tpch.BAAV)
    supplier_fetch = [
        op for op in plan.ops if isinstance(op, FetchOp) and op.kv.relation == "supplier"
    ][0]
    # supplier is fetched by s_nationkey, bound to nation's class column
    assert supplier_fetch.key_cols[0][0] == "s_nationkey"


@pytest.mark.parametrize(
    "wl_name,t_name",
    [
        (w, t.name)
        for w in ("tpch", "mot", "airca")
        for t in WORKLOADS[w].templates
    ],
)
def test_plan_scan_free_iff_query_scan_free(wl_name, t_name):
    """Theorem 6(2): the generated plan is scan-free exactly when the
    query is (for our single-cover workload schemas)."""
    wl = WORKLOADS[wl_name]
    t = wl.template(t_name)
    q = t.instantiate()
    plan = generate_plan(q, wl.catalog, wl.baav)
    assert plan.scan_free == is_scan_free(q, wl.catalog, wl.baav) == t.scan_free


@pytest.mark.parametrize(
    "wl_name,t_name",
    [(w, t.name) for w in ("tpch", "mot", "airca") for t in WORKLOADS[w].templates],
)
def test_plan_fetches_or_scans_every_min_atom_once(wl_name, t_name):
    """Each atom of min(Q) is touched by exactly one Fetch/Scan op (the
    single-cover invariant that keeps bag multiplicities exact)."""
    wl = WORKLOADS[wl_name]
    plan = generate_plan(wl.template(t_name).instantiate(), wl.catalog, wl.baav)
    touched = [
        op.atom.alias for op in plan.ops if isinstance(op, (FetchOp, ScanOp))
    ]
    assert sorted(touched) == sorted(a.alias for a in plan.minq.atoms)


@pytest.mark.parametrize(
    "wl_name,t_name,expected",
    [
        (
            "tpch",
            "q5",
            [
                ("FetchOp", "R", "~region<r_name|r_regionkey>"),
                ("FetchOp", "N", "~nation<n_regionkey|n_nationkey,n_name>"),
                ("FetchOp", "S", "~supplier<s_nationkey|s_suppkey,s_acctbal>"),
                ("FetchOp", "C", "~customer<c_nationkey|c_custkey,c_acctbal>"),
                (
                    "FetchOp",
                    "O",
                    "~orders<o_custkey|o_orderkey,o_orderstatus,o_totalprice,"
                    "o_orderdate,o_orderpriority>",
                ),
                # the 5-column l_suppkey cover, not the 12-column l_orderkey one
                (
                    "FetchOp",
                    "L",
                    "~lineitem<l_suppkey|l_orderkey,l_linenumber,"
                    "l_extendedprice,l_discount>",
                ),
            ],
        ),
        (
            "mot",
            "q12",
            [
                (
                    "ScanOp",
                    "T",
                    "~mottest<test_id|vehicle_id,test_date,result,mileage,"
                    "test_class,station_id>",
                ),
                (
                    "FetchOp",
                    "V",
                    "~vehicle<vehicle_id|make,model,fuel,first_use_year,colour>",
                ),
                (
                    "FetchOp",
                    "S",
                    "~survey<vehicle_id|obs_id,road_id,region,obs_date,speed>",
                ),
            ],
        ),
    ],
    ids=["tpch-q5", "mot-q12"],
)
def test_plan_pins_kv_schema_per_op(wl_name, t_name, expected):
    """The KV schema each op reads decides the meters: pin op kind, atom
    and schema in plan order."""
    wl = WORKLOADS[wl_name]
    plan = generate_plan(wl.template(t_name).instantiate(), wl.catalog, wl.baav)
    got = [
        (type(op).__name__, op.atom.alias, op.kv.name)
        for op in plan.ops
        if not isinstance(op, SeedOp)
    ]
    assert got == expected


def test_scan_free_plan_has_constant_leaves_only():
    """§4.2: a scan-free KBA plan's leaves are constants."""
    for t in WORKLOADS["mot"].scan_free_templates():
        plan = generate_plan(t.instantiate(), WORKLOADS["mot"].catalog, WORKLOADS["mot"].baav)
        assert isinstance(plan.ops[0], SeedOp)
        assert not any(isinstance(op, ScanOp) for op in plan.ops)


def test_non_scan_free_plan_interleaves_scan_then_fetch():
    """§5.1: non-scan-free queries get scan-free sub-plans — mot q7
    scans mottest then *fetches* vehicle blocks keyed by vehicle_id."""
    wl = WORKLOADS["mot"]
    plan = generate_plan(wl.template("q7").instantiate(), wl.catalog, wl.baav)
    kinds = [type(op).__name__ for op in plan.ops if not isinstance(op, SeedOp)]
    assert kinds == ["ScanOp", "FetchOp"]
    scan = [op for op in plan.ops if isinstance(op, ScanOp)][0]
    assert scan.atom.relation == "mottest"


def test_not_answerable_raises():
    cat = Catalog.of(RelSchema("r", ("a", "b"), ("a",)))
    schema = BaaVSchema.of(KVSchema("r", ("a",), ()))  # b not stored
    q = SPCQuery(atoms=(Atom("R", "r"),), projection=(("R", "b"),))
    with pytest.raises(NotAnswerable):
        generate_plan(q, cat, schema)


def test_plan_is_bounded_checks_fetched_degrees():
    wl = WORKLOADS["mot"]
    plan = generate_plan(wl.template("q1").instantiate(), wl.catalog, wl.baav)
    degs_low = {kv: 5 for kv in plan.fetch_schemas}
    degs_high = dict(degs_low)
    degs_high[plan.fetch_schemas[-1]] = 10_000
    assert plan_is_bounded(plan, degs_low, c=50)
    assert not plan_is_bounded(plan, degs_high, c=50)


def test_plan_is_bounded_false_for_scans():
    wl = WORKLOADS["mot"]
    plan = generate_plan(wl.template("q8").instantiate(), wl.catalog, wl.baav)
    assert not plan_is_bounded(plan, {}, c=10**9)


def test_in_list_seed_becomes_multi_key_get():
    wl = WORKLOADS["mot"]
    plan = generate_plan(wl.template("q5").instantiate((1, 2, 3)), wl.catalog, wl.baav)
    seed = plan.ops[0]
    assert isinstance(seed, SeedOp)
    (col, val), = seed.columns
    assert val == (1, 2, 3)


def test_plan_describe_mentions_all_ops():
    q = tpch.q11("GERMANY")
    desc = generate_plan(q, tpch.CATALOG, tpch.BAAV).describe()
    assert "SEED" in desc and "FETCH" in desc and "SCAN-FREE" in desc
