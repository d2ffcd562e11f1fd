"""Tests of the benchmark harness itself (no Spark session needed).

    python3 -m pytest perfbench/tests -q
"""
import itertools

import pandas as pd
import pytest

import gen
import run
import spans
from spans import Tracer, by_query, installed, self_times


# -- the percentile rule -----------------------------------------------------
@pytest.mark.parametrize(
    "n, p",
    [(0, None), (19, None), (20, 50), (39, 50), (40, 75), (99, 75), (100, 90),
     (199, 90), (200, 95), (1000, 99), (9999, 99), (10000, 99.9)],
)
def test_supported_percentile_needs_ten_samples_beyond(n, p):
    assert run.supported_percentile(n) == p


def test_latency_summary_counts_only_the_phase_reads():
    ss = [
        {"phase": "timed", "kind": "read", "ms": float(i), "error": None} for i in range(1, 5)
    ] + [
        {"phase": "timed", "kind": "write", "ms": 100.0, "error": None},
        {"phase": "warmup", "kind": "read", "ms": 100.0, "error": None},
        {"phase": "timed", "kind": "read", "ms": 100.0, "error": "boom"},
    ]
    lat = run.latency_summary(ss, "timed")
    assert lat == {"n": 4, "p50": 2.5, "p75": 3.25, "supported_percentile": None}


# -- span arithmetic ------------------------------------------------------------
def _span(id, start, end, parent=None, name="x", qid=0, **attrs):
    return {"id": id, "name": name, "start": start, "end": end, "parent": parent, "qid": qid, **attrs}


def test_self_time_subtracts_children_once():
    ss = [
        _span(0, 0.0, 10.0),
        _span(1, 1.0, 4.0, parent=0),
        _span(2, 2.0, 3.0, parent=1),  # grandchild: counts against 1, not 0
        _span(3, 5.0, 7.0, parent=0),
    ]
    assert self_times(ss) == {0: 5.0, 1: 2.0, 2: 1.0, 3: 2.0}


def test_self_time_counts_overlapping_children_as_their_union():
    ss = [_span(0, 0.0, 10.0), _span(1, 2.0, 6.0, parent=0), _span(2, 4.0, 8.0, parent=0)]
    assert self_times(ss)[0] == pytest.approx(4.0)


def test_tracer_nests_spans_and_by_query_sums_per_layer():
    ticks = itertools.count()
    tr = Tracer(clock=lambda: float(next(ticks)))
    tr.qid = 7
    with tr.span("op"):
        with tr.span("fetch", keys=2) as first:
            tr.defer(lambda: first.attrs.update(hits=1))
        with tr.span("fetch", keys=3):
            with tr.span("probe"):
                pass
    assert "hits" not in first.attrs
    assert tr.finish() == 0
    ss = tr.to_json()
    assert [s["parent"] for s in ss] == [None, 0, 0, 2]
    assert all(s["qid"] == 7 for s in ss)
    agg = by_query(ss)[7]
    assert agg["fetch"]["calls"] == 2 and agg["fetch"]["keys"] == 5
    assert agg["fetch"]["hits"] == 1
    # fetch spans: [1,2] and [3,6] with the probe [4,5] inside the second
    assert agg["fetch"]["self_s"] == pytest.approx(1.0 + 2.0)
    assert agg["op"]["self_s"] == pytest.approx(7.0 - 4.0)


# -- wrappers are removed again --------------------------------------------------
def _entry_points():
    from repro.core import plan
    from repro.nosql import kvstore, sqllayer, zidian

    return {
        (zidian.Zidian, "answer"), (zidian.Zidian, "plan"), (zidian.Zidian, "answerable"),
        (zidian, "plan_is_bounded"), (zidian, "evaluate_baseline"), (plan, "execute"),
        (kvstore.KVInstance, "fetch"), (kvstore.KVInstance, "scan"),
        (kvstore.KVInstance, "put"), (sqllayer, "evaluate_baseline"),
    }


def test_installed_wraps_every_entry_point_and_restores_it():
    before = {(o, a): o.__dict__[a] for o, a in _entry_points()}
    with installed(Tracer()):
        for (o, a), fn in before.items():
            assert o.__dict__[a] is not fn, f"{a} not wrapped"
    for (o, a), fn in before.items():
        assert o.__dict__[a] is fn, f"{a} not restored"


def test_installed_restores_on_error():
    from repro.nosql.kvstore import KVInstance

    fetch = KVInstance.__dict__["fetch"]
    with pytest.raises(RuntimeError):
        with installed(Tracer()):
            raise RuntimeError("boom")
    assert KVInstance.__dict__["fetch"] is fetch


def test_patched_restores_earlier_targets_when_a_later_one_fails():
    class A:
        def f(self):
            return 1

    f = A.__dict__["f"]
    with pytest.raises(KeyError):
        with spans.patched([(A, "f", lambda fn: None), (A, "missing", lambda fn: None)]):
            pass
    assert A.__dict__["f"] is f


# -- generator determinism ----------------------------------------------------------
DOMAIN = gen.Domain(n_vehicles=400, next_test_id=2000, n_stations=10)


def _take(name: str, seed: int, n: int = 30) -> list[gen.Op]:
    return list(itertools.islice(gen.ops(gen.WORKLOADS[name], seed, DOMAIN), n))


def _same_ops(a: list[gen.Op], b: list[gen.Op]) -> bool:
    for x, y in zip(a, b, strict=True):
        if (x.kind, x.template, x.keys) != (y.kind, y.template, y.keys):
            return False
        if isinstance(x.param, pd.DataFrame):
            if not x.param.equals(y.param):
                return False
        elif x.param != y.param:
            return False
    return True


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_generator_is_deterministic_in_the_seed(name):
    assert _same_ops(_take(name, 3), _take(name, 3))
    assert not _same_ops(_take(name, 3), _take(name, 4))


@pytest.mark.parametrize("name", sorted(gen.WORKLOADS))
def test_template_order_does_not_depend_on_the_seed(name):
    assert [o.template for o in _take(name, 3)] == [o.template for o in _take(name, 4)]


def test_mot_rw_reads_cover_the_vehicle_just_written():
    ops = _take("mot_rw", 5, 28)
    assert [o.template for o in ops[:7]] == ["q10", "put", "q1", "put", "q2", "put", "q5"]
    writes = [i for i, o in enumerate(ops) if o.kind == "write"]
    for i in writes:
        w, r = ops[i], ops[i + 1]
        assert r.kind == "read" and w.keys[0] in r.keys
        assert int(w.param["vehicle_id"].iloc[0]) == w.keys[0]
    ids = [int(ops[i].param["test_id"].iloc[0]) for i in writes]
    assert ids == list(range(2000, 2000 + len(ids)))


def test_input_properties():
    ops = [
        gen.Op("read", "q1", 1, (1,)),
        gen.Op("read", "q5", (1, 2, 3), (1, 2, 3)),
        gen.Op("write", "put", None, (2,)),
        gen.Op("read", "q2", 2, (2,)),
    ]
    p = gen.input_properties(ops)
    assert p["read_keys"] == 5
    assert p["repeat_key_share"] == pytest.approx(2 / 5)
    assert p["template_mix"] == {"put": 1, "q1": 1, "q2": 1, "q5": 1}
    assert p["seed_keys_per_read"] == {1: 2, 3: 1}


# -- the printed metrics are the ones BENCHMARK.json declares ------------------
def _declared(kind: str) -> list[tuple[str, str]]:
    import json
    from pathlib import Path

    bench = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    return [(m["name"], m["unit"]) for m in bench[kind]]


def _record() -> dict:
    read = {"kind": "read", "template": "q1", "keys": [1], "ms": 10.0, "baseline_ms": 2.0,
            "meter": {"gets": 1, "puts": 0, "scans": 0, "data_values": 5,
                      "keys_shipped": 1, "comm_bytes": 48.0},
            "baseline_meter": {"gets": 9, "puts": 0, "scans": 1, "data_values": 50,
                               "keys_shipped": 0, "comm_bytes": 480.0},
            "plan_ops": {"SeedOp": 1, "FetchOp": 1}, "verdict": "ok", "error": None}
    write = {**read, "kind": "write", "template": "put", "meter": None,
             "baseline_meter": None, "baseline_ms": None, "plan_ops": {}}
    samples = [
        {**s, "qid": i, "phase": p}
        for i, (s, p) in enumerate(
            [(read, "timed"), (write, "timed"), (read, "traced"), (write, "traced")]
        )
    ]
    return {
        "setup": {"spark_start_s": 1.0, "build_context_s": 1.0,
                  "warmup_queries_s": 1.0, "setup_s": 3.0},
        "persisted_rdds_delta": 3, "trace": {"deferred_jobs": 2, "span_cost_s": 1e-3},
        "mem_cached_mb": 1.5, "mem_driver_py_mb": 100.0,
        "samples": samples,
    }


def test_untraced_run_prints_exactly_the_end_to_end_metrics():
    m = run.end_to_end(_record(), "timed")
    assert [(k, u) for k, (_, u) in m.items()] == _declared("end_to_end")
    assert all(v > 0 for v, _ in m.values())


def test_traced_run_prints_exactly_the_per_layer_metrics():
    m = run.per_layer(_record(), [])
    assert [(k, u) for k, (_, u) in m.items()] == _declared("per_layer")


def test_report_pairs_traced_reads_with_the_untraced_run():
    import report

    record = {"samples": [
        {"phase": "warmup", "kind": "read", "ms": 99.0, "error": None},
        {"phase": "timed", "kind": "read", "ms": 10.0, "error": None},
        {"phase": "timed", "kind": "write", "ms": 99.0, "error": None},
        {"phase": "timed", "kind": "read", "ms": 20.0, "error": "boom"},
        {"phase": "timed", "kind": "read", "ms": 30.0, "error": None},
    ]}
    o = report.overhead({"traced_read_ms": [11.0, 25.0, 33.0, 50.0]}, record)
    assert o == {"pairs": 2, "untraced_p50_ms": 20.0, "overhead_ms": 2.0}
