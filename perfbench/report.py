"""Per-layer report of a traced benchmark run.

    python3 perfbench/report.py perfbench/out/mot_bounded-s1-t1.trace.json

Turns a trace file written by ``run.py --trace 1`` into one row per
layer (span name): calls, self time in total and as a per-operation
median, and the Spark jobs the layer launched itself. The tracing
overhead is the median difference between each traced read and the
same read in the untraced run of the same seed
(``<workload>-s<seed>-t0.json`` beside the trace file, or ``--untraced``).
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

from spans import by_query


def layer_table(spans: list[dict]) -> list[dict]:
    rows: dict[str, dict] = {}
    for layers in by_query(spans).values():
        for name, agg in layers.items():
            r = rows.setdefault(name, {"layer": name, "calls": 0, "jobs": 0, "per_op_ms": []})
            r["calls"] += agg["calls"]
            r["jobs"] += agg["jobs"]
            r["per_op_ms"].append(agg["self_s"] * 1e3)
    out = []
    for r in rows.values():
        ms = r.pop("per_op_ms")
        out.append({**r, "self_ms": sum(ms), "ops": len(ms), "self_ms_p50": statistics.median(ms)})
    return sorted(out, key=lambda r: -r["self_ms"])


def overhead(trace: dict, record: dict) -> dict:
    """Tracing overhead against the untraced run of the same seed: the
    median of traced minus untraced latency over the reads both runs
    issued, paired in order; a read that failed on either side is left
    out."""
    untraced = [
        None if s["error"] else s["ms"]
        for s in record["samples"]
        if s["phase"] == "timed" and s["kind"] == "read"
    ]
    pairs = [
        (u, t) for u, t in zip(untraced, trace["traced_read_ms"])
        if u is not None and t is not None
    ]
    if not pairs:
        return {"pairs": 0, "untraced_p50_ms": 0.0, "overhead_ms": 0.0}
    return {
        "pairs": len(pairs),
        "untraced_p50_ms": statistics.median(u for u, _ in pairs),
        "overhead_ms": statistics.median(t - u for u, t in pairs),
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("trace", type=Path)
    ap.add_argument("--untraced", type=Path, help="record of the untraced run")
    args = ap.parse_args(argv)
    trace = json.loads(args.trace.read_text())
    table = layer_table(trace["spans"])
    total = sum(r["self_ms"] for r in table) or 1.0
    print(f"{'layer':36} {'calls':>6} {'jobs':>6} {'self_ms':>10} {'share':>6} {'p50/op':>9}")
    for r in table:
        print(f"{r['layer']:36} {r['calls']:6d} {r['jobs']:6d} {r['self_ms']:10.1f} "
              f"{r['self_ms'] / total:6.1%} {r['self_ms_p50']:9.1f}")
    env = trace["environment"]
    path = args.untraced or args.trace.with_name(f"{env['workload']}-s{env['seed']}-t0.json")
    if path.exists():
        o = overhead(trace, json.loads(path.read_text()))
        print(f"\ntracing overhead: {o['overhead_ms']:+.1f} ms per read, median over "
              f"{o['pairs']} reads paired with {path.name} "
              f"(whose median over them is {o['untraced_p50_ms']:.1f} ms)")
    else:
        print(f"\nno untraced run at {path}; tracing overhead not computed", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
