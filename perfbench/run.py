"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload mot_bounded --seed 1 --seconds 20 --trace 0

Run from the root of a checkout. One process, Spark ``local[4]``, one
closed-loop client (``client.py``). The run builds the store, issues
one untimed operation, then issues the workload's operations
(``gen.py``) in whole template cycles for about ``--seconds``, and
checks every result against the DuckDB oracle after the timed loop.

With ``--trace 0`` the metrics are the end-to-end ones of
``BENCHMARK.json``. With ``--trace 1`` the same operations run with
every layer's entry points wrapped (``spans.py``), and the run prints
the per-layer metrics, the tracing overhead among them. Each run also
writes its full record, and a traced run its spans, under
``perfbench/out/``; ``report.py`` reads them.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
from __future__ import annotations

import time

T_START = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import shlex  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"

MASTER = "local[4]"
DRIVER_MEMORY = "2g"
SHUFFLE_PARTITIONS = 64  # as in the test suite's session
PERCENTILES = (50, 75, 90, 95, 99, 99.9)


def supported_percentile(n: int) -> float | None:
    """The highest percentile with at least ten samples beyond it."""
    best = None
    for p in PERCENTILES:
        if n * (1000 - round(p * 10)) >= 10 * 1000:  # in tenths of a percent
            best = p
    return best


def pctl(xs: list[float], p: float) -> float:
    return float(np.percentile(xs, p)) if xs else 0.0


def median(xs) -> float:
    xs = list(xs)
    return float(statistics.median(xs)) if xs else 0.0


# -- Spark lifecycle -------------------------------------------------------
def start_spark():
    local = OUT / "spark-local"
    local.mkdir(parents=True, exist_ok=True)
    # keep every temporary file inside the checkout
    os.environ["SPARK_LOCAL_DIRS"] = os.environ["TMPDIR"] = str(local)
    tempfile.tempdir = str(local)
    os.environ["PYSPARK_SUBMIT_ARGS"] = " ".join(
        [
            f"--master {MASTER} --driver-memory {DRIVER_MEMORY}",
            "--driver-java-options",
            shlex.quote(f"-Djava.io.tmpdir={local} -XX:-UsePerfData"),
            "--conf spark.driver.host=127.0.0.1 --conf spark.ui.enabled=false",
            "pyspark-shell",
        ]
    )
    from pyspark.sql import SparkSession

    spark = (
        SparkSession.builder.appName("perfbench")
        .config("spark.sql.shuffle.partitions", SHUFFLE_PARTITIONS)
        .config("spark.sql.execution.arrow.pyspark.enabled", "true")
        .config("spark.sql.autoBroadcastJoinThreshold", -1)
        .config("spark.ui.showConsoleProgress", "false")
        .config("spark.ui.retainedJobs", 100_000)
        .config("spark.local.dir", str(local))
        .config("spark.sql.warehouse.dir", str(OUT / "warehouse"))
        .getOrCreate()
    )
    spark.sparkContext.setLogLevel("ERROR")
    return spark


def stop_spark(spark) -> None:
    """Stop Spark and wait until its JVM has exited."""
    from pyspark import SparkContext

    gateway = SparkContext._gateway
    proc = getattr(gateway, "proc", None)
    spark.stop()
    if gateway is not None:
        gateway.shutdown()
    if proc is not None:
        proc.stdin.close()  # the gateway JVM exits on EOF
        proc.wait(timeout=60)


def persisted_rdds(sc) -> int:
    return len(sc._jsc.getPersistentRDDs())


def cached_mb(sc) -> float:
    """Block-manager memory held by cached RDDs."""
    return sum(i.memSize() for i in sc._jsc.sc().getRDDStorageInfo()) / 2**20


def driver_hwm_mb() -> float:
    with open("/proc/self/status") as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024
    return 0.0


def git_sha() -> str:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(spark, spec, seed: int) -> dict:
    conf = spark.sparkContext.getConf()
    return {
        "git_sha": git_sha(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "spark_version": spark.version,
        "spark_master": spark.sparkContext.master,
        "driver_memory": conf.get("spark.driver.memory", DRIVER_MEMORY),
        "shuffle_partitions": int(spark.conf.get("spark.sql.shuffle.partitions")),
        "workload": spec.name,
        "sf": spec.sf,
        "seed": seed,
    }


# -- the run -----------------------------------------------------------------
def run(spark, spec, args, setup: dict) -> tuple[dict, list[dict]]:
    import gen
    from client import Client
    from repro.runner import build_context
    from repro.workloads import mot

    t = time.perf_counter()
    ctx = build_context(spark, mot.WORKLOAD, sf=spec.sf, seed=args.seed)
    setup["build_context_s"] = time.perf_counter() - t

    stream = gen.ops(spec, args.seed, gen.Domain.of(ctx.pdfs, spec.sf))
    client = Client(ctx, baseline=spec.baseline and bool(args.trace))
    t = time.perf_counter()
    for _ in range(spec.warmup_ops):
        client.run(next(stream), "warmup")
    setup["warmup_queries_s"] = time.perf_counter() - t
    setup_s = time.perf_counter() - T_START

    sc = spark.sparkContext
    rdds0 = persisted_rdds(sc)
    tracer = None
    trace_info: dict = {}
    if not args.trace:
        _loop(client, stream, "timed", args.seconds, spec.cycle)
    else:
        from spans import Tracer, installed, span_cost_s

        tracer = Tracer(sc)
        with installed(tracer):
            _loop(client, stream, "traced", args.seconds, spec.cycle, tracer)
        trace_info = {
            "deferred_jobs": tracer.finish(),
            "span_cost_s": span_cost_s(sc),
        }
    rdds_delta = persisted_rdds(sc) - rdds0
    mem_cached = cached_mb(sc)
    client.verify()

    record = {
        "environment": environment(spark, spec, args.seed),
        "setup": {**setup, "setup_s": setup_s},
        "persisted_rdds_delta": rdds_delta,
        "trace": trace_info,
        "mem_cached_mb": mem_cached,
        "mem_driver_py_mb": driver_hwm_mb(),
        "samples": [_sample_record(s) for s in client.samples],
    }
    measured = [s.op for s in client.samples if s.phase != "warmup"]
    record["input"] = gen.input_properties(measured)
    return record, (tracer.to_json() if tracer else [])


def _loop(client, stream, phase: str, seconds: float, cycle: int, tracer=None) -> None:
    """Issue whole template cycles, at least one, while the next cycle is
    expected to end within ``seconds``. Whole cycles keep the template
    mix of a run the same on every seed."""
    t0 = time.perf_counter()
    cycles = 0
    while True:
        for _ in range(cycle):
            client.run(next(stream), phase, tracer)
        cycles += 1
        elapsed = time.perf_counter() - t0
        if elapsed * (cycles + 1) / cycles > seconds:
            return


def _sample_record(s) -> dict:
    return {
        "qid": s.qid,
        "phase": s.phase,
        "kind": s.op.kind,
        "template": s.op.template,
        "keys": list(s.op.keys),
        "ms": s.ms,
        "baseline_ms": s.baseline_ms,
        "n_rows": None if s.rows is None else len(s.rows),
        "meter": s.meter,
        "baseline_meter": s.baseline_meter,
        "plan_ops": dict(s.plan_ops),
        "verdict": s.verdict,
        "error": s.error,
    }


# -- metrics -----------------------------------------------------------------
def latency_summary(samples: list[dict], phase: str) -> dict:
    """Read latencies of one phase: median, p75, the sample count and
    the highest percentile those samples support."""
    reads = [s["ms"] for s in samples if s["phase"] == phase and s["kind"] == "read" and s["error"] is None]
    n = len(reads)
    return {"n": n, "p50": median(reads), "p75": pctl(reads, 75), "supported_percentile": supported_percentile(n)}


def reads_ms(samples: list[dict], phase: str) -> list[float | None]:
    """Read latencies of one phase in issue order; None for a failed read."""
    return [
        None if s["error"] else s["ms"]
        for s in samples
        if s["phase"] == phase and s["kind"] == "read"
    ]


def end_to_end(record: dict, phase: str) -> dict:
    ss = [s for s in record["samples"] if s["phase"] == phase]
    lat = latency_summary(ss, phase)
    busy_s = sum(s["ms"] for s in ss) / 1e3
    return {
        "latency_p50_ms": (lat["p50"], "ms"),
        "latency_p75_ms": (lat["p75"], "ms"),
        "throughput_ops_per_s": (len(ss) / busy_s if busy_s else 0.0, "1/s"),
        "setup_s": (record["setup"]["setup_s"], "s"),
        "mem_cached_mb": (record["mem_cached_mb"], "MB"),
        "mem_driver_py_mb": (record["mem_driver_py_mb"], "MB"),
    }


def per_layer(record: dict, spans: list[dict]) -> dict:
    """Per-layer metrics of a traced run. Times are per-operation medians
    of self time over the operations where the layer occurs; counts are
    sums over the run."""
    from spans import by_query
    from repro.nosql.backends import BACKENDS
    from repro.nosql.kvstore import Meter

    samples = record["samples"]
    traced = [s for s in samples if s["phase"] == "traced" and s["error"] is None]
    per_q = by_query(spans)

    def layer(names: tuple[str, ...]) -> tuple[list[float], int, int]:
        ms, calls, jobs = [], 0, 0
        for layers in per_q.values():
            hit = [layers[n] for n in names if n in layers]
            if hit:
                ms.append(sum(h["self_s"] for h in hit) * 1e3)
                calls += sum(h["calls"] for h in hit)
                jobs += sum(h["jobs"] for h in hit)
        return ms, calls, jobs

    def attr_sum(name: str, key: str) -> int:
        return sum(layers[name][key] for layers in per_q.values() if name in layers)

    m: dict[str, tuple[float, str]] = {}
    for k in ("spark_start_s", "build_context_s", "warmup_queries_s"):
        m[f"setup.{k}"] = (record["setup"][k], "s")

    ms, calls, jobs = layer(("nosql.kvstore.fetch",))
    keys = attr_sum("nosql.kvstore.fetch", "keys")
    m["nosql.kvstore.fetch.calls"] = (calls, "count")
    m["nosql.kvstore.fetch.ms"] = (median(ms), "ms")
    m["nosql.kvstore.fetch.spark_jobs"] = (jobs, "count")
    m["nosql.kvstore.fetch.keys"] = (keys, "count")
    m["nosql.kvstore.fetch.rows"] = (attr_sum("nosql.kvstore.fetch", "rows"), "count")
    m["nosql.kvstore.fetch.hit_ratio"] = (
        attr_sum("nosql.kvstore.fetch", "hits") / keys if keys else 0.0, "ratio"
    )
    ms, _, jobs = layer(("nosql.zidian.answer", "nosql.zidian.rows"))
    m["nosql.zidian.collect.ms"] = (median(ms), "ms")
    m["nosql.zidian.collect.spark_jobs"] = (jobs, "count")
    ms, calls, _ = layer(("nosql.kvstore.scan",))
    m["nosql.kvstore.scan.calls"] = (calls, "count")
    m["nosql.kvstore.scan.ms"] = (median(ms), "ms")
    m["core.plan.execute.ms"] = (median(layer(("core.plan.execute",))[0]), "ms")
    m["nosql.zidian.plan.ms"] = (median(layer(("nosql.zidian.plan",))[0]), "ms")
    m["nosql.zidian.plan_is_bounded.ms"] = (
        median(layer(("nosql.zidian.plan_is_bounded",))[0]), "ms"
    )
    m["nosql.zidian.answerable.calls"] = (layer(("nosql.zidian.answerable",))[1], "count")
    m["nosql.zidian.fallback.count"] = (layer(("nosql.zidian.fallback",))[1], "count")
    ms, calls, jobs = layer(("nosql.kvstore.put",))
    m["nosql.kvstore.put.calls"] = (calls, "count")
    m["nosql.kvstore.put.ms"] = (median(ms), "ms")
    m["nosql.kvstore.put.spark_jobs"] = (jobs, "count")

    meters = [s["meter"] for s in traced if s["meter"]]
    for k in ("gets", "data_values", "comm_bytes", "scans"):
        m[f"nosql.kvstore.meter.{k}"] = (
            sum(mt[k] for mt in meters), "bytes" if k == "comm_bytes" else "count"
        )
    ops = Counter()
    for s in traced:
        ops.update(s["plan_ops"])
    for k, cls in (("seed", "SeedOp"), ("fetch", "FetchOp"), ("scan", "ScanOp")):
        m[f"core.plan.ops.{k}"] = (ops[cls], "count")
    m["nosql.kvstore.persisted_rdds_delta"] = (record["persisted_rdds_delta"], "count")

    ms, _, jobs = layer(("nosql.sqllayer.evaluate_baseline",))
    m["nosql.sqllayer.evaluate_baseline.ms"] = (median(ms), "ms")
    m["nosql.sqllayer.evaluate_baseline.spark_jobs"] = (jobs, "count")
    bmeters = [s["baseline_meter"] for s in traced if s["baseline_meter"]]
    for k in ("gets", "data_values"):
        m[f"nosql.sqllayer.taav.{k}"] = (sum(mt[k] for mt in bmeters), "count")
    for b in BACKENDS:
        for side, ms_ in (("zidian", meters), ("baseline", bmeters)):
            m[f"nosql.backends.modelled_storage_ms.{b.name}.{side}"] = (
                median(b.storage_time(Meter(**mt)) * 1e3 for mt in ms_), "ms"
            )

    reads = [s for s in traced if s["kind"] == "read"]
    for t in TEMPLATE_METRICS:
        m[f"template.{t}.zidian_p50_ms"] = (
            median(s["ms"] for s in reads if s["template"] == t), "ms"
        )
    for t in BASELINE_TEMPLATES:
        m[f"template.{t}.baseline_p50_ms"] = (
            median(s["baseline_ms"] for s in reads if s["template"] == t and s["baseline_ms"] is not None),
            "ms",
        )
    m["baseline_latency_p50_ms"] = (
        median(s["baseline_ms"] for s in reads if s["baseline_ms"] is not None), "ms"
    )
    m["write_p50_ms"] = (median(s["ms"] for s in traced if s["kind"] == "write"), "ms")

    measured = [s for s in samples if s["phase"] == "traced"]
    busy_s = sum(s["ms"] for s in measured) / 1e3
    m["goodput_ops_per_s"] = (sum(s["verdict"] == "ok" for s in measured) / busy_s, "1/s")
    m["failed_frac"] = (sum(s["verdict"] != "ok" for s in measured) / len(measured), "ratio")
    m["stale_read_frac"] = (
        sum(s["verdict"] == "stale" for s in measured)
        / max(1, sum(s["kind"] == "read" for s in measured)),
        "ratio",
    )
    m["latency.samples"] = (len(reads), "count")
    # What the recording adds to a read: its spans times the measured
    # cost of one span (a clock read and two job-group calls into the JVM).
    n_spans = Counter(s["qid"] for s in spans)
    cost = record["trace"]["span_cost_s"]
    m["trace.span_cost_us"] = (cost * 1e6, "us")
    m["trace.overhead_ms"] = (median(n_spans[s["qid"]] * cost * 1e3 for s in reads), "ms")
    m["trace.deferred.spark_jobs"] = (record["trace"]["deferred_jobs"], "count")
    return m


TEMPLATE_METRICS = ("q1", "q2", "q3", "q4", "q5", "q6", "q10")
BASELINE_TEMPLATES = ("q1", "q2", "q3", "q4", "q5", "q6")


def result_line(record: dict, metrics: dict) -> dict:
    measured = [s for s in record["samples"] if s["phase"] != "warmup"]
    return {
        # stale reads are failures but not wrong answers: the answer
        # equals the one over the data without the benchmark's writes
        "correct": bool(measured)
        and not any(s["verdict"] in ("wrong", "error") for s in measured),
        "attempted": len(measured),
        "failed": sum(s["verdict"] != "ok" for s in measured),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"no program source under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    import gen

    if args.workload not in gen.WORKLOADS:
        print(f"unknown workload {args.workload!r}; one of {sorted(gen.WORKLOADS)}", file=sys.stderr)
        return 2
    spec = gen.WORKLOADS[args.workload]
    OUT.mkdir(parents=True, exist_ok=True)

    setup: dict = {}
    t = time.perf_counter()
    spark = start_spark()
    setup["spark_start_s"] = time.perf_counter() - t
    try:
        record, spans = run(spark, spec, args, setup)
    finally:
        stop_spark(spark)

    stem = f"{spec.name}-s{args.seed}-t{args.trace}"
    if args.trace:
        metrics = per_layer(record, spans)
        (OUT / f"{stem}.trace.json").write_text(
            json.dumps({
                "environment": record["environment"],
                "traced_read_ms": reads_ms(record["samples"], "traced"),
                "spans": spans,
            })
        )
        phase = "traced"
    else:
        metrics = end_to_end(record, "timed")
        phase = "timed"
    record["latency"] = latency_summary(record["samples"], phase)
    record["metrics"] = {k: v for k, (v, _) in metrics.items()}
    (OUT / f"{stem}.json").write_text(json.dumps(record, default=str, indent=1))

    print(json.dumps({"environment": record["environment"], "input": record["input"],
                      "latency": record["latency"]}))
    print(json.dumps(result_line(record, metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
