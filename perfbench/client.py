"""The benchmark's single closed-loop client and its oracle check.

One client thread issues an operation, waits for its result, then
issues the next. A read is timed from the call to ``Zidian.answer``
until the result rows are on the driver; a write is timed across the
``KVInstance.put`` calls on every ``mottest`` instance. Results are
checked against DuckDB over the pandas ground truth after the timed
loop, never inside it.
"""
from __future__ import annotations

import contextlib
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field

import duckdb
import pandas as pd

from gen import Op
from spans import Tracer


@dataclass
class Sample:
    """One executed operation and what the check made of it."""

    op: Op
    phase: str  # warmup | timed | traced
    qid: int
    writes_before: int  # benchmark writes issued before this operation
    ms: float = 0.0
    rows: list | None = None
    cols: list[str] | None = None
    meter: dict | None = None
    plan_ops: Counter = field(default_factory=Counter)
    baseline_ms: float | None = None
    baseline_rows: list | None = None
    baseline_cols: list[str] | None = None
    baseline_meter: dict | None = None
    error: str | None = None
    verdict: str = ""  # ok | stale | wrong | error (set by verify)


class Client:
    def __init__(self, ctx, *, baseline: bool) -> None:
        from repro.workloads import mot

        self.ctx = ctx
        self.spark = ctx.zidian.spark
        self.baseline = baseline
        self.templates = {t.name: t for t in mot.TEMPLATES}
        self.mottest = [
            inst for kv, inst in ctx.store.instances.items() if kv.relation == "mottest"
        ]
        self.written: list[pd.DataFrame] = []
        self.samples: list[Sample] = []

    def run(
        self, op: Op, phase: str, tracer: Tracer | None = None
    ) -> Sample:
        s = Sample(op, phase, len(self.samples), len(self.written))
        self.samples.append(s)
        if tracer is not None:
            tracer.qid = s.qid
        span = tracer.span if tracer is not None else _no_span
        try:
            if op.kind == "write":
                self._write(s, span)
            else:
                self._read(s, span)
        except Exception:  # a failed operation is counted, not raised
            s.error = traceback.format_exc(limit=3)
        finally:
            if tracer is not None:
                tracer.qid = None
        return s

    def _write(self, s: Sample, span) -> None:
        rows = self.spark.createDataFrame(s.op.param)
        self.written.append(s.op.param)
        with span("op.write"):
            t0 = time.perf_counter()
            for inst in self.mottest:
                inst.put(rows)
            s.ms = (time.perf_counter() - t0) * 1e3

    def _read(self, s: Sample, span) -> None:
        from repro.nosql import sqllayer

        q = self.templates[s.op.template].instantiate(s.op.param)
        with span("op.read"):
            t0 = time.perf_counter()
            res = self.ctx.zidian.answer(q)
            with span("nosql.zidian.rows"):
                s.rows = res.df.collect()
            s.ms = (time.perf_counter() - t0) * 1e3
        s.cols = res.df.columns
        s.meter = res.meter
        if res.plan is not None:
            s.plan_ops = Counter(type(op).__name__ for op in res.plan.ops)
        if not self.baseline:
            return
        with span("op.baseline"):
            t0 = time.perf_counter()
            # looked up on the module so a traced run sees its wrapper
            b = sqllayer.evaluate_baseline(self.spark, q, self.ctx.taav)
            s.baseline_rows = b.df.collect()
            s.baseline_ms = (time.perf_counter() - t0) * 1e3
        s.baseline_cols = b.df.columns
        s.baseline_meter = b.meter

    # -- oracle --------------------------------------------------------
    def verify(self) -> None:
        """Set every sample's verdict. A read is checked against DuckDB
        over the ground truth with every earlier benchmark write applied;
        a mismatch that equals the answer without those writes is a
        stale read."""
        for s in self.samples:
            if s.error is not None:
                s.verdict = "error"
            elif s.op.kind == "write":
                s.verdict = "ok"
            else:
                q = self.templates[s.op.template].instantiate(s.op.param)
                s.verdict = self._check(q, s.rows, s.cols, s.writes_before)
                if s.baseline_rows is not None and s.verdict == "ok":
                    # the TaaV store the baseline reads has no write path
                    s.verdict = self._check(q, s.baseline_rows, s.baseline_cols, 0)

    def _check(self, q, rows, cols, writes: int) -> str:
        got = pd.DataFrame.from_records([tuple(r) for r in rows], columns=cols)
        if _same(got, self._expected(q, writes)):
            return "ok"
        if writes and _same(got, self._expected(q, 0)):
            return "stale"
        return "wrong"

    def _expected(self, q, writes: int) -> pd.DataFrame:
        tables = dict(self.ctx.pdfs)
        if writes:
            tables["mottest"] = pd.concat(
                [tables["mottest"], *self.written[:writes]], ignore_index=True
            )
        con = duckdb.connect()
        try:
            for a in q.atoms:
                con.register(a.relation, tables[a.relation])
            return con.execute(q.to_sql()).fetchdf()
        finally:
            con.close()


@contextlib.contextmanager
def _no_span(name: str):
    yield None


def _same(got: pd.DataFrame, expected: pd.DataFrame) -> bool:
    """The oracle's equivalence (``repro.oracle``) on a collected result."""
    from repro.oracle import _canon

    if set(got.columns) != set(expected.columns):
        return False
    if got.empty or expected.empty:
        return got.empty and expected.empty
    try:
        pd.testing.assert_frame_equal(
            _canon(got), _canon(expected), check_dtype=False
        )
    except AssertionError:
        return False
    return True
