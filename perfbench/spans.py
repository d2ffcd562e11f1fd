"""Spans around the program's layers, recorded from outside the program.

``Tracer`` keeps spans in memory (name, start, end, parent, query id,
attributes) and writes them out at the end of a run. ``installed``
wraps the public entry points of each layer for the duration of a
``with`` block and puts the originals back when it exits, so a run
outside the block is untraced.

Spark jobs are attributed to the innermost open span: entering a span
sets the Spark job group to the span's id and leaving it restores the
parent's. After the run, ``statusTracker().getJobIdsForGroup`` gives
each span's own jobs, which is its self count.
"""
from __future__ import annotations

import contextlib
import functools
import time
from dataclasses import dataclass, field
from typing import Callable, Iterator


@dataclass
class Span:
    id: int
    name: str
    start: float
    parent: int | None
    qid: int | None
    end: float = 0.0
    attrs: dict = field(default_factory=dict)


class Tracer:
    """In-memory span recorder. ``sc`` (a SparkContext) is optional;
    without it no job groups are set and job counts stay 0."""

    def __init__(self, sc=None, clock: Callable[[], float] = time.perf_counter):
        self.sc = sc
        self.clock = clock
        self.spans: list[Span] = []
        self.qid: int | None = None
        self._stack: list[Span] = []
        self._deferred: list[Callable[[], None]] = []

    def defer(self, fn: Callable[[], None]) -> None:
        """Run ``fn`` in ``finish``, after the traced work and outside
        every span: for counts that need Spark jobs of their own."""
        self._deferred.append(fn)

    def _group(self, s: Span | None) -> None:
        if self.sc is None:
            return
        if s is None:
            self.sc.setLocalProperty("spark.jobGroup.id", None)
        else:
            self.sc.setJobGroup(f"span-{s.id}", s.name)

    @contextlib.contextmanager
    def span(self, name: str, **attrs) -> Iterator[Span]:
        parent = self._stack[-1] if self._stack else None
        s = Span(len(self.spans), name, 0.0, parent and parent.id, self.qid)
        s.attrs.update(attrs)
        self.spans.append(s)
        self._stack.append(s)
        self._group(s)
        s.start = self.clock()
        try:
            yield s
        finally:
            s.end = self.clock()
            self._stack.pop()
            self._group(parent)

    def finish(self) -> int:
        """Run the deferred counts, then store each span's own Spark job
        count in ``attrs['jobs']``. Call once, after the traced work.
        Returns the number of Spark jobs the deferred counts ran."""
        if self.sc is not None:
            self.sc.setJobGroup("trace.deferred", "deferred counts")
        try:
            for fn in self._deferred:
                fn()
        finally:
            self._group(None)
        if self.sc is None:
            return 0
        self.sc._jsc.sc().listenerBus().waitUntilEmpty()
        st = self.sc.statusTracker()
        for s in self.spans:
            s.attrs["jobs"] = len(st.getJobIdsForGroup(f"span-{s.id}"))
        return len(st.getJobIdsForGroup("trace.deferred"))

    def to_json(self) -> list[dict]:
        return [
            {
                "id": s.id,
                "name": s.name,
                "start": s.start,
                "end": s.end,
                "parent": s.parent,
                "qid": s.qid,
                **s.attrs,
            }
            for s in self.spans
        ]


def span_cost_s(sc, n: int = 200) -> float:
    """The time one empty span takes, as measured over ``n`` spans."""
    tr = Tracer(sc)
    t0 = time.perf_counter()
    for _ in range(n):
        with tr.span("trace.calibrate"):
            pass
    return (time.perf_counter() - t0) / n


@contextlib.contextmanager
def patched(targets: list[tuple[object, str, Callable]]) -> Iterator[None]:
    """Replace ``owner.attr`` with ``make(original)`` for each target
    and restore every original on exit, also on error."""
    saved = []
    try:
        for owner, attr, make in targets:
            orig = owner.__dict__[attr]
            saved.append((owner, attr, orig))
            setattr(owner, attr, make(orig))
        yield
    finally:
        for owner, attr, orig in reversed(saved):
            setattr(owner, attr, orig)


def spanning(tracer: Tracer, name: str) -> Callable[[Callable], Callable]:
    """A wrapper factory: run the wrapped callable inside a span."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            with tracer.span(name):
                return fn(*args, **kwargs)

        return wrapper

    return make


def _metered(tracer: Tracer, name: str, hit_probe: bool) -> Callable:
    """Wrap a ``KVInstance`` method: record the meter's gets and values
    read by the call, and for ``fetch`` how many of the shipped keys
    found a block. That count needs a Spark job, so it is deferred to
    ``Tracer.finish`` and adds nothing to the traced latencies."""

    def make(fn: Callable) -> Callable:
        @functools.wraps(fn)
        def wrapper(inst, *args, **kwargs):
            with tracer.span(name) as s:
                m = inst.meter
                gets, values = m.gets, m.data_values
                out = fn(inst, *args, **kwargs)
                s.attrs["keys"] = m.gets - gets
                s.attrs["rows"] = (m.data_values - values) // len(inst.kv.columns)
                if hit_probe:
                    keys = out.select(*inst.kv.key)
                    tracer.defer(
                        lambda: s.attrs.__setitem__("hits", keys.distinct().count())
                    )
                return out

        return wrapper

    return make


def installed(tracer: Tracer):
    """Wrap every traced entry point of the program's layers."""
    from repro.core import plan
    from repro.nosql import kvstore, sqllayer, zidian

    Z, KV = zidian.Zidian, kvstore.KVInstance
    return patched(
        [
            (Z, "answer", spanning(tracer, "nosql.zidian.answer")),
            (Z, "plan", spanning(tracer, "nosql.zidian.plan")),
            (Z, "answerable", spanning(tracer, "nosql.zidian.answerable")),
            (zidian, "plan_is_bounded", spanning(tracer, "nosql.zidian.plan_is_bounded")),
            # the name Zidian.answer calls when it falls back to SQL
            (zidian, "evaluate_baseline", spanning(tracer, "nosql.zidian.fallback")),
            (plan, "execute", spanning(tracer, "core.plan.execute")),
            (KV, "fetch", _metered(tracer, "nosql.kvstore.fetch", True)),
            (KV, "scan", _metered(tracer, "nosql.kvstore.scan", False)),
            (KV, "put", _metered(tracer, "nosql.kvstore.put", False)),
            (sqllayer, "evaluate_baseline", spanning(tracer, "nosql.sqllayer.evaluate_baseline")),
        ]
    )


def self_times(spans: list[dict]) -> dict[int, float]:
    """Each span's duration minus the part of it its children cover."""
    children: dict[int, list[dict]] = {}
    for s in spans:
        if s["parent"] is not None:
            children.setdefault(s["parent"], []).append(s)
    out = {}
    for s in spans:
        covered = 0.0
        hi = s["start"]
        for c in sorted(children.get(s["id"], ()), key=lambda c: c["start"]):
            lo = max(c["start"], hi)
            end = min(c["end"], s["end"])
            if end > lo:
                covered += end - lo
                hi = end
        out[s["id"]] = (s["end"] - s["start"]) - covered
    return out


def by_query(spans: list[dict]) -> dict[int, dict[str, dict]]:
    """Per query id and span name: calls, self seconds, own jobs and
    the summed numeric attributes."""
    st = self_times(spans)
    out: dict[int, dict[str, dict]] = {}
    for s in spans:
        if s["qid"] is None:
            continue
        agg = out.setdefault(s["qid"], {}).setdefault(
            s["name"], {"calls": 0, "self_s": 0.0, "jobs": 0, "keys": 0, "rows": 0, "hits": 0}
        )
        agg["calls"] += 1
        agg["self_s"] += st[s["id"]]
        for k in ("jobs", "keys", "rows", "hits"):
            agg[k] += s.get(k, 0)
    return out
