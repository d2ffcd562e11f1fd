"""Seeded inputs for the benchmark workloads.

A workload is a MOT-lite scale factor plus an endless, seeded sequence
of operations. The program under test sees only what this module
generates: the relations (``Workload.pdfs`` at the workload's scale
factor and the run's seed) and the operations below, in order.

- ``mot_bounded``: the bounded templates q1–q6 in a fixed round-robin
  order, each naming vehicle ids drawn zipfian from the whole vehicle
  domain (q5 takes an IN-list of 3 distinct ids).
- ``mot_rw``: cycles of a non-scan-free read (q10, whose plan scans
  an instance and fetches a large frontier) and three pairs of a write
  and a read: the write adds one new ``mottest`` row for a drawn
  vehicle, and the read is a bounded template that covers that vehicle
  (q1, q2, q5 in turn: read-your-writes).

The template order is fixed, so a run of whole cycles has the same
template mix on every seed; only the keys and parameters vary.
"""
from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import Iterator

import numpy as np
import pandas as pd

BOUNDED = ("q1", "q2", "q3", "q4", "q5", "q6")
# Bounded templates that read the vehicle's mottest rows directly.
COVERING = ("q1", "q2", "q5")
# Not scan-free: scans vehicle, then fetches mottest for ~1/3-2/3 of
# all vehicles, so it bypasses any small-frontier path.
SCAN = "q10"
ZIPF_ALPHA = 1.1


@dataclass(frozen=True)
class WorkloadSpec:
    name: str
    sf: float
    writes: bool  # the workload issues KVInstance.put
    baseline: bool  # traced runs also time evaluate_baseline on each read
    cycle: int  # operations per template cycle
    # Untimed operations before the timed loop: enough that the first
    # execution of each code path (bounded read, scan, put) is not timed.
    warmup_ops: int


# Why each workload exists is stated in BENCHMARK.json.
WORKLOADS = {
    w.name: w
    for w in (
        WorkloadSpec("mot_bounded", 0.04, False, True, len(BOUNDED), 1),
        WorkloadSpec("mot_rw", 0.01, True, False, 1 + 2 * len(COVERING), 3),
    )
}


@dataclass(frozen=True)
class Op:
    """One client operation. ``kind`` is ``read`` or ``write``; a read
    names a MOT template and its parameter, a write carries the new
    ``mottest`` row. ``keys`` are the vehicle ids the operation names."""

    kind: str
    template: str
    param: object
    keys: tuple[int, ...]


@dataclass(frozen=True)
class Domain:
    """Facts about the generated data that the generator draws from."""

    n_vehicles: int
    next_test_id: int
    n_stations: int

    @classmethod
    def of(cls, pdfs: dict[str, pd.DataFrame], sf: float) -> "Domain":
        return cls(
            n_vehicles=len(pdfs["vehicle"]),
            next_test_id=int(pdfs["mottest"]["test_id"].max()) + 1,
            # synth_data.mot_test_pdf draws stations from 1..max(10, 2000·sf)
            n_stations=max(10, int(2000 * sf)),
        )


class _Vehicles:
    """Zipfian vehicle ids over the whole domain; which ids are hot is
    itself drawn from the seed."""

    def __init__(self, g: np.random.Generator, n: int) -> None:
        w = np.cumsum(1.0 / np.arange(1, n + 1) ** ZIPF_ALPHA)
        self._cdf = w / w[-1]
        self._ids = g.permutation(n) + 1
        self._g = g

    def draw(self, k: int = 1, *, include: int | None = None) -> tuple[int, ...]:
        out = [] if include is None else [include]
        while len(out) < k:
            rank = int(np.searchsorted(self._cdf, self._g.random(), side="right"))
            v = int(self._ids[min(rank, len(self._ids) - 1)])
            if v not in out:
                out.append(v)
        return tuple(out)


def _read(template: str, vs: tuple[int, ...]) -> Op:
    param = vs if template == "q5" else vs[0]
    return Op("read", template, param, vs)


def ops(spec: WorkloadSpec, seed: int, domain: Domain) -> Iterator[Op]:
    """The workload's operations for ``seed``, in order, without end."""
    from repro.workloads import mot

    g = np.random.default_rng([seed, 1])
    veh = _Vehicles(g, domain.n_vehicles)
    if not spec.writes:
        for t in itertools.cycle(BOUNDED):
            yield _read(t, veh.draw(3 if t == "q5" else 1))
    scan = mot.WORKLOAD.template(SCAN)
    test_id = domain.next_test_id
    while True:
        yield Op("read", SCAN, scan.sample_params(g, 1)[0], ())
        for t in COVERING:
            (v,) = veh.draw()
            yield Op("write", "put", _mottest_row(g, test_id, v, domain), (v,))
            test_id += 1
            yield _read(t, veh.draw(3, include=v) if t == "q5" else (v,))


def _mottest_row(
    g: np.random.Generator, test_id: int, vehicle: int, domain: Domain
) -> pd.DataFrame:
    """One new ``mottest`` row with the dtypes of ``synth_data``."""
    from repro.synth_data import RESULTS

    return pd.DataFrame(
        {
            "test_id": np.array([test_id], dtype=np.int64),
            "vehicle_id": np.array([vehicle], dtype=np.int64),
            "test_date": pd.to_datetime("2007-01-01")
            + pd.to_timedelta([int(g.integers(0, 1826))], unit="D"),
            "result": [str(g.choice(RESULTS))],
            "mileage": np.array([g.integers(0, 250_000)], dtype=np.int64),
            "test_class": np.array([g.integers(1, 8)], dtype=np.int64),
            "station_id": np.array(
                [g.integers(1, domain.n_stations + 1)], dtype=np.int64
            ),
        }
    )


def input_properties(run: list[Op]) -> dict:
    """Properties of the operations a run executed that later claims
    cite: how often a read names a key already read earlier in the run
    (what a block cache would exploit) and the template mix."""
    seen: set[int] = set()
    repeats = total = 0
    for op in run:
        if op.kind != "read":
            continue
        for k in op.keys:
            repeats += k in seen
            total += 1
            seen.add(k)
    return {
        "read_keys": total,
        "repeat_key_share": repeats / total if total else 0.0,
        "template_mix": dict(sorted(Counter(op.template for op in run).items())),
        "seed_keys_per_read": dict(
            sorted(Counter(len(op.keys) for op in run if op.kind == "read").items())
        ),
    }
