"""Parallel cost model for KBA plans (paper §7, Prop 7 and Thm 8).

A single local[*] Spark session cannot vary the worker count, so Exp-3's
scalability claims are reproduced through the paper's own cost model,
evaluated on *measured* meter counts:

    T_par(ξ_p, ~D) = T_comm(ξ_p, ~D) + T_comp(ξ_p, ~D)
    T_comp = T_seq / p                         (no-skew assumption, §7.2)
    T_comm = bytes_shipped / (p · bandwidth)   (hash-partitioned shuffle)

Theorem 8 (parallel scalability): T_par = O(T_seq / p) — both terms
divide by p. Proposition 7: a scan-free plan ships only frontier keys
and fetched blocks, so if the plan is bounded its communication is a
constant independent of |D|.
"""
from __future__ import annotations

from dataclasses import dataclass

DEFAULT_BANDWIDTH_BPS = 1.0e9  # 1 GB/s effective inter-node bandwidth
DEFAULT_VALUE_COST_S = 2.0e-8  # per-value sequential compute cost


@dataclass(frozen=True)
class PlanCost:
    """Measured cost inputs of one executed plan."""

    comp_values: int  # values processed (meter.data_values)
    comm_bytes: float  # bytes shipped (meter.comm_bytes)

    def t_seq(self, value_cost_s: float = DEFAULT_VALUE_COST_S) -> float:
        return self.comp_values * value_cost_s

    def t_par(
        self,
        p: int,
        bandwidth_bps: float = DEFAULT_BANDWIDTH_BPS,
        value_cost_s: float = DEFAULT_VALUE_COST_S,
    ) -> float:
        """§7.2 cost model for p computing nodes (p ≥ 1)."""
        if p < 1:
            raise ValueError("p must be >= 1")
        t_comp = self.t_seq(value_cost_s) / p
        t_comm = self.comm_bytes / (p * bandwidth_bps)
        return t_comp + t_comm


def speedup(cost: PlanCost, p_from: int, p_to: int) -> float:
    """T_par(p_from) / T_par(p_to) — Theorem 8 predicts ≈ p_to/p_from."""
    return cost.t_par(p_from) / cost.t_par(p_to)
