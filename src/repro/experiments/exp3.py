"""Exp-3 (paper Fig 4 summary): parallel scalability and communication.

A single local session cannot vary the worker count, so (per DESIGN.md)
we evaluate the paper's §7 cost model T_par = T_comp/p + T_comm/p on
*measured* meter counts, for p = 4..12 — the x-axis of Fig 4a/4c.

Paper claims (§9 Exp-3): varying p from 4 to 12 improves SoH+Zidian by
2.0–2.5x (model predicts exactly 3x = 12/4 under no-skew); Zidian's
communication is a small fraction of the baseline's (0.03%–22.7%).
"""
from __future__ import annotations

import pandas as pd
from pyspark.sql import SparkSession

from ..core.parallel import PlanCost, speedup
from ..runner import build_context, run_baseline, run_zidian, warm
from ..workloads import WORKLOADS

PAPER_CLAIMS = pd.DataFrame(
    {
        "claim": [
            "speedup p=4 -> p=12 (SoH+Zidian)",
            "comm ratio Zidian/baseline (MOT)",
            "comm ratio Zidian/baseline (TPC-H)",
        ],
        "paper": ["2.0x-2.5x (vs ideal 3x)", "0.03%", "22.7%"],
    }
)


def run(
    spark: SparkSession,
    *,
    sf: float = 0.05,
    ps: tuple[int, ...] = (4, 6, 8, 10, 12),
    picks: tuple[tuple[str, str], ...] = (
        ("mot", "q1"),
        ("mot", "q10"),
        ("tpch", "q11"),
        ("tpch", "q4"),
    ),
) -> pd.DataFrame:
    rows = []
    for wl_name, t_name in picks:
        wl = WORKLOADS[wl_name]
        ctx = build_context(spark, wl, sf=sf)
        try:
            warm(ctx)
            q = wl.template(t_name).instantiate()
            zr = run_zidian(ctx, q)
            br = run_baseline(ctx, q)
            cost = PlanCost(int(zr.meter["data_values"]), zr.meter["comm_bytes"])
            row = {
                "query": f"{wl_name}.{t_name}",
                "scan_free": zr.scan_free,
                "comm_ratio_%": round(
                    100 * zr.meter["comm_bytes"] / max(br.meter["comm_bytes"], 1), 3
                ),
            }
            for p in ps:
                row[f"Tpar_p{p}_ms"] = round(cost.t_par(p) * 1e3, 4)
            row["speedup_4_to_12"] = round(speedup(cost, 4, 12), 2)
            rows.append(row)
        finally:
            ctx.close()
    return pd.DataFrame(rows)


def main() -> None:  # pragma: no cover
    from ._session import get_session, print_table

    spark = get_session("exp3")
    print_table("Exp-3 — paper claims", PAPER_CLAIMS)
    print_table("Exp-3 — ours (cost model over measured meters)", run(spark))
