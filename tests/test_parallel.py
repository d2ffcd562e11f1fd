"""Tests for the parallel cost model (paper §7, Prop 7 / Thm 8)."""
import pytest

from repro.core.parallel import PlanCost, speedup


def test_t_par_decreases_with_p():
    c = PlanCost(comp_values=10**8, comm_bytes=10**9)
    ts = [c.t_par(p) for p in (1, 2, 4, 8, 16)]
    assert all(a > b for a, b in zip(ts, ts[1:]))


def test_theorem_8_linear_speedup():
    """Both terms divide by p, so T_par(p)/T_par(kp) = k exactly under
    the no-skew model."""
    c = PlanCost(comp_values=5 * 10**7, comm_bytes=2 * 10**8)
    assert speedup(c, 4, 8) == pytest.approx(2.0)
    assert speedup(c, 4, 12) == pytest.approx(3.0)


def test_t_par_rejects_bad_p():
    with pytest.raises(ValueError):
        PlanCost(1, 1.0).t_par(0)


def test_t_seq_matches_value_cost():
    c = PlanCost(comp_values=100, comm_bytes=0.0)
    assert c.t_seq(value_cost_s=1e-3) == pytest.approx(0.1)


def test_bounded_plan_comm_is_constant_sized(mot_ctx):
    """Prop 7(b): a bounded plan's modeled communication is tiny and
    size-independent (absolute check at test scale)."""
    from repro.runner import run_zidian

    q = mot_ctx.workload.template("q1").instantiate()
    zr = run_zidian(mot_ctx, q)
    assert zr.bounded
    assert zr.meter["comm_bytes"] < 10_000  # a handful of blocks
