import numpy as np
import pytest

from clusterhop import planner, simplex
from clusterhop.errors import CapExceededError, SolverError
from clusterhop.simplex import (INFEASIBLE, OPTIMAL, UNBOUNDED,
                                solve_bounded_lp)

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


def test_simple_equality_box():
    # min -x - 2y over x + y = 3, 0 <= x <= 2, 0 <= y <= 2 -> (1, 2)
    res = solve_bounded_lp(
        c=[-1.0, -2.0],
        a=[[1.0, 1.0]],
        b=[3.0],
        lower=[0.0, 0.0],
        upper=[2.0, 2.0],
    )
    assert res.status == OPTIMAL
    assert res.x == pytest.approx([1.0, 2.0])
    assert res.objective == pytest.approx(-5.0)


def test_infeasible_bounds():
    res = solve_bounded_lp(
        c=[1.0, 1.0],
        a=[[1.0, 1.0]],
        b=[10.0],
        lower=[0.0, 0.0],
        upper=[2.0, 2.0],
    )
    assert res.status == INFEASIBLE


def test_unbounded_direction():
    # min -x with x - y = 0 and both unbounded above
    res = solve_bounded_lp(
        c=[-1.0, 0.0],
        a=[[1.0, -1.0]],
        b=[0.0],
        lower=[0.0, 0.0],
        upper=[np.inf, np.inf],
    )
    assert res.status == UNBOUNDED


def test_degenerate_ties_terminate():
    # many identical columns force degenerate pivots
    a = np.ones((1, 6))
    res = solve_bounded_lp(
        c=[1, 1, 1, 1, 1, 0.5],
        a=a,
        b=[4.0],
        lower=np.zeros(6),
        upper=np.full(6, 1.0),
    )
    assert res.status == OPTIMAL
    assert res.objective == pytest.approx(3.5)


def _random_instance(rng):
    m = int(rng.integers(1, 6))
    n = int(rng.integers(m, 9))
    a = rng.normal(size=(m, n)).round(2)
    lower = rng.uniform(-3, 0, size=n).round(2)
    span = rng.uniform(0, 6, size=n).round(2)
    upper = lower + span
    upper[rng.random(n) < 0.25] = np.inf
    if rng.random() < 0.8:
        x_feas = lower + rng.uniform(0, 1, size=n) * np.where(
            np.isfinite(upper), span, 1.0)
        b = a @ x_feas
    else:
        b = rng.normal(size=m) * 10
    c = rng.normal(size=n).round(2)
    return c, a, b, lower, upper


def _assert_matches_highs(c, a, b, lower, upper, res):
    ref = scipy_linprog(
        c, A_eq=a, b_eq=b,
        bounds=[(lo, None if not np.isfinite(up) else up)
                for lo, up in zip(lower, upper)],
        method="highs",
    )
    ref_status = {0: OPTIMAL, 2: INFEASIBLE, 3: UNBOUNDED}.get(
        ref.status, "other")
    assert res.status == ref_status
    if res.status == OPTIMAL:
        assert res.objective == pytest.approx(ref.fun, rel=1e-6, abs=1e-7)
        assert np.abs(a @ res.x - b).max() < 1e-6
        assert (res.x >= lower - 1e-7).all()
        assert (res.x <= upper + 1e-7).all()


def test_against_scipy_reference():
    rng = np.random.default_rng(1234)
    for _ in range(200):
        c, a, b, lower, upper = _random_instance(rng)
        res = solve_bounded_lp(c, a, b, lower, upper)
        _assert_matches_highs(c, a, b, lower, upper, res)


def test_pivots_counted_over_both_phases():
    res = solve_bounded_lp(
        c=[-1.0, -2.0],
        a=[[1.0, 1.0]],
        b=[3.0],
        lower=[0.0, 0.0],
        upper=[2.0, 2.0],
    )
    # phase 1 flips x to its upper bound and brings y into the basis;
    # phase 2 brings x back into the basis and sends y to its upper bound
    assert res.pivots == 3
    again = solve_bounded_lp([-1.0, -2.0], [[1.0, 1.0]], [3.0],
                             [0.0, 0.0], [2.0, 2.0])
    assert again.pivots == res.pivots


def test_iteration_limit_is_cap_exceeded(monkeypatch):
    monkeypatch.setattr(simplex, "_ITERATION_LIMIT", 1)
    with pytest.raises(CapExceededError, match="iteration limit"):
        solve_bounded_lp([-1.0, -2.0], [[1.0, 1.0]], [3.0],
                         [0.0, 0.0], [2.0, 2.0])


def test_singular_basis_is_solver_error(monkeypatch):
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(SolverError, match="singular"):
        solve_bounded_lp([-1.0, -2.0], [[1.0, 1.0]], [3.0],
                         [0.0, 0.0], [2.0, 2.0])


def _snapshot_rows(rng):
    """Normalized supply rows shaped like the planner's: 0/1 snapshot
    membership (each snapshot lights 3 clusters) scaled per row."""
    n_dem = int(rng.integers(12, 16))
    n_ss = int(rng.integers(65, 81))
    v = np.zeros((n_dem, n_ss))
    for col in range(n_ss):
        v[rng.choice(n_dem, size=3, replace=False), col] = 1.0
    return v * np.exp(rng.uniform(np.log(0.05), np.log(20), size=(n_dem, 1)))


def test_against_scipy_on_planner_shaped_lps(monkeypatch):
    """Both LP forms the planner builds, at the root and with a prefix of
    counts fixed as the lexicographic refinement fixes them."""
    captured = []

    def recording(c, a, b, lower, upper):
        res = solve_bounded_lp(c, a, b, lower, upper)
        captured.append((c, a, b, lower, upper, res))
        return res

    monkeypatch.setattr(planner, "solve_bounded_lp", recording)
    rng = np.random.default_rng(2024)
    n_slot = 256
    for _ in range(40):
        a = _snapshot_rows(rng)
        n_ss = a.shape[1]
        lb = np.zeros(n_ss)
        ub = np.full(n_ss, float(n_slot))
        t, _ = planner._lp_max_t(a, n_slot, lb, ub)
        k = int(rng.integers(0, n_ss // 2))
        lb[:k] = ub[:k] = rng.choice([0, 0, 0, 1, 2, 5], size=k)
        planner._lp_max_t(a, n_slot, lb, ub)
        step = a.max(axis=1)
        rhs_req = step * np.ceil(rng.uniform(0.85, 1.0) * t / step)
        cost = np.zeros(n_ss)
        cost[k] = 1.0
        planner._lp_over_requirements(a, rhs_req, n_slot, lb, ub, cost)

    assert len(captured) == 120
    assert max(res.pivots for *_, res in captured) > 100
    assert {res.status for *_, res in captured} == {OPTIMAL, INFEASIBLE}
    for lp in captured:
        _assert_matches_highs(*lp)
