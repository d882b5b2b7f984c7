import dataclasses
import math
from fractions import Fraction

import numpy as np
import pytest

from clusterhop import channel, planner, precoding, simplex
from clusterhop.errors import CapExceededError, SolverError
from clusterhop.scenario import aggregate_and_scale_demands, scenario_from_dict
from clusterhop.scenariogen import heterogeneous_demands, hex_scenario_dict
from clusterhop.simplex import INFEASIBLE, OPTIMAL, solve_bounded_lp, start
from clusterhop.snapshots import build_snapshot_set

scipy_linprog = pytest.importorskip("scipy.optimize").linprog


_BOX = ([[1.0, 1.0]], [3.0], [0.0, 0.0], [2.0, 2.0])  # x + y = 3 in [0, 2]^2


def _box_start():
    """A primal feasible start of ``_BOX``: y basic, x at its upper bound,
    the point (2, 1)."""
    return dataclasses.replace(start(_BOX[0], [1]),
                               at_upper=np.array([True, False]))


def test_simple_equality_box():
    # min -x - 2y over x + y = 3, 0 <= x <= 2, 0 <= y <= 2 -> (1, 2)
    res = solve_bounded_lp([-1.0, -2.0], *_BOX, warm=_box_start())
    assert res.status == OPTIMAL
    assert res.x == pytest.approx([1.0, 2.0])
    assert np.dot([-1.0, -2.0], res.x) == pytest.approx(-5.0)
    assert res.pivots == 1  # x leaves its upper bound, y reaches its own


def test_unbounded_direction():
    # min -x with x - y = 0 and both unbounded above: no planner LP is
    # unbounded, so the ray is a solver failure
    a = [[1.0, -1.0]]
    with pytest.raises(SolverError, match="unbounded"):
        solve_bounded_lp([-1.0, 0.0], a, [0.0], [0.0, 0.0],
                         [np.inf, np.inf], warm=start(a, [0]))


def test_degenerate_ties_terminate():
    # many identical columns force degenerate pivots; the start has the
    # first column basic at 1 and the next three at their upper bound 1
    a = np.ones((1, 6))
    c = np.array([1, 1, 1, 1, 1, 0.5])
    warm = dataclasses.replace(start(a, [0]), at_upper=np.array(
        [False, True, True, True, False, False]))
    res = solve_bounded_lp(c, a, [4.0], np.zeros(6), np.full(6, 1.0),
                           warm=warm)
    assert res.status == OPTIMAL
    assert c @ res.x == pytest.approx(3.5)


def _random_instance(rng):
    """A random LP with an objective, ``(c, a, b, lower, upper, warm)``:
    ``a = [A | I]``, and ``warm`` the slack basis, primal feasible with
    every column of ``A`` at its lower bound and each slack within its
    bounds. Some columns have no upper bound, so some LPs are unbounded."""
    m = int(rng.integers(1, 6))
    n = int(rng.integers(m, 9)) + m
    a = np.hstack([rng.normal(size=(m, n - m)).round(2), np.eye(m)])
    lower = rng.uniform(-3, 0, size=n).round(2)
    span = rng.uniform(0, 6, size=n).round(2)
    upper = lower + span
    upper[rng.random(n) < 0.25] = np.inf
    slack = lower[-m:] + rng.uniform(0, 1, size=m) * np.where(
        np.isfinite(upper[-m:]), span[-m:], 1.0)
    b = a[:, :-m] @ lower[:-m] + slack
    c = rng.normal(size=n).round(2)
    return c, a, b, lower, upper, start(a, np.arange(n - m, n))


def _highs(c, a, b, lower, upper):
    """HiGHS on the LP; ``c`` None is a feasibility LP."""
    return scipy_linprog(
        np.zeros(len(lower)) if c is None else c, A_eq=a, b_eq=b,
        bounds=[(lo, None if not np.isfinite(up) else up)
                for lo, up in zip(lower, upper)],
        method="highs",
    )


def _assert_matches_highs(c, a, b, lower, upper, res, ref=None):
    """``res`` has HiGHS's status, and an optimum is a point within the
    rows and bounds with HiGHS's objective value (if ``c`` is given)."""
    ref = _highs(c, a, b, lower, upper) if ref is None else ref
    assert res.status == {0: OPTIMAL, 2: INFEASIBLE}.get(ref.status, "other")
    if res.status == OPTIMAL:
        if c is not None:
            assert np.dot(c, res.x) == pytest.approx(ref.fun, rel=1e-6,
                                                     abs=1e-7)
        assert np.abs(a @ res.x - b).max() < 1e-6
        assert (res.x >= lower - 1e-7).all()
        assert (res.x <= upper + 1e-7).all()


def _optimized_against_highs(c, a, b, lower, upper, warm):
    """The LP with objective ``c`` solved from ``warm``, checked against
    HiGHS; an LP that HiGHS finds unbounded must be a SolverError, and
    gives None."""
    ref = _highs(c, a, b, lower, upper)
    if ref.status == 3:
        with pytest.raises(SolverError, match="unbounded"):
            solve_bounded_lp(c, a, b, lower, upper, warm=warm)
        return None
    res = solve_bounded_lp(c, a, b, lower, upper, warm=warm)
    _assert_matches_highs(c, a, b, lower, upper, res, ref)
    assert res.warm is None  # a solve with an objective gives no restart
    return res


def test_against_scipy_reference():
    rng = np.random.default_rng(1234)
    results = [_optimized_against_highs(*_random_instance(rng))
               for _ in range(200)]
    assert {None if res is None else res.status for res in results} == {
        OPTIMAL, None}


def test_iteration_limit_is_cap_exceeded(monkeypatch):
    monkeypatch.setattr(simplex, "_ITERATION_LIMIT", 1)
    with pytest.raises(CapExceededError, match="iteration limit"):
        solve_bounded_lp([-1.0, -2.0], *_BOX, warm=_box_start())


def test_singular_basis_is_solver_error(monkeypatch):
    def singular(_):
        raise np.linalg.LinAlgError("Singular matrix")

    monkeypatch.setattr(np.linalg, "inv", singular)
    with pytest.raises(SolverError, match="singular"):
        solve_bounded_lp([-1.0, -2.0], *_BOX, warm=start(_BOX[0], [1]))


def _snapshot_rows(rng, n_dem=None, n_ss=None):
    """Supply rows shaped like the planner's: 0/1 snapshot membership V
    (each snapshot lights 3 clusters) and each row's spacing, from 0.05 to
    20, with 12 to 15 rows and 65 to 80 columns unless given."""
    n_dem = int(rng.integers(12, 16)) if n_dem is None else n_dem
    n_ss = int(rng.integers(65, 81)) if n_ss is None else n_ss
    v = np.zeros((n_dem, n_ss))
    for col in range(n_ss):
        v[rng.choice(n_dem, size=3, replace=False), col] = 1.0
    scale = np.exp(rng.uniform(np.log(0.05), np.log(20), size=n_dem))
    return v, [Fraction(c) for c in scale.tolist()]


def _requirement(spacing, g):
    """The integer requirement k_j = ceil(g / spacing_j) of threshold g."""
    return np.array([math.ceil(g / c) for c in spacing], dtype=float)


def _assert_dual_feasible(a, lower, upper, warm):
    """The restart point is over the LP's own matrix, without artificial
    columns, and every movable nonbasic column rests at the bound its
    reduced cost under the restart cost points to."""
    assert np.array_equal(warm.a, a)
    y = np.linalg.solve(warm.a[:, warm.basis].T, warm.cost[warm.basis])
    reduced = warm.cost - y @ warm.a
    movable = np.asarray(upper) - np.asarray(lower) > 1e-9
    movable[warm.basis] = False
    assert (reduced[movable & ~warm.at_upper] >= -1e-7).all()
    assert (reduced[movable & warm.at_upper] <= 1e-7).all()


def _witness_start(a):
    """The restart point a requirement chain starts from, over the matrix
    ``a = [[v, -I], [1, 0]]`` of ``planner._requirement_rows(v)``: the
    basis of the trivial witness, each requirement row's surplus column
    and, for the budget row, the last count column."""
    n_rows, n_cols = np.shape(a)
    n_ss = n_cols - n_rows + 1
    return start(a, np.append(np.arange(n_ss, n_cols), n_ss - 1))


def _over_requirements(rows, req, n_slot, lb, ub, warm=None):
    """The feasibility LP a @ psi >= req, sum(psi) = n_slot,
    lb <= psi <= ub over ``rows = planner._requirement_rows(a)``, solved
    through ``planner.solve_bounded_lp`` from ``warm``, or from the trivial
    witness's basis as the planner's chain starts: (psi or None, restart
    point)."""
    n_dem, n_ss = len(req), len(lb)
    rhs = np.append(req, float(n_slot))
    lower = np.concatenate([lb, np.zeros(n_dem)])
    upper = np.concatenate([ub, np.full(n_dem, np.inf)])
    if warm is None:
        warm = _witness_start(rows)
    res = planner.solve_bounded_lp(None, rows, rhs, lower, upper, warm=warm)
    return (None if res.x is None else res.x[:n_ss]), res.warm


def test_against_scipy_on_planner_shaped_lps(monkeypatch):
    """Both LP forms the planner builds: the root LP, with its objective,
    and the requirement LP with a prefix of counts fixed as the lexicographic
    refinement fixes them, started at the trivial witness's basis; and LPs
    that restart from an earlier result: branch-and-bound children after a
    bound change, the next lexicographic position after one more count is
    fixed, and a changed right-hand side."""
    captured = []

    def recording(c, a, b, lower, upper, warm=None):
        res = solve_bounded_lp(c, a, b, lower, upper, warm=warm)
        captured.append(((c, a, b, lower, upper, res), warm))
        return res

    monkeypatch.setattr(planner, "solve_bounded_lp", recording)
    rng = np.random.default_rng(2024)
    n_slot = 256
    for _ in range(40):
        v, spacing = _snapshot_rows(rng)
        n_ss = v.shape[1]
        lb = np.zeros(n_ss)
        ub = np.full(n_ss, float(n_slot))
        t = planner._root_lp(v, spacing, n_slot)
        rows = planner._requirement_rows(v)
        k = int(rng.integers(0, n_ss // 2))
        lb[:k] = ub[:k] = rng.choice([0, 0, 0, 1, 2, 5], size=k)
        req = _requirement(spacing, rng.uniform(0.85, 1.0) * t)
        psi, warm = _over_requirements(rows, req, n_slot, lb, ub)
        # branch on one free count, both children from the parent's basis
        j = int(rng.integers(k, n_ss))
        split = (math.floor(psi[j]) if psi is not None
                 else int(rng.integers(0, 3)))
        ub_down = ub.copy()
        ub_down[j] = split
        lb_up = lb.copy()
        lb_up[j] = split + 1
        _over_requirements(rows, req, n_slot, lb, ub_down, warm)
        _over_requirements(rows, req, n_slot, lb_up, ub, warm)
        # fix position k, then raise or lower every requirement, each from
        # the last basis
        lb[k] = ub[k] = float(psi[k].round()) if psi is not None else 0.0
        _, warm = _over_requirements(rows, req, n_slot, lb, ub, warm)
        req = _requirement(spacing, rng.uniform(0.8, 1.05) * t)
        _over_requirements(rows, req, n_slot, lb, ub, warm)

    assert len(captured) == 240
    results = {id(lp[-1].warm) for lp, _ in captured
               if lp[-1].warm is not None}
    root = [lp for lp, _ in captured if lp[0] is not None]
    started = [lp for lp, warm in captured
               if lp[0] is None and id(warm) not in results]
    warm = [lp for lp, warm in captured if id(warm) in results]
    assert (len(root), len(started), len(warm)) == (40, 40, 160)
    # over 12 to 16 rows: every basis position changes about twice
    assert max(lp[-1].pivots for lp in root) > 30
    assert {lp[-1].status for lp in root} == {OPTIMAL}
    for group in (started, warm):
        assert {lp[-1].status for lp in group} == {OPTIMAL, INFEASIBLE}
    for lp, _ in captured:
        _assert_matches_highs(*lp)
        c, a, b, lower, upper, res = lp
        if c is not None:
            assert res.warm is None
        else:
            _assert_dual_feasible(a, lower, upper, res.warm)


def _requirement_lp(rng, n_slot=256, **shape):
    """One requirement LP, in ``_over_requirements`` form, over
    ``_snapshot_rows(rng, **shape)``: (a, b, lower, upper, number of
    counts)."""
    v, spacing = _snapshot_rows(rng, **shape)
    n_dem, n_ss = v.shape
    t = planner._root_lp(v, spacing, n_slot)
    req = _requirement(spacing, rng.uniform(0.8, 1.0) * t)
    a = np.zeros((n_dem + 1, n_ss + n_dem))
    a[:n_dem, :n_ss] = v
    a[:n_dem, n_ss:] = -np.eye(n_dem)
    a[n_dem, :n_ss] = 1.0
    b = np.append(req, n_slot)
    lower = np.zeros(n_ss + n_dem)
    upper = np.concatenate([np.full(n_ss, float(n_slot)),
                            np.full(n_dem, np.inf)])
    return a, b, lower, upper, n_ss


def test_warm_resolve_after_bound_change_matches_cold():
    """A feasibility LP restarted from its parent's basis after a bound
    change has the status of the same LP started over at the trivial
    witness's basis and of HiGHS, and a feasible point, in under a third
    of the started-over solves' pivots."""
    rng = np.random.default_rng(77)
    statuses = set()
    warm_pivots = anew_pivots = 0
    for _ in range(30):
        a, b, lower, upper, n_ss = _requirement_lp(rng)
        parent = solve_bounded_lp(None, a, b, lower, upper,
                                  warm=_witness_start(a))
        assert parent.status == OPTIMAL
        j = int(rng.integers(0, n_ss))
        lower, upper = lower.copy(), upper.copy()
        if rng.random() < 0.5:
            upper[j] = math.floor(parent.x[j] - 1.0) if parent.x[j] >= 1 else 0
        else:
            lower[j] = math.floor(parent.x[j]) + float(rng.choice([1, 60]))
        anew = solve_bounded_lp(None, a, b, lower, upper,
                                warm=_witness_start(a))
        warm = solve_bounded_lp(None, a, b, lower, upper, warm=parent.warm)
        assert warm.status == anew.status
        _assert_matches_highs(None, a, b, lower, upper, warm)
        _assert_dual_feasible(a, lower, upper, warm.warm)
        statuses.add(anew.status)
        warm_pivots += warm.pivots
        anew_pivots += anew.pivots
    assert statuses == {OPTIMAL, INFEASIBLE}
    assert warm_pivots < anew_pivots / 3


def test_warm_start_from_infeasible_result():
    # the dual loop, started with x basic, proves x + y = 10 infeasible in
    # the box; the next LP of the chain widens the box and restarts from
    # that basis
    a, b = [[1.0, 1.0]], [10.0]
    res = solve_bounded_lp(None, a, b, [0.0, 0.0], [2.0, 2.0],
                           warm=start(a, [0]))
    assert res.status == INFEASIBLE and res.warm is not None
    again = solve_bounded_lp(None, a, b, [0.0, 0.0], [4.0, 2.0],
                             warm=res.warm)
    assert again.status == INFEASIBLE
    wide = solve_bounded_lp(None, a, b, [0.0, 0.0], [9.0, 9.0],
                            warm=again.warm)
    assert wide.status == OPTIMAL
    assert wide.x == pytest.approx([9.0, 1.0])


def test_warm_start_without_dual_feasible_basis_is_solver_error():
    # x basic and y at its upper bound, where its reduced cost (-1) under
    # the restart cost holds it; y then loses its upper bound
    a = [[1.0, 1.0]]
    warm = dataclasses.replace(start(a, [0]), at_upper=np.array([False, True]),
                               cost=np.array([-1.0, -2.0]))
    res = solve_bounded_lp(None, a, [3.0], [0.0, 0.0], [2.0, 2.0], warm=warm)
    assert res.x == pytest.approx([1.0, 2.0])  # y rests at its upper bound
    with pytest.raises(SolverError, match="dual feasible"):
        solve_bounded_lp(None, a, [3.0], [0.0, 0.0], [2.0, np.inf], warm=warm)


def _exact_instance(doc):
    """The planner's instance for a scenario document, as the CLI builds
    it."""
    scenario = scenario_from_dict(doc)
    caps = precoding.cluster_capacities(
        scenario, channel.build_all_cluster_channels(scenario),
        precoding.load_dvbs2_table())
    snaps = build_snapshot_set(scenario.adjacency, scenario.system.n_p,
                               caps.p_cluster_bits)
    _, m = aggregate_and_scale_demands(scenario)
    return planner.IlpInstance(l=snaps.l, m=m, n_slot=scenario.system.n_slot)


def _solver_mid_seed_1():
    """The first scenario of the benchmark's seed-1 ``solver_mid`` list:
    76 beams, 13 clusters, N_P = 3, heterogeneous demands."""
    demands = heterogeneous_demands(76, np.random.default_rng(1))
    return hex_scenario_dict(76, 13, system={"N_P": 3, "N_slot": 256,
                                             "seed": 1}, demands=demands)


@pytest.mark.parametrize("doc", [hex_scenario_dict(), _solver_mid_seed_1()],
                         ids=["ref_71beam", "solver_mid_seed_1"])
def test_carried_inverse_replays_every_warm_lp(monkeypatch, doc):
    """Every restart point carries the basis inverse of the LP's last,
    fresh inversion, after a dual-loop infeasibility too. Every warm LP of
    an exact solve, replayed from a copy of its restart point whose inverse
    is recomputed from the basis columns, takes the same pivots to the same
    bits."""
    captured = []

    def recording(c, a, b, lower, upper, warm=None):
        res = solve_bounded_lp(c, a, b, lower, upper, warm=warm)
        captured.append(((c, a, b, lower, upper), warm, res))
        return res

    monkeypatch.setattr(planner, "solve_bounded_lp", recording)
    planner.solve_illumination(_exact_instance(doc))
    warm_lps = [lp for lp in captured if lp[1] is not None]
    assert len(warm_lps) > 10
    carried = [warm.binv is not None for _, warm, _ in warm_lps]
    assert all(carried)
    dual_infeasible = {id(res.warm) for _, warm, res in warm_lps
                       if res.status == INFEASIBLE}
    assert any(id(warm) in dual_infeasible for _, warm, _ in warm_lps)
    for args, warm, res in warm_lps:
        binv = np.linalg.inv(warm.a[:, warm.basis])
        assert binv.tobytes() == warm.binv.tobytes()
        again = solve_bounded_lp(*args,
                                 warm=dataclasses.replace(warm, binv=binv))
        assert (again.status, again.pivots) == (res.status, res.pivots)
        assert (again.x is None) == (res.x is None)
        if res.x is not None:
            assert again.x.tobytes() == res.x.tobytes()


@pytest.mark.parametrize("doc", [hex_scenario_dict(), _solver_mid_seed_1()],
                         ids=["ref_71beam", "solver_mid_seed_1"])
def test_only_the_root_lp_is_solved_cold(monkeypatch, doc):
    """An exact solve has one LP with an objective, the root LP, and its
    result carries no restart point. Both the root LP and the requirement
    chain start at the trivial witness's basis, under the zero cost, and
    every restart point after it is over the chain's own matrix."""
    captured = []

    def recording(c, a, b, lower, upper, warm=None):
        res = solve_bounded_lp(c, a, b, lower, upper, warm=warm)
        captured.append((c, a, warm, res))
        return res

    monkeypatch.setattr(planner, "solve_bounded_lp", recording)
    instance = _exact_instance(doc)
    planner.solve_illumination(instance)
    n_dem, n_ss = instance.v.shape
    assert [c is not None for c, *_ in captured] == (
        [True] + [False] * (len(captured) - 1))
    _, root_matrix, root_start, root = captured[0]
    assert root_matrix.shape == (n_dem + 1, n_ss + 1 + n_dem)  # the t column
    assert root_start.basis.tolist() == (
        list(range(n_ss + 1, n_ss + 1 + n_dem)) + [n_ss - 1])
    assert not root_start.at_upper.any()
    assert root.warm is None
    captured = [lp[1:] for lp in captured]
    rows, first, _ = captured[1]
    assert first.basis.tolist() == list(range(n_ss, n_ss + n_dem)) + [n_ss - 1]
    assert not first.at_upper.any() and not first.cost.any()
    for a, warm, res in captured[1:]:
        assert a is rows and warm.a is rows and res.warm.a is rows


def test_both_children_share_one_restart_point():
    """Branch-and-bound solves both children from their parent's restart
    point: the down child then the up child gives byte-identical results
    to the opposite order, and the restart point is unchanged after."""
    rng = np.random.default_rng(31)
    statuses = set()
    for _ in range(20):
        a, b, lower, upper, n_ss = _requirement_lp(rng)
        parent = solve_bounded_lp(None, a, b, lower, upper,
                                  warm=_witness_start(a))
        assert parent.status == OPTIMAL and parent.warm.binv is not None
        before = [f.tobytes() for f in dataclasses.astuple(parent.warm)]
        j = int(np.argmax(np.abs(parent.x[:n_ss] - parent.x[:n_ss].round())))
        split = max(math.floor(parent.x[j]), 0)
        ub_down = upper.copy()
        ub_down[j] = split
        lb_up = lower.copy()
        lb_up[j] = min(split + float(rng.choice([1, 60])), upper[j])
        children = [(None, a, b, lower, ub_down), (None, a, b, lb_up, upper)]
        runs = []
        for order in (children, children[::-1]):
            results = [solve_bounded_lp(*lp, warm=parent.warm) for lp in order]
            runs.append([(r.status, r.pivots,
                          None if r.x is None else r.x.tobytes(),
                          r.warm.basis.tobytes(), r.warm.at_upper.tobytes())
                         for r in results])
            statuses.update(r.status for r in results)
        assert runs[0] == runs[1][::-1]
        assert [f.tobytes() for f in dataclasses.astuple(parent.warm)] == before
    assert statuses == {OPTIMAL, INFEASIBLE}


def test_warm_start_with_another_matrix_is_value_error():
    res = solve_bounded_lp(None, [[1.0, 1.0]], [3.0], [0.0, 0.0], [2.0, 2.0],
                           warm=start([[1.0, 1.0]], [0]))
    for a in ([[1.0, 2.0]], [[1.0, 1.0, 0.0]]):
        n = len(a[0])
        with pytest.raises(ValueError, match="own matrix"):
            solve_bounded_lp(None, a, [3.0], [0.0] * n, [2.0] * n,
                             warm=res.warm)
    # an equal matrix in a new array is the same matrix
    again = solve_bounded_lp(None, [[1.0, 1.0]], [3.0], [0.0, 0.0],
                             [2.0, 2.0], warm=res.warm)
    assert again.status == OPTIMAL and again.pivots == 0


def test_a_cost_needs_a_primal_feasible_start():
    """With a cost the primal loop runs from the start's basis, which must
    be primal feasible: x basic at 3, above its bound 2, is a SolverError.
    Without one, the dual feasibility LP repairs the same start."""
    with pytest.raises(SolverError, match="not primal feasible"):
        solve_bounded_lp([-1.0, -2.0], *_BOX, warm=start(_BOX[0], [0]))
    res = solve_bounded_lp(None, *_BOX, warm=start(_BOX[0], [0]))
    assert res.status == OPTIMAL and res.pivots == 1
    assert res.x == pytest.approx([2.0, 1.0])


def test_warm_chain_of_a_dual_degenerate_solve(monkeypatch):
    """Every LP of an exact solve on a 120-beam / 20-cluster / N_P = 4
    scenario, whose feasibility LPs leave the dual loop on long
    runs of zero-length steps: each warm re-solve agrees with HiGHS and
    costs at most a few root LPs' pivots."""
    captured = []

    def recording(c, a, b, lower, upper, warm=None):
        res = solve_bounded_lp(c, a, b, lower, upper, warm=warm)
        captured.append(((c, a, b, lower, upper, res), c is None))
        return res

    stalls = []
    perturbed = simplex._Lp._perturbed

    def counting(self, *args):
        stalls.append(1)
        return perturbed(self, *args)

    instance = _exact_instance(hex_scenario_dict(120, 20, system={"N_P": 4}))
    monkeypatch.setattr(planner, "solve_bounded_lp", recording)
    monkeypatch.setattr(simplex._Lp, "_perturbed", counting)
    planner.solve_illumination(instance)

    assert stalls
    root = max(lp[-1].pivots for lp, warm in captured if not warm)
    assert max(lp[-1].pivots for lp, warm in captured if warm) <= 4 * root
    for lp, _ in captured:
        _assert_matches_highs(*lp)


def test_drift_shift_keeps_every_restart_point_dual_feasible(monkeypatch):
    """Every LP of the exact solve on a 120-beam / 20-cluster / N_P = 4
    scenario: reduced costs carried from pivot to pivot drift, and the dual
    loop shifts the cost of each nonbasic column whose reduced cost drifts
    to the wrong sign. The shift fires, every restart point is dual
    feasible under its cost, and every result agrees with HiGHS. A
    feasible LP's restart point has the zero cost, and an infeasible one's
    the cost its dual loop ended on, nonzero on some."""
    captured = []

    def recording(c, a, b, lower, upper, warm=None):
        res = solve_bounded_lp(c, a, b, lower, upper, warm=warm)
        captured.append((c, a, b, lower, upper, res))
        return res

    shifts, ended = [], []
    absorb = simplex._Lp._absorb_drift
    dual_iterate = simplex._Lp._dual_iterate

    def counting(self, cost, reduced, direction):
        shifted = absorb(self, cost, reduced, direction)
        shifts.append(shifted is not cost)
        return shifted

    def ending(self, *args):
        status, cost = dual_iterate(self, *args)
        ended.append(cost)
        return status, cost

    monkeypatch.setattr(planner, "solve_bounded_lp", recording)
    monkeypatch.setattr(simplex._Lp, "_absorb_drift", counting)
    monkeypatch.setattr(simplex._Lp, "_dual_iterate", ending)
    planner.solve_illumination(
        _exact_instance(hex_scenario_dict(120, 20, system={"N_P": 4})))
    assert any(shifts)
    assert len(ended) == len(captured) - 1  # one dual loop per warm LP
    for i, (c, a, b, lower, upper, res) in enumerate(captured):
        _assert_matches_highs(c, a, b, lower, upper, res)
        if i:  # the root LP, with its objective, gives no restart point
            _assert_dual_feasible(a, lower, upper, res.warm)
            if res.status == OPTIMAL:
                assert not res.warm.cost.any()
            else:
                assert res.warm.cost is ended[i - 1]
    assert any(res.status == INFEASIBLE and res.warm.cost.any()
               for *_, res in captured)


@pytest.mark.parametrize("interval", [1, 10**9])
def test_answers_do_not_depend_on_the_refactor_interval(monkeypatch,
                                                        interval):
    """The basic values and reduced costs carried from pivot to pivot give
    the same answers whether the basis inverse is recomputed after every
    basis change or never within a loop: seeded random LPs with an
    objective, solved from their slack basis, and chains of planner-shaped feasibility LPs that restart from the
    previous basis after a bound or right-hand-side change. Every result
    agrees with HiGHS and every restart point is dual feasible."""
    monkeypatch.setattr(simplex, "_REFACTOR_INTERVAL", interval)
    stalls = []
    perturbed = simplex._Lp._perturbed

    def counting(self, *args):
        stalls.append(1)
        return perturbed(self, *args)

    monkeypatch.setattr(simplex._Lp, "_perturbed", counting)

    def check(a, b, lower, upper, warm):
        res = solve_bounded_lp(None, a, b, lower, upper, warm=warm)
        _assert_matches_highs(None, a, b, lower, upper, res)
        _assert_dual_feasible(a, lower, upper, res.warm)
        return res

    rng = np.random.default_rng(1234)
    for _ in range(200):
        _optimized_against_highs(*_random_instance(rng))

    rng = np.random.default_rng(5)
    statuses = set()
    for _ in range(20):
        a, b, lower, upper, n_ss = _requirement_lp(rng)
        parent = check(a, b, lower, upper, _witness_start(a))
        if parent.status != OPTIMAL:
            continue
        j = int(rng.integers(0, n_ss))
        ub_down = upper.copy()
        ub_down[j] = math.floor(parent.x[j]) if parent.x[j] >= 1 else 0.0
        lb_up = lower.copy()
        lb_up[j] = math.floor(parent.x[j]) + 1.0
        last = check(a, b, lower, ub_down, parent.warm)
        check(a, b, lb_up, upper, parent.warm)
        # then every requirement moved, from the down child's basis
        b_moved = b.copy()
        b_moved[:-1] *= rng.uniform(0.9, 1.2, size=b.size - 1)
        statuses.add(check(a, b_moved, lower, ub_down, last.warm).status)
    assert statuses == {OPTIMAL, INFEASIBLE}

    # feasibility chains on 30 rows, as the planner's searches run them: each
    # LP restarts from the last and caps at zero every count the last
    # solution used, until one is infeasible; the dual steps all have
    # length zero
    for _ in range(3):
        a, b, lower, upper, n_ss = _requirement_lp(rng, n_dem=30, n_ss=150)
        res = check(a, b, lower, upper, _witness_start(a))
        upper = upper.copy()
        while res.status == OPTIMAL:
            upper[:n_ss][res.x[:n_ss] > 0.5] = 0.0
            res = check(a, b, lower, upper, res.warm)
    assert stalls  # the cost shift, after which the state is recomputed


def _result_bytes(res):
    """An LP result as bytes: status, pivots, the point and the restart
    point."""
    restart = () if res.warm is None else tuple(
        f.tobytes() for f in (res.warm.basis, res.warm.at_upper,
                              res.warm.cost, res.warm.binv))
    return (res.status, res.pivots,
            None if res.x is None else res.x.tobytes(), restart)


def _with_steps(monkeypatch, solve):
    """What ``solve()`` returns, and each basis change it makes: the
    leaving row, the entering column, and as bytes the basis inverse
    before the change and B^-1 a_enter, whose leaving-row entry is the
    priced pivot element."""
    steps = []
    pivot = simplex._Lp._pivot

    def recording(self, basis, at_upper, leave_pos, enter, to_upper, w):
        steps.append((leave_pos, enter, self.binv.tobytes(), w.tobytes()))
        return pivot(self, basis, at_upper, leave_pos, enter, to_upper, w)

    with monkeypatch.context() as patched:
        patched.setattr(simplex._Lp, "_pivot", recording)
        return solve(), steps


def _lp_results(monkeypatch, instance):
    """Every LP result of an exact solve, in order, as bytes."""
    results = []

    def recording(c, a, b, lower, upper, warm=None):
        res = solve_bounded_lp(c, a, b, lower, upper, warm=warm)
        results.append(_result_bytes(res))
        return res

    with monkeypatch.context() as patched:
        patched.setattr(planner, "solve_bounded_lp", recording)
        planner.solve_illumination(instance)
    return results


@pytest.mark.parametrize("doc", [hex_scenario_dict(),
                                 hex_scenario_dict(120, 20,
                                                   system={"N_P": 4})],
                         ids=["ref_71beam", "120_20_4"])
def test_zero_cost_step_and_price_chunks_change_nothing(monkeypatch, doc):
    """Under the zero cost every ratio is 0, so the dual step enters the
    first eligible column and prices its row only up to the chunk holding
    it. On every zero-cost dual pivot of an exact solve, that column is
    the full ratio test's choice over the whole priced row, and the pivot
    element has the full row's bits. Pricing in 8-column chunks gives
    every LP result and every basis change byte for byte as the default
    chunks do."""
    instance = _exact_instance(doc)
    checked = []
    zero = [False]
    dual_iterate, pivot = simplex._Lp._dual_iterate, simplex._Lp._pivot
    perturbed = simplex._Lp._perturbed

    def dual(self, cost, *args):
        zero[0] = not cost.any()
        try:
            return dual_iterate(self, cost, *args)
        finally:
            zero[0] = False

    def shifted(self, *args):
        zero[0] = False
        return perturbed(self, *args)

    def pivoting(self, basis, at_upper, leave_pos, enter, to_upper, w):
        if zero[0]:  # the whole row and the full ratio test, as before
            sigma = 1.0 if to_upper else -1.0
            alpha = sigma * (self.binv[leave_pos] @ self.a)
            direction = np.where(at_upper, -1.0, 1.0) * (
                self.upper - self.lower > simplex._TOL)
            direction[basis] = 0.0
            eligible = np.flatnonzero(direction * alpha > simplex._TOL)
            ratios = np.maximum(np.zeros(eligible.size) / alpha[eligible],
                                0.0)
            choice = eligible[np.flatnonzero(
                ratios <= ratios.min() + simplex._TOL)[0]]
            assert enter == choice
            assert w[leave_pos] == sigma * alpha[enter]
            checked.append(self.n)
        return pivot(self, basis, at_upper, leave_pos, enter, to_upper, w)

    def solve():
        return _lp_results(monkeypatch, instance)

    with monkeypatch.context() as patched:
        patched.setattr(simplex._Lp, "_dual_iterate", dual)
        patched.setattr(simplex._Lp, "_perturbed", shifted)
        patched.setattr(simplex._Lp, "_pivot", pivoting)
        default = _with_steps(monkeypatch, solve)
    assert checked and min(checked) > 8
    monkeypatch.setattr(simplex, "_PRICE_CHUNK", 8)
    assert _with_steps(monkeypatch, solve) == default


def test_price_chunks_leave_no_remainder_out(monkeypatch):
    """Zero-cost dual steps over 24 to 32 dense columns, every remainder
    modulo an 8-column chunk, one column included, where only the last
    column may enter first: 8-column chunks give every result and every
    basis change byte for byte as the default chunks do."""
    def results():
        rng = np.random.default_rng(8)
        out = []
        for n in range(24, 33):
            for _ in range(5):
                a = rng.normal(size=(20, n))
                # the basis 0..19 is infeasible at x_last = 0 and feasible
                # once the last column, the only movable one, enters
                b = a[:, :20] @ rng.uniform(0.1, 1.0, 20) + a[:, -1]
                upper = np.zeros(n)
                upper[:20] = upper[-1] = np.inf
                res = solve_bounded_lp(None, a, b, np.zeros(n), upper,
                                       warm=start(a, np.arange(20)))
                out.append(_result_bytes(res))
        return out

    default = _with_steps(monkeypatch, results)
    assert {status for status, *_ in default[0]} == {OPTIMAL}
    assert {enter for _, enter, *_ in default[1]} >= set(range(23, 32))
    monkeypatch.setattr(simplex, "_PRICE_CHUNK", 8)
    assert _with_steps(monkeypatch, results) == default
