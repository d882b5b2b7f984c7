"""Exactness of the planner on mid-size rungs, checked independently.

The 120-beam / 20-cluster / N_P=4 rung (654 snapshots) is re-solved with
scipy's HiGHS MILP on the integer data: snapshot supplies are V * p with V
0/1, so every threshold g is the integer requirement V psi >= k with
k_j = ceil(g * m_j / p_j). The 150/25/3, 150/25/4 and 200/34/4 answers
are pinned, and ``check_answer`` confirms each answer with HiGHS LPs alone
(HiGHS MILP cannot decide the 300/50/4 rung; CI runs the same check on its
plan).
"""
import functools
import hashlib
import math
import warnings
from fractions import Fraction

import numpy as np
import pytest

from clusterhop import cli
from clusterhop.scenariogen import hex_scenario_dict

from conftest import pipeline

MILP_SECONDS = 60.0  # milp's time limit per LP-feasible support position


def _rung(n_beams, n_clusters, n_p):
    """The rung's stages, as the CLI builds them."""
    return pipeline(hex_scenario_dict(n_beams, n_clusters,
                                      system={"N_P": n_p}))


@functools.cache
def _solved(n_beams, n_clusters, n_p):
    """The rung's planner instance and its exact plan, solved once."""
    rung = _rung(n_beams, n_clusters, n_p)
    return rung.instance, rung.plan


def check_answer(instance, psi):
    """Confirm ``psi`` as the instance's lexicographically smallest max-min
    optimal window with scipy's HiGHS, from the integer data alone: a
    demanded row of ``l`` is p_j times a 0/1 row V_j, and the threshold g
    needs V psi >= k(g) with k_j = ceil(g * m_j / p_j).

    - psi is a window: nonnegative integers summing to N_slot; its own
      threshold t is the largest g with V psi >= k(g).
    - The next threshold above t is LP-infeasible, so no window reaches it.
    - At each support position i, k(t) is LP-infeasible with psi fixed
      before i and x_i <= psi_i - 1, so no optimal window is
      lexicographically smaller. An LP-feasible position is decided by
      ``milp`` within ``MILP_SECONDS``.

    A demanded cluster in outage (a zero row) takes p_j = 1, as in the
    planner: nothing offers it a slot, so t = 0, and the smallest window
    puts every slot on the last snapshot. Without a demanded cluster the
    window must be the planner's uniform spread, and t is inf.

    Returns t (a Fraction, or inf) and the positions ``milp`` decided.
    Raises AssertionError when psi fails a check or ``milp`` cannot decide.
    """
    opt = pytest.importorskip("scipy.optimize")
    n_ss, n_slot = instance.l.shape[1], instance.n_slot
    psi = np.asarray(psi)
    assert psi.shape == (n_ss,) and psi.dtype.kind in "iu"
    assert (psi >= 0).all() and psi.sum() == n_slot
    demanded = instance.m > 0
    if not demanded.any():
        base, extra = divmod(n_slot, n_ss)
        assert psi.tolist() == [base + (i < extra) for i in range(n_ss)], (
            "with no demanded cluster psi is not the uniform spread")
        return math.inf, []
    l = np.asarray(instance.l, dtype=float)[demanded]
    v = (l != 0).astype(float)
    p = l.max(axis=1)
    p[p == 0] = 1.0  # a cluster in outage
    assert (l == v * p[:, None]).all()
    spacing = [Fraction(pj) / Fraction(mj)
               for pj, mj in zip(p, instance.m[demanded])]

    def requirement(g):
        return np.array([math.ceil(g / c) for c in spacing], dtype=float)

    def lp_feasible(k, lb, ub):
        res = opt.linprog(np.zeros(n_ss), A_ub=-v, b_ub=-k,
                          A_eq=np.ones((1, n_ss)), b_eq=[n_slot],
                          bounds=np.column_stack([lb, ub]), method="highs")
        assert res.status in (0, 2), res.message
        return res.status == 0

    counts = v.astype(np.int64) @ psi
    t = min(int(count) * c for count, c in zip(counts, spacing))
    assert (counts >= requirement(t)).all()
    g_next = min((t // c + 1) * c for c in spacing)
    lb, ub = np.zeros(n_ss), np.full(n_ss, float(n_slot))
    assert not lp_feasible(requirement(g_next), lb, ub), (
        f"the next threshold {float(g_next)} above t = {float(t)} is feasible")

    k = requirement(t)
    by_milp = []
    for i in np.flatnonzero(psi).tolist():
        lb[:i] = ub[:i] = psi[:i]
        ub[i] = psi[i] - 1
        if lp_feasible(k, lb, ub):
            res = opt.milp(
                np.zeros(n_ss), integrality=np.ones(n_ss),
                bounds=opt.Bounds(lb, ub),
                constraints=[opt.LinearConstraint(v, k, np.inf),
                             opt.LinearConstraint(np.ones((1, n_ss)), n_slot,
                                                  n_slot)],
                options={"time_limit": MILP_SECONDS})
            assert res.status != 0, (
                f"a window lexicographically smaller than psi at position {i} "
                f"reaches t = {float(t)}")
            assert res.status == 2, (
                f"milp left position {i} open: {res.message}")
            by_milp.append(i)
        lb[i], ub[i] = 0.0, float(n_slot)
    return t, by_milp


def check_plan(scenario_bytes, psi_doc):
    """``check_answer`` on a written plan: the instance rebuilt from the
    scenario file's bytes through ``cli.Pipeline``, as ``clusterhop plan``
    builds it, and the count vector of plan.json's ``psi`` object (snapshot
    index -> count, absent indices 0)."""
    instance = cli.Pipeline(scenario_bytes, None, None, "ilp", "").instance
    psi = np.zeros(instance.n_snapshots, dtype=np.int64)
    for index, count in psi_doc.items():
        psi[int(index)] = count
    return check_answer(instance, psi)


def test_highs_confirms_optimum_and_lexicographic_order():
    opt = pytest.importorskip("scipy.optimize")
    rung = _rung(120, 20, 4)
    snaps, instance, plan = rung.snapshots, rung.instance, rung.plan
    p = rung.capacities.p_cluster_bits
    assert snaps.n_snapshots == 654
    psi = np.asarray(plan.psi)
    n_ss, n_slot = snaps.n_snapshots, instance.n_slot

    demanded = instance.m > 0
    v = snaps.v[demanded].astype(int)
    p_dem = p[demanded]
    assert (p_dem > 0).all()
    assert (snaps.l[demanded] == v * p_dem[:, None]).all()
    spacing = [Fraction(pj) / Fraction(mj)
               for pj, mj in zip(p_dem, instance.m[demanded])]

    def requirement(g):
        return np.array([math.ceil(g / c) for c in spacing])

    def min_over_requirement(cost, k, lb, ub):
        return opt.milp(
            cost, integrality=np.ones(n_ss), bounds=opt.Bounds(lb, ub),
            constraints=[opt.LinearConstraint(v, k, np.inf),
                         opt.LinearConstraint(np.ones((1, n_ss)), n_slot,
                                              n_slot)],
            options={"mip_rel_gap": 0})

    t = min(int(count) * c for count, c in zip(v @ psi, spacing))
    assert float(t) == pytest.approx(plan.t, rel=1e-12)
    g_next = min((t // c + 1) * c for c in spacing)
    res = min_over_requirement(np.zeros(n_ss), requirement(g_next), 0, n_slot)
    assert res.status == 2  # infeasible: no plan reaches the next threshold

    k = requirement(t)
    assert psi.sum() == n_slot and (v @ psi >= k).all()
    lb = np.zeros(n_ss)
    ub = np.full(n_ss, float(n_slot))
    for i in np.flatnonzero(psi):
        lb[:i] = ub[:i] = psi[:i]
        cost = np.zeros(n_ss)
        cost[i] = 1.0
        res = min_over_requirement(cost, k, lb, ub)
        assert res.status == 0
        assert round(res.fun) == psi[i], f"psi_{i} can be {res.fun}"


def _pinned(n_p):
    """(t, psi hash) of the 150-beam / 25-cluster rung with this N_P."""
    _, plan = _solved(150, 25, n_p)
    digest = hashlib.sha256(plan.psi.astype(np.int64).tobytes()).hexdigest()
    return plan.t, digest[:12]


def test_150_25_3_answer_is_pinned():
    assert _pinned(3) == (0.35164206871831083, "2776c528dc91")


def test_150_25_4_answer_is_pinned():
    assert _pinned(4) == (0.47141399903518083, "6c2dfb834986")


def test_200_34_4_answer_is_pinned():
    """15,466 snapshots; about 2 s of solve."""
    _, plan = _solved(200, 34, 4)
    digest = hashlib.sha256(plan.psi.astype(np.int64).tobytes()).hexdigest()
    assert (plan.t, digest[:12]) == (0.3056609589732024, "9d8c49230860")


@pytest.mark.parametrize(
    "shape", [(120, 20, 4), (150, 25, 3), (150, 25, 4), (200, 34, 4)],
    ids="{0[0]}-{0[1]}-{0[2]}".format)
def test_highs_lps_confirm_the_answer(shape):
    instance, plan = _solved(*shape)
    t, by_milp = check_answer(instance, plan.psi)
    assert float(t) == pytest.approx(plan.t, rel=1e-12)
    if by_milp:
        warnings.warn(f"{shape}: milp decided the LP-feasible support "
                      f"positions {by_milp}")


def _exchange_reversed(v, psi):
    """psi with one slot each moved from support columns c and d to columns
    i < j with i < min(c, d) and V_i + V_j = V_c + V_d: V psi and so t stay,
    but psi is no longer the lexicographically smallest."""
    column = {col.tobytes(): j for j, col in enumerate(v.T)}
    support = np.flatnonzero(psi).tolist()
    for c in support:
        for d in support:
            if d < c or (d == c and psi[c] < 2):
                continue
            pair = v[:, c] + v[:, d]
            for i in range(min(c, d)):
                j = column.get((pair - v[:, i]).tobytes())
                if j is not None and j > i:
                    out = psi.copy()
                    out[c] -= 1
                    out[d] -= 1
                    out[i] += 1
                    out[j] += 1
                    return out
    raise AssertionError("no exchange to reverse")


def test_check_answer_refutes_doctored_windows():
    instance, plan = _solved(120, 20, 4)
    psi = plan.psi.astype(np.int64)
    demanded = instance.m > 0
    v = (instance.l[demanded] != 0).astype(np.int64)
    ratio = (v @ psi) * instance.l[demanded].max(axis=1) / instance.m[demanded]
    binding = int(np.argmin(ratio))
    # one slot off the binding row, onto a column without it: t drops
    lowered = psi.copy()
    lowered[np.flatnonzero(psi * v[binding])[0]] -= 1
    lowered[np.flatnonzero(v[binding] == 0)[0]] += 1
    with pytest.raises(AssertionError, match="next threshold"):
        check_answer(instance, lowered)
    with pytest.raises(AssertionError, match="lexicographically smaller"):
        check_answer(instance, _exchange_reversed(v, psi))
