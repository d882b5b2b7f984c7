"""Exactness of the planner on mid-size rungs, checked independently.

The 120-beam / 20-cluster / N_P=4 rung (654 snapshots) is re-solved with
scipy's HiGHS MILP on the integer data: snapshot supplies are V * p with V
0/1, so every threshold g is the integer requirement V psi >= k with
k_j = ceil(g * m_j / p_j). The 150/25/3, 150/25/4 and 200/34/4 answers
are pinned.
"""
import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest

from clusterhop import channel, precoding
from clusterhop.planner import IlpInstance, solve_illumination
from clusterhop.scenario import aggregate_and_scale_demands, scenario_from_dict
from clusterhop.scenariogen import hex_scenario_dict
from clusterhop.snapshots import build_snapshot_set


def _rung(n_beams, n_clusters, n_p, dvbs2):
    """The rung's snapshot set and its planner instance."""
    scenario = scenario_from_dict(
        hex_scenario_dict(n_beams, n_clusters, system={"N_P": n_p}))
    caps = precoding.cluster_capacities(
        scenario, channel.build_all_cluster_channels(scenario), dvbs2)
    snaps = build_snapshot_set(scenario.adjacency, n_p, caps.p_cluster_bits)
    _, m = aggregate_and_scale_demands(scenario)
    instance = IlpInstance(l=snaps.l, m=m, n_slot=scenario.system.n_slot)
    return snaps, caps.p_cluster_bits, instance


def test_highs_confirms_optimum_and_lexicographic_order(dvbs2):
    opt = pytest.importorskip("scipy.optimize")
    snaps, p, instance = _rung(120, 20, 4, dvbs2)
    assert snaps.n_snapshots == 654
    plan = solve_illumination(instance)
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


def _pinned(n_p, dvbs2):
    """(t, psi hash) of the 150-beam / 25-cluster rung with this N_P."""
    _, _, instance = _rung(150, 25, n_p, dvbs2)
    plan = solve_illumination(instance)
    digest = hashlib.sha256(plan.psi.astype(np.int64).tobytes()).hexdigest()
    return plan.t, digest[:12]


def test_150_25_3_answer_is_pinned(dvbs2):
    assert _pinned(3, dvbs2) == (0.35164206871831083, "2776c528dc91")


def test_150_25_4_answer_is_pinned(dvbs2):
    assert _pinned(4, dvbs2) == (0.47141399903518083, "6c2dfb834986")


def test_200_34_4_answer_is_pinned(dvbs2):
    """15,466 snapshots; about 2 s of solve."""
    _, _, instance = _rung(200, 34, 4, dvbs2)
    plan = solve_illumination(instance)
    digest = hashlib.sha256(plan.psi.astype(np.int64).tobytes()).hexdigest()
    assert (plan.t, digest[:12]) == (0.3056609589732024, "9d8c49230860")
