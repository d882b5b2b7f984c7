from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhop import metrics
from clusterhop.scenario import scenario_from_dict

from conftest import pipeline, toy_doc


def test_redistribute_equal_demands():
    doc = toy_doc(demands=[1.0, 1.0] + [0.0] * 6)
    sc = scenario_from_dict(doc)
    offered = metrics.redistribute(np.array([10.0, 0, 0, 0]), sc)
    assert offered[0] == pytest.approx(5.0)
    assert offered[1] == pytest.approx(5.0)


def test_redistribute_proportional():
    doc = toy_doc(demands=[1.0, 3.0] + [1.0] * 6)
    sc = scenario_from_dict(doc)
    offered = metrics.redistribute(np.array([8.0, 0, 0, 0]), sc)
    assert offered[0] == pytest.approx(2.0)
    assert offered[1] == pytest.approx(6.0)


def test_redistribute_zero_demand_cluster_split():
    doc = toy_doc(demands=[0.0, 0.0] + [1.0] * 6)
    sc = scenario_from_dict(doc)
    offered = metrics.redistribute(np.array([6.0, 0, 0, 0]), sc)
    assert offered[0] == pytest.approx(3.0)
    assert offered[1] == pytest.approx(3.0)


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=8, max_size=8),
       st.lists(st.floats(min_value=0, max_value=1e10), min_size=4, max_size=4))
@settings(max_examples=60, deadline=None)
def test_redistribute_conserves_cluster_totals(demands, cluster_offered):
    sc = scenario_from_dict(toy_doc(demands=demands))
    offered = metrics.redistribute(np.array(cluster_offered), sc)
    assert (offered >= 0).all()
    for j, members in enumerate(sc.clusters):
        assert offered[list(members)].sum() == pytest.approx(
            cluster_offered[j], rel=1e-12, abs=1e-6)


def test_score_perfect_match(toy_scenario):
    report = metrics.score(toy_scenario.demands.copy(), toy_scenario, "x")
    assert report.unmet_total_bps == 0.0
    assert report.unused_total_bps == 0.0
    assert report.cluster_ratios == pytest.approx(np.ones(4))
    assert report.min_ratio == pytest.approx(1.0)


def test_score_outage(toy_scenario):
    report = metrics.score(np.zeros(8), toy_scenario, "x")
    assert report.unmet_total_bps == pytest.approx(toy_scenario.demands.sum())
    assert report.unused_total_bps == 0.0


def test_score_accounting_identity_exact(toy_scenario):
    rng = np.random.default_rng(0)
    offered = rng.uniform(0, 5e8, size=8)
    report = metrics.score(offered, toy_scenario, "x")
    unused = Fraction(0)
    unmet = Fraction(0)
    net = Fraction(0)
    for o, d in zip(offered, toy_scenario.demands):
        gap = Fraction(float(o)) - Fraction(float(d))
        net += gap
        if gap > 0:
            unused += gap
        else:
            unmet -= gap
    assert unused - unmet == net
    assert report.unused_total_bps - report.unmet_total_bps == pytest.approx(
        float(net), rel=1e-12, abs=1e-6)


def test_score_orders_beams_by_demand(toy_scenario):
    report = metrics.score(np.zeros(8), toy_scenario, "x")
    sorted_demands = toy_scenario.demands[report.beams_by_demand]
    assert (np.diff(sorted_demands) >= 0).all()


def test_beam_csv_sorted(toy_scenario):
    report = metrics.score(toy_scenario.demands * 0.5, toy_scenario, "ch")
    lines = metrics.beam_csv_lines(report)
    assert lines[0] == "beam_id,demand_bps,offered_bps,scheme"
    demands = [float(line.split(",")[1]) for line in lines[1:]]
    assert demands == sorted(demands)


def test_cluster_csv_shape(toy_scenario):
    report = metrics.score(toy_scenario.demands * 0.5, toy_scenario, "ch")
    lines = metrics.cluster_csv_lines(report)
    assert len(lines) == 1 + toy_scenario.n_clusters
    assert lines[1].endswith(",ch")
    assert float(lines[1].split(",")[3]) == pytest.approx(0.5)


def test_summary_dict(toy_scenario):
    report = metrics.score(toy_scenario.demands, toy_scenario, "ch")
    summary = metrics.summary_dict([report])
    assert summary["ch"]["unmet_bps"] == 0.0
    assert summary["ch"]["min_ratio"] == pytest.approx(1.0)


def test_leakage_zero_for_single_cluster(ref_scenario, ref_field):
    from clusterhop.planner import HoppingPlan
    from clusterhop.snapshots import SnapshotSet

    # synthetic snapshot set with one active cluster per column
    v = np.eye(ref_scenario.n_clusters, dtype=np.uint8)
    single = SnapshotSet(v=v, l=v.astype(float))
    plan = HoppingPlan(psi=np.array([2] + [0] * 11), t=1.0,
                       s=np.zeros(12), schedule=np.array([0, 0]),
                       solver_status="optimal")
    leak = metrics.cross_cluster_leakage(ref_scenario, ref_field, single,
                                         plan)[plan.schedule].tolist()
    assert leak == [0.0, 0.0]


def test_leakage_monotone_with_adjacency(ref_scenario, ref_field):
    from clusterhop.planner import HoppingPlan
    from clusterhop.snapshots import SnapshotSet

    a = ref_scenario.adjacency
    adj_pair = next((i, j) for i in range(12) for j in range(12)
                    if i < j and a[i, j])
    far_pair = next((i, j) for i in range(12) for j in range(12)
                    if i < j and not a[i, j])
    v = np.zeros((12, 2), dtype=np.uint8)
    v[list(adj_pair), 0] = 1
    v[list(far_pair), 1] = 1
    snaps = SnapshotSet(v=v, l=v.astype(float))
    plan = HoppingPlan(psi=np.array([1, 1]), t=1.0, s=np.zeros(12),
                       schedule=np.array([0, 1]), solver_status="optimal")
    leak = metrics.cross_cluster_leakage(ref_scenario, ref_field, snaps,
                                         plan)[plan.schedule].tolist()
    assert leak[0] > leak[1]


def test_leakage_finite_on_reference_plan(ref_scenario, ref_field,
                                          ref_snapshots, ref_plan):
    leak = metrics.cross_cluster_leakage(ref_scenario, ref_field,
                                         ref_snapshots, ref_plan)
    leak = leak[ref_plan.schedule].tolist()
    assert len(leak) == ref_scenario.system.n_slot
    assert all(np.isfinite(x) and x >= 0 for x in leak)


def test_plan_beam_offered_totals(ref_scenario, ref_plan):
    offered = metrics.plan_beam_offered(ref_plan, ref_scenario)
    window = ref_scenario.system.hopping_window_s
    assert offered.sum() * window == pytest.approx(ref_plan.s.sum(), rel=1e-9)


def test_uniform_symmetric_ratios_within_quantum():
    """Uniform demands on a fully symmetric ring: the plan's per-cluster
    ratios differ by at most one slot's supply quantum (here: not at all)."""
    import math

    n = 12
    radius = 0.3 / math.sin(math.pi / n)
    doc = toy_doc()
    doc["beams"] = [
        {
            "id": k + 1,
            "u": radius * math.cos(2 * math.pi * k / n),
            "v": radius * math.sin(2 * math.pi * k / n),
            "demand_bps": 6e8,
        }
        for k in range(n)
    ]
    doc["clusters"] = [[k + 1] for k in range(n)]
    del doc["adjacency"]
    doc["system"]["N_P"] = 3
    doc["system"]["N_slot"] = 256
    pipe = pipeline(doc)
    # ring adjacency from geometry
    a = pipe.scenario.adjacency
    assert all(a[k, (k + 1) % n] == 1 for k in range(n))
    assert a.sum() == 2 * n

    m = pipe.instance.m
    ratios = pipe.plan.s / m
    quantum = (pipe.capacities.p_cluster_bits / m).max()
    assert ratios.max() - ratios.min() <= quantum + 1e-12
