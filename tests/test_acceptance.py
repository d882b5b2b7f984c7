"""Acceptance suite: one test per release criterion, each printing a
pass/fail line (run with -s or -v to see them)."""
import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from clusterhop import benchmarks, channel, metrics, precoding
from clusterhop.planner import IlpInstance, solve_illumination
from clusterhop.scenario import aggregate_and_scale_demands, scenario_from_dict
from clusterhop.scenariogen import hex_scenario_dict
from clusterhop.snapshots import build_snapshot_set, enumerate_valid_snapshots

from conftest import (brute_force_plan, brute_force_valid_snapshots,
                      identity_precoder, random_snapshot_supply)


def _report(criterion, message):
    print(f"[PASS] acceptance {criterion}: {message}")


def test_criterion_01_snapshot_enumeration(ref_scenario):
    start = time.perf_counter()
    a = ref_scenario.adjacency
    v = enumerate_valid_snapshots(a, 3)
    adj = a.astype(int)
    for n in range(v.shape[1]):
        col = v[:, n].astype(int)
        assert col.sum() == 3
        assert col @ adj @ col == 0
    expected = brute_force_valid_snapshots(adj, 3)
    got = [tuple(np.flatnonzero(v[:, n])) for n in range(v.shape[1])]
    assert got == expected
    assert len(list(itertools.combinations(range(12), 3))) == 220
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0
    _report(1, f"{v.shape[1]} valid snapshots out of 220 subsets "
               f"verified in {elapsed:.3f}s")


def test_criterion_02_ilp_matches_brute_force():
    start = time.perf_counter()
    rng = np.random.default_rng(2024)
    checked = 0
    while checked < 200:
        n_c = int(rng.integers(1, 5))
        n_ss = int(rng.integers(1, 7))
        n_slot = int(rng.integers(1, 13))
        l = random_snapshot_supply(rng, n_c, n_ss)
        m = rng.integers(0, 9, size=n_c).astype(float)
        if not (m > 0).any():
            continue
        inst = IlpInstance(l=l, m=m, n_slot=n_slot)
        plan = solve_illumination(inst)
        oracle = brute_force_plan(inst)

        def rational_t(psi):
            s = l @ psi
            return min(Fraction(int(round(s[j])), int(round(m[j])))
                       for j in range(n_c) if m[j] > 0)

        assert rational_t(plan.psi) == rational_t(oracle.psi)
        checked += 1
    elapsed = time.perf_counter() - start
    assert elapsed < 30.0
    _report(2, f"{checked} randomized instances matched exactly "
               f"in {elapsed:.1f}s")


def test_criterion_03_sequence_and_count_formulations_agree():
    rng = np.random.default_rng(321)
    for _ in range(15):
        n_c = int(rng.integers(1, 4))
        n_ss = int(rng.integers(1, 5))
        n_slot = int(rng.integers(1, 7))
        l = random_snapshot_supply(rng, n_c, n_ss)
        m = rng.integers(1, 7, size=n_c).astype(float)
        best = None
        for seq in itertools.product(range(n_ss), repeat=n_slot):
            s = l[:, list(seq)].sum(axis=1) if n_slot else np.zeros(n_c)
            t = min(Fraction(int(s[j]), int(m[j])) for j in range(n_c))
            best = t if best is None or t > best else best
        plan = solve_illumination(IlpInstance(l=l, m=m, n_slot=n_slot))
        s = l @ plan.psi
        t_plan = min(Fraction(int(round(s[j])), int(m[j])) for j in range(n_c))
        assert t_plan == best  # tolerance 0
    _report(3, "ordered-sequence search equals count-based optimum on "
               "15 exhaustive instances")


def test_criterion_04_per_feed_power(ref_scenario, ref_channels):
    cfg = ref_scenario.system
    p = cfg.p_t_w / ref_scenario.n_beams
    tau = channel.noise_power_w(cfg)
    for j, h in enumerate(ref_channels):
        w = precoding.mmse_precoder(h, tau, cfg, ref_scenario.n_beams, j)
        per_feed = (abs(w) ** 2).sum(axis=1)
        assert abs(per_feed.max() - p) <= 1e-9 * p
        assert (per_feed <= p * (1 + 1e-9)).all()
    _report(4, f"all {len(ref_channels)} clusters hit the {p:.2f} W "
               "per-feed cap exactly")


def test_criterion_05_snir_sanity(ref_scenario, ref_channels):
    # diagonal channel: SNIR reduces to |HW|^2 / tau
    cfg = ref_scenario.system
    n_b = ref_scenario.n_beams
    h = np.diag([2.0, 3.0, 1.5]).astype(complex)
    prec = precoding.mmse_precoder(h, 0.5, cfg, n_b, 0)
    hw = h @ prec
    expected = np.abs(np.diag(hw)) ** 2 / 0.5
    got = precoding.snir(h, prec, 0.5)
    assert np.abs(got - expected).max() <= 1e-12 * np.abs(expected).max()

    tau = channel.noise_power_w(cfg)
    for j, h in enumerate(ref_channels):
        mmse = precoding.mmse_precoder(h, tau, cfg, n_b, j)
        ident = identity_precoder(h, cfg, n_b)
        assert (precoding.snir(h, mmse, tau).min()
                >= precoding.snir(h, ident, tau).min())
    _report(5, "diagonal-channel identity within 1e-12 and MMSE >= scaled "
               "identity on every cluster")


def test_criterion_06_demand_matching(ref_scenario, ref_caps, ref_instance,
                                      ref_plan):
    demands = ref_scenario.demands
    assert demands.max() / demands.min() >= 4.0
    d, m = aggregate_and_scale_demands(ref_scenario)
    ratios = ref_plan.s / m
    spread = ratios.max() - ratios.min()
    quantum = ref_caps.p_cluster_bits.max() / m.min()
    assert spread <= quantum
    corr = float(np.corrcoef(d, ref_plan.s)[0, 1])
    assert corr >= 0.99
    _report(6, f"ratio spread {spread:.4f} <= one-slot quantum "
               f"{quantum:.4f}; demand/offered correlation {corr:.4f}")


def test_criterion_07_benchmark_flatness(ref_doc, dvbs2):
    permuted = {
        **ref_doc,
        "beams": [
            {**b, "demand_bps": d["demand_bps"]}
            for b, d in zip(ref_doc["beams"], ref_doc["beams"][::-1])
        ],
    }
    sc1 = scenario_from_dict(ref_doc)
    sc2 = scenario_from_dict(permuted)
    f1 = channel.build_beam_field(sc1)
    f2 = channel.build_beam_field(sc2)
    for evaluate in (benchmarks.four_color_evaluate, benchmarks.bh_evaluate):
        r1 = evaluate(sc1, f1, dvbs2)
        r2 = evaluate(sc2, f2, dvbs2)
        assert r1.tobytes() == r2.tobytes()

    def ch_offered(sc):
        chans = channel.build_all_cluster_channels(sc)
        caps = precoding.cluster_capacities(sc, chans, dvbs2)
        snaps = build_snapshot_set(sc.adjacency, sc.system.n_p,
                                   caps.p_cluster_bits)
        _, m = aggregate_and_scale_demands(sc)
        plan = solve_illumination(IlpInstance(l=snaps.l, m=m,
                                              n_slot=sc.system.n_slot))
        return metrics.plan_beam_offered(plan, sc)

    assert ch_offered(sc1).tobytes() != ch_offered(sc2).tobytes()
    _report(7, "benchmark offered vectors byte-stable under demand "
               "permutation; cluster-hopping vector adapts")


def test_criterion_08_accounting_identity(ref_scenario, ref_plan, ref_field,
                                          dvbs2):
    offered_by_scheme = {
        "ch": metrics.plan_beam_offered(ref_plan, ref_scenario),
        "4c_fr": benchmarks.four_color_evaluate(ref_scenario, ref_field,
                                                dvbs2),
        "1c_ffr_bh": benchmarks.bh_evaluate(ref_scenario, ref_field, dvbs2),
    }
    for scheme, offered in offered_by_scheme.items():
        report = metrics.score(offered, ref_scenario, scheme)
        unused = Fraction(0)
        unmet = Fraction(0)
        net = Fraction(0)
        for o, dd in zip(offered, ref_scenario.demands):
            gap = Fraction(float(o)) - Fraction(float(dd))
            net += gap
            if gap > 0:
                unused += gap
            else:
                unmet -= gap
        assert unused - unmet == net  # exact, rational arithmetic
        assert report.unused_total_bps == pytest.approx(float(unused),
                                                        rel=1e-12, abs=1e-6)
        assert report.unmet_total_bps == pytest.approx(float(unmet),
                                                       rel=1e-12, abs=1e-6)
    _report(8, "unused - unmet equals the signed offered-demand sum exactly "
               "for ch, 4c_fr and 1c_ffr_bh")


def test_criterion_09_end_to_end_scale(ref_plan):
    start = time.perf_counter()
    sc = scenario_from_dict(hex_scenario_dict())
    table = precoding.load_dvbs2_table()
    chans = channel.build_all_cluster_channels(sc)
    caps = precoding.cluster_capacities(sc, chans, table)
    snaps = build_snapshot_set(sc.adjacency, sc.system.n_p,
                               caps.p_cluster_bits)
    _, m = aggregate_and_scale_demands(sc)
    instance = IlpInstance(l=snaps.l, m=m, n_slot=sc.system.n_slot)
    plan = solve_illumination(instance)
    elapsed = time.perf_counter() - start
    assert sc.n_beams == 71 and sc.n_clusters == 12
    assert sc.system.n_p == 3 and sc.system.n_slot == 256
    assert plan.psi.sum() == 256
    assert elapsed < 60.0
    # deterministic: an independent solve reproduces the session plan exactly
    assert plan.psi.tolist() == ref_plan.psi.tolist()
    assert plan.t == ref_plan.t
    assert plan.schedule.tolist() == ref_plan.schedule.tolist()
    _report(9, f"71-beam end-to-end plan in {elapsed:.1f}s, "
               "bit-identical across solves")


def test_criterion_10_plan_support_is_small(ref_instance, ref_plan):
    support = int((ref_plan.psi > 0).sum())
    assert 1 <= support <= ref_instance.n_slot
    assert support <= ref_instance.n_snapshots
    _report(10, f"optimal plan uses {support} distinct snapshots of "
                f"{ref_instance.n_snapshots} valid ones over "
                f"{ref_instance.n_slot} slots")
