import math

import numpy as np
import pytest

from clusterhop import benchmarks, channel, precoding
from clusterhop.scenario import (beam_adjacency, center_distances,
                                 scenario_from_dict)

from conftest import toy_doc


def _permuted_demands(doc):
    beams = [dict(b) for b in doc["beams"]]
    demands = [b["demand_bps"] for b in beams]
    for b, d in zip(beams, demands[::-1]):
        b["demand_bps"] = d
    return {**doc, "beams": beams}


def test_four_color_proper_on_reference(ref_scenario, ref_field, dvbs2):
    offered = benchmarks.four_color_evaluate(ref_scenario, ref_field, dvbs2)
    adj = beam_adjacency(center_distances(ref_scenario.centers))
    colors = benchmarks._greedy_coloring(adj, 4)
    for i in range(ref_scenario.n_beams):
        for j in range(i + 1, ref_scenario.n_beams):
            if adj[i, j]:
                assert colors[i] != colors[j]
    assert (offered >= 0).all()
    assert offered.shape == (ref_scenario.n_beams,)


def test_four_color_demand_independent(ref_doc, dvbs2):
    sc1 = scenario_from_dict(ref_doc)
    sc2 = scenario_from_dict(_permuted_demands(ref_doc))
    f1 = channel.build_beam_field(sc1)
    f2 = channel.build_beam_field(sc2)
    r1 = benchmarks.four_color_evaluate(sc1, f1, dvbs2)
    r2 = benchmarks.four_color_evaluate(sc2, f2, dvbs2)
    assert (r1 == r2).all()


def test_four_color_isolated_beam(dvbs2):
    doc = toy_doc()
    doc["beams"] = [doc["beams"][0]]
    doc["beams"][0]["demand_bps"] = 1e8
    doc["clusters"] = [[1]]
    doc["adjacency"] = [[0]]
    doc["system"]["N_P"] = 1
    sc = scenario_from_dict(doc)
    field = channel.build_beam_field(sc)
    offered = benchmarks.four_color_evaluate(sc, field, dvbs2)
    cfg = sc.system
    p = cfg.p_t_w / sc.n_beams
    snr = p * field[0, 0] ** 2 / channel.noise_power_w(cfg, cfg.b_w_hz / 2)
    se = precoding.dvbs2_efficiency(float(snr), dvbs2)
    expected = se * (cfg.b_w_hz / 2) / (1 + cfg.rolloff)
    assert offered[0] == pytest.approx(expected)


def test_bh_groups_non_adjacent(ref_scenario):
    adj = beam_adjacency(center_distances(ref_scenario.centers))
    for group in benchmarks._spread_grouping(ref_scenario.centers, adj, 4):
        for i in group:
            for j in group:
                if i != j:
                    assert adj[i, j] == 0


def test_bh_dwell_covers_every_beam(ref_scenario):
    groups = benchmarks._spread_grouping(ref_scenario.centers,
                                         ref_scenario.beam_adjacency, 4)
    assert len(groups) == 4
    seen = sorted(b for g in groups for b in g)
    assert seen == list(range(ref_scenario.n_beams))


def test_bh_demand_independent(ref_doc, dvbs2):
    sc1 = scenario_from_dict(ref_doc)
    sc2 = scenario_from_dict(_permuted_demands(ref_doc))
    f1 = channel.build_beam_field(sc1)
    f2 = channel.build_beam_field(sc2)
    r1 = benchmarks.bh_evaluate(sc1, f1, dvbs2)
    r2 = benchmarks.bh_evaluate(sc2, f2, dvbs2)
    assert (r1 == r2).all()


def test_bh_uniform_demands_flat_interior(ref_doc, dvbs2):
    beams = [{**b, "demand_bps": 5e8} for b in ref_doc["beams"]]
    sc = scenario_from_dict({**ref_doc, "beams": beams})
    field = channel.build_beam_field(sc)
    offered = benchmarks.bh_evaluate(sc, field, dvbs2)
    # interior beams (six neighbors) all land on the same MODCOD
    adj = beam_adjacency(center_distances(sc.centers))
    interior = np.flatnonzero(adj.sum(axis=1) == 6)
    values = np.unique(np.round(offered[interior], 3))
    assert values.size <= 2


def test_bh_quarter_duty_formula(ref_scenario, ref_field, dvbs2):
    cfg = ref_scenario.system
    offered = benchmarks.bh_evaluate(ref_scenario, ref_field, dvbs2)
    groups = benchmarks._spread_grouping(ref_scenario.centers,
                                         ref_scenario.beam_adjacency, 4)
    p = cfg.p_t_w / ref_scenario.n_beams
    power = p * ref_field ** 2
    tau = channel.noise_power_w(cfg)
    i = groups[0][0]
    interference = sum(power[i, j] for j in groups[0] if j != i)
    se = precoding.dvbs2_efficiency(float(power[i, i] / (interference + tau)),
                                    dvbs2)
    expected = 0.25 * se * cfg.b_w_hz / (1 + cfg.rolloff) * 2
    assert offered[i] == pytest.approx(expected)


def test_grouping_fallback_adds_group(dvbs2):
    # star: four pairwise non-adjacent satellites fill the four groups, then
    # the center beam (adjacent to all of them) fits nowhere
    d = 0.5
    coords = [(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d), (0.0, 0.0)]
    doc = toy_doc()
    doc["beams"] = [
        {"id": i + 1, "u": u, "v": v, "demand_bps": 1e8}
        for i, (u, v) in enumerate(coords)
    ]
    doc["clusters"] = [[1, 2, 3, 4, 5]]
    del doc["adjacency"]
    doc["system"]["N_P"] = 1
    sc = scenario_from_dict(doc)
    field = channel.build_beam_field(sc)
    with pytest.warns(UserWarning, match="adjacent to all"):
        offered = benchmarks.bh_evaluate(sc, field, dvbs2)
    with pytest.warns(UserWarning, match="adjacent to all"):
        groups = benchmarks._spread_grouping(sc.centers, sc.beam_adjacency, 4)
    assert len(groups) == 5
    # every beam is lit for a fifth of the window
    cfg = sc.system
    tau = channel.noise_power_w(cfg)
    power = cfg.p_t_w / sc.n_beams * field[4, 4] ** 2
    se = precoding.dvbs2_efficiency(float(power / tau), dvbs2)
    expected = se * cfg.b_w_hz / (1 + cfg.rolloff) * 2 / 5
    assert offered[4] == pytest.approx(expected)
