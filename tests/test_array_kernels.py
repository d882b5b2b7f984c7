"""The whole-array comparison kernels against per-beam loop definitions.

Each ``_loop_*`` function below is the per-beam form the array code replaced,
kept here as the reference. Results must be equal bit for bit, not close.
"""
import dataclasses
import math
import warnings

import numpy as np
import pytest

from clusterhop import benchmarks, channel, metrics, precoding
from clusterhop.errors import ValidationError
from clusterhop.precoding import _THRESHOLD_GUARD_DB
from clusterhop.scenario import (beam_adjacency, center_distances,
                                 scenario_from_dict)
from clusterhop.scenariogen import hex_lattice, hex_scenario_dict

from conftest import pipeline, toy_doc


def _loop_dvbs2(snir_linear, table):
    if math.isnan(snir_linear):
        raise ValueError("nan")
    if snir_linear <= 0:
        return 0.0
    snir_db = 10.0 * math.log10(snir_linear)
    idx = np.searchsorted(table.thresholds_db - _THRESHOLD_GUARD_DB, snir_db,
                          side="right") - 1
    if idx < 0:
        return 0.0
    return float(table.se_bits_per_symbol[idx])


def _loop_coloring(adj, n_colors):
    n = adj.shape[0]
    colors = np.full(n, -1, dtype=int)
    for i in range(n):
        neigh = colors[np.flatnonzero(adj[i, :i])]
        used = set(int(c) for c in neigh if c >= 0)
        free = [c for c in range(n_colors) if c not in used]
        if free:
            colors[i] = free[0]
        else:
            colors[i] = min((int((neigh == c).sum()), c)
                            for c in range(n_colors))[1]
    return colors


def _loop_four_color(scenario, field, table):
    cfg = scenario.system
    colors = _loop_coloring(scenario.beam_adjacency, 4)
    power = cfg.p_t_w / scenario.n_beams * field ** 2
    tau_half = channel.noise_power_w(cfg, cfg.b_w_hz / 2.0)
    gammas, offered = np.zeros(scenario.n_beams), np.zeros(scenario.n_beams)
    for i in range(scenario.n_beams):
        same = colors == colors[i]
        same[i] = False
        gammas[i] = power[i, i] / (power[i, same].sum() + tau_half)
        se = _loop_dvbs2(float(gammas[i]), table)
        offered[i] = se * (cfg.b_w_hz / 2.0) / (1.0 + cfg.rolloff)
    return colors, gammas, offered


def _loop_grouping(centers, adj, n_groups):
    groups = [[] for _ in range(n_groups)]
    for i in range(adj.shape[0]):
        best_g, best_d = -1, -1.0
        for g, members in enumerate(groups):
            if adj[i, members].any():
                continue
            if members:
                diff = centers[i] - centers[members]
                d = float(np.hypot(diff[:, 0], diff[:, 1]).min())
            else:
                d = np.inf
            if d > best_d:
                best_d, best_g = d, g
        if best_g < 0:
            groups.append([i])
        else:
            groups[best_g].append(i)
    return groups


def _loop_bh(scenario, field, table):
    cfg = scenario.system
    groups = _loop_grouping(scenario.centers, scenario.beam_adjacency, 4)
    dwell = 1.0 / len(groups)
    power = cfg.p_t_w / scenario.n_beams * field ** 2
    tau = channel.noise_power_w(cfg)
    pol = 2.0 if cfg.dual_polarization else 1.0
    gammas, offered = np.zeros(scenario.n_beams), np.zeros(scenario.n_beams)
    for members in filter(None, groups):
        block = power[np.ix_(members, members)]
        np.fill_diagonal(block, 0.0)
        interference = np.add.accumulate(block, axis=1)[:, -1]
        for i, inter in zip(members, interference):
            gammas[i] = power[i, i] / (inter + tau)
            se = _loop_dvbs2(float(gammas[i]), table)
            offered[i] = dwell * se * cfg.b_w_hz / (1.0 + cfg.rolloff) * pol
    return gammas, offered


def _loop_mmse_precoder(h, tau, config, n_beams, cluster_id):
    if not np.isfinite(h).all():
        raise ValidationError("channel matrix has non-finite entries")
    if not tau > 0:
        raise ValidationError("noise power must be strictly positive")
    p = config.p_t_w / n_beams
    if p <= 0:
        raise ValidationError("per-beam power must be positive")
    gram = h @ h.conj().T + np.diag(np.full(h.shape[0], tau)) / p
    w_hat = h.conj().T @ np.linalg.inv(gram)
    row_power = np.real(np.einsum("ij,ij->i", w_hat, w_hat.conj()))
    peak = row_power.max()
    if not peak > 0:
        raise ValidationError(
            f"cluster {cluster_id}: MMSE feed powers underflow to "
            f"{float(peak)!r}; P_T_W, B_W_Hz and T_sys_K (the noise power "
            "k_B * T_sys_K * B_W_Hz) put the link budget out of "
            "floating-point range"
        )
    return math.sqrt(p / peak) * w_hat


def _loop_snir(h, w, tau):
    power = np.abs(h @ w) ** 2
    signal = np.diag(power).copy()
    interference = power.sum(axis=1) - signal
    return signal / (interference + tau)


def _loop_beam_links(scenario, channels, table):
    cfg = scenario.system
    n_b = scenario.n_beams
    snir_lin, se, r = np.zeros(n_b), np.zeros(n_b), np.zeros(n_b)
    tau = channel.noise_power_w(cfg)
    for j, h in enumerate(channels):
        gammas = _loop_snir(h, _loop_mmse_precoder(h, tau, cfg, n_b, j), tau)
        for local, beam in enumerate(scenario.clusters[j]):
            snir_lin[beam] = gammas[local]
            se[beam] = _loop_dvbs2(float(gammas[local]), table)
            r[beam] = precoding.beam_capacity_bps(se[beam], cfg)
    return snir_lin, se, r


def _loop_leakage(scenario, field, snapshot_set, plan):
    power = field ** 2
    members = scenario.clusters
    per_snapshot, out = {}, []
    for snap in plan.schedule:
        snap = int(snap)
        if snap not in per_snapshot:
            active = snapshot_set.members(snap)
            worst = 0.0
            for j in active:
                others = [b for l in active if l != j for b in members[l]]
                for k in members[j]:
                    leak = power[k, others].sum() if others else 0.0
                    worst = max(worst, leak / power[k, k])
            per_snapshot[snap] = worst
        out.append(per_snapshot[snap])
    return out


def _star_doc():
    # four pairwise non-adjacent satellites fill the four hopping groups; the
    # center beam is adjacent to all of them
    d = 0.5
    coords = [(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d), (0.0, 0.0)]
    return _layout_doc(coords, [[1, 2, 3, 4, 5]])


def _color_conflict_doc():
    # a 12-beam hex patch in an order where greedy coloring runs out of colors
    order = [7, 6, 4, 2, 3, 10, 0, 11, 8, 1, 9, 5]
    coords = hex_lattice(12, 0.6)[order].tolist()
    return _layout_doc(coords, [[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12]])


def _mixed_sizes_doc():
    # clusters of 1, 2, 3, 1 and 2 beams on a line: each size's clusters
    # are stacked together, out of cluster order
    coords = [(0.6 * k, 0.0) for k in range(9)]
    return _layout_doc(coords, [[1], [2, 3], [4, 5, 6], [7], [8, 9]])


def _layout_doc(coords, clusters):
    doc = toy_doc()
    doc["beams"] = [{"id": i + 1, "u": u, "v": v, "demand_bps": 1e8 * (i + 1)}
                    for i, (u, v) in enumerate(coords)]
    doc["clusters"] = clusters
    del doc["adjacency"]
    doc["system"]["N_P"] = 1
    return doc


LAYOUTS = {
    "reference": hex_scenario_dict,
    "wide_300_12": lambda: hex_scenario_dict(300, 12),
    # noise far below the interference, so the SNIRs carry every bit of it
    "wide_300_12_low_noise": lambda: hex_scenario_dict(
        300, 12, system={"T_sys_K": 1e-9}),
    "star": _star_doc,
    "color_conflict": _color_conflict_doc,
    "mixed_sizes": _mixed_sizes_doc,
}


@pytest.fixture(scope="module", params=sorted(LAYOUTS))
def stages(request):
    pipe = pipeline(LAYOUTS[request.param]())
    return (request.param, pipe.scenario, pipe.channels, pipe.field,
            pipe.snapshots, pipe.plan)


@pytest.fixture()
def lookups(monkeypatch):
    """The SNIR arrays the benchmark schemes pass to the MODCOD lookup: the
    lookup is a step function, so the offered rates alone would hide a
    last-bit change in the SNIR."""
    seen = []

    def recording(snir_linear, table):
        seen.append(np.array(snir_linear, dtype=float))
        return precoding.dvbs2_efficiency(snir_linear, table)

    monkeypatch.setattr(benchmarks, "dvbs2_efficiency", recording)
    return seen


def test_four_color_matches_per_beam_loop(stages, dvbs2, lookups):
    name, scenario, _, field, _, _ = stages
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = benchmarks.four_color_evaluate(scenario, field, dvbs2)
        got_colors = benchmarks._greedy_coloring(scenario.beam_adjacency, 4)
    fallback = any("no conflict-free color" in str(w.message) for w in caught)
    assert fallback == (name == "color_conflict")
    colors, gammas, offered = _loop_four_color(scenario, field, dvbs2)
    assert np.array_equal(got_colors, colors)
    assert np.array_equal(np.concatenate(lookups), gammas)
    assert np.array_equal(got, offered)


def test_bh_matches_per_beam_loop(stages, dvbs2, lookups):
    name, scenario, _, field, _, _ = stages
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        got = benchmarks.bh_evaluate(scenario, field, dvbs2)
        got_groups = benchmarks._spread_grouping(scenario.centers,
                                                 scenario.beam_adjacency, 4)
    if name == "star":
        assert any("adjacent to all" in str(w.message) for w in caught)
    assert got_groups == _loop_grouping(scenario.centers,
                                        scenario.beam_adjacency, 4)
    gammas, offered = _loop_bh(scenario, field, dvbs2)
    assert np.array_equal(np.concatenate(lookups), gammas)
    assert np.array_equal(got, offered)


def _two_stars():
    """The star layout, then a second star far off: the first star's center
    fits no group and adds a fifth, which later beams read. One of them
    joins it, and the second center is adjacent to its member."""
    d = 0.5
    star = [(d, 0.0), (-d, 0.0), (0.0, d), (0.0, -d), (0.0, 0.0)]
    return np.array(star + [(10.0 + u, v) for u, v in star])


def _permuted_hex(seed):
    """A hex patch in a seeded order: exact distance ties everywhere, and
    up to 199 beams, four row blocks of the grouping's distances."""
    rng = np.random.default_rng(seed)
    centers = hex_lattice(int(rng.integers(2, 200)), 0.6)
    return centers[rng.permutation(len(centers))]


def _fallback_warnings(adj, groups, colors):
    """The warnings of both fallbacks, from the per-beam loops' results."""
    want = [f"beam {members[0] + 1} is adjacent to all {g} groups; adding "
            "one more group and rescaling the dwell"
            for g, members in enumerate(groups[4:], start=4)]
    for i in range(adj.shape[0]):
        neigh = colors[np.flatnonzero(adj[i, :i])]
        if set(neigh.tolist()) >= set(range(4)):
            want.append(f"beam {i + 1}: no conflict-free color, using color "
                        f"{colors[i]} with {(neigh == colors[i]).sum()} "
                        "conflicts")
    return sorted(want)


@pytest.mark.parametrize("centers", [
    pytest.param(_two_stars(), id="two_stars"),
    *(pytest.param(_permuted_hex(seed), id=f"hex{seed}") for seed in range(24)),
])
def test_grouping_and_coloring_match_per_beam_loops(centers):
    adj = beam_adjacency(center_distances(centers))
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        groups = benchmarks._spread_grouping(centers, adj, 4)
        colors = benchmarks._greedy_coloring(adj, 4)
    want_colors = _loop_coloring(adj, 4)
    assert groups == _loop_grouping(centers, adj, 4)
    assert np.array_equal(colors, want_colors)
    assert sorted(str(w.message) for w in caught) == _fallback_warnings(
        adj, groups, want_colors)


def test_grown_group_is_read_by_later_beams():
    centers = _two_stars()
    with pytest.warns(UserWarning, match="beam 5 is adjacent to all 4"):
        groups = benchmarks._spread_grouping(
            centers, beam_adjacency(center_distances(centers)), 4)
    assert groups == [[0, 9], [1, 5], [2, 6], [3, 7], [4, 8]]


def test_beam_links_match_per_beam_loop(stages, dvbs2):
    _, scenario, channels, _, _, _ = stages
    got = precoding.beam_links(scenario, channels, dvbs2)
    for a, b in zip(got, _loop_beam_links(scenario, channels, dvbs2)):
        assert np.array_equal(a, b)


def _failing_channels(channels, nan=(), tiny=()):
    """Copies of ``channels`` with a NaN entry in the clusters ``nan`` and
    scaled by 1e-300 (MMSE feed powers that underflow) in ``tiny``."""
    out = [h.copy() for h in channels]
    for j in nan:
        out[j][0, 0] = np.nan
    for j in tiny:
        out[j] *= 1e-300
    return out


@pytest.mark.parametrize("p_t_w, nan, tiny", [
    # The size-1 stack (clusters 0, 3) runs before the size-2 stack (1, 4)
    # and the size-3 stack (2). In the first four cases the loop's first
    # failure lies in a later stack than the first failing stack's.
    (None, (1,), (3,)),
    (None, (), (2, 4)),
    (None, (2,), (3, 4)),
    (5e-324, (3,), ()),  # a per-beam power of 0 is refused at cluster 0
    (None, (4,), (0, 3)),
    (None, (3,), ()),
    (5e-324, (0,), (3,)),
])
def test_link_budget_failure_matches_per_cluster_loop(dvbs2, p_t_w, nan,
                                                      tiny):
    scenario = scenario_from_dict(_mixed_sizes_doc())
    if p_t_w is not None:
        scenario = dataclasses.replace(scenario, system=dataclasses.replace(
            scenario.system, p_t_w=p_t_w))
    channels = _failing_channels(channel.build_all_cluster_channels(scenario),
                                 nan, tiny)
    with pytest.raises(ValidationError) as want:
        _loop_beam_links(scenario, channels, dvbs2)
    with pytest.raises(ValidationError) as got:
        precoding.beam_links(scenario, channels, dvbs2)
    assert str(got.value) == str(want.value)


def test_stacked_precoder_matches_each_cluster(dvbs2):
    """One stacked call gives each matrix's precoder and SNIR bit for bit,
    and an underflow names the first underflowing cluster of the stack."""
    scenario = scenario_from_dict(hex_scenario_dict())
    cfg, n_b = scenario.system, scenario.n_beams
    tau = channel.noise_power_w(cfg)
    channels = channel.build_all_cluster_channels(scenario)
    ids = [j for j, h in enumerate(channels) if len(h) == len(channels[0])]
    h = np.stack([channels[j] for j in ids])
    w = precoding.mmse_precoder(h, tau, cfg, n_b, ids)
    gammas = precoding.snir(h, w, tau)
    for k, j in enumerate(ids):
        want = _loop_mmse_precoder(channels[j], tau, cfg, n_b, j)
        assert np.array_equal(w[k], want)
        assert np.array_equal(gammas[k], _loop_snir(channels[j], want, tau))
    h[2:] *= 1e-300
    with pytest.raises(ValidationError, match=rf"^cluster {ids[2]}: MMSE"):
        precoding.mmse_precoder(h, tau, cfg, n_b, ids)


def test_leakage_matches_per_slot_loop(stages):
    _, scenario, _, field, snaps, plan = stages
    got = metrics.cross_cluster_leakage(scenario, field, snaps,
                                        plan)[plan.schedule]
    want = _loop_leakage(scenario, field, snaps, plan)
    assert len(got) == len(want)
    assert np.array_equal(np.array(got), np.array(want))


def test_array_dvbs2_matches_scalar_rule(dvbs2):
    rng = np.random.default_rng(3)
    # each table threshold and the guarded edge the lookup compares against,
    # with their neighbouring doubles
    edges = 10.0 ** (np.concatenate([dvbs2.thresholds_db,
                                     dvbs2.thresholds_db - _THRESHOLD_GUARD_DB])
                     / 10.0)
    snir = np.concatenate([
        10.0 ** rng.uniform(-3.0, 4.0, 100_000),
        edges, np.nextafter(edges, 0.0), np.nextafter(edges, np.inf),
        [0.0, -1.0, np.inf],
    ])
    want = np.array([_loop_dvbs2(x, dvbs2) for x in snir.tolist()])
    assert np.array_equal(precoding.dvbs2_efficiency(snir, dvbs2), want)
