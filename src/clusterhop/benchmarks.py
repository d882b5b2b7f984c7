"""Non-precoded comparison schemes: 4-color frequency reuse and 1-color FFR
beam hopping with a fixed quarter duty cycle.

Both schemes work at beam level, ignore the demands entirely, and compute
SNIR from the plain gain model (no precoding). Their offered-capacity vectors
are therefore invariant to any change of the demand profile, which is exactly
the behavior the cluster-hopping planner is measured against.
"""
from __future__ import annotations

import warnings

import numpy as np

from .channel import noise_power_w
from .precoding import Dvbs2Table, dvbs2_efficiency
from .scenario import Scenario

FOUR_COLOR = "4c_fr"
ONE_COLOR_BH = "1c_ffr_bh"


def _greedy_coloring(adj: np.ndarray, n_colors: int) -> np.ndarray:
    """Color beams so adjacent ones differ, lowest available color first.

    Falls back to the least-conflicting color (with a warning) if a beam has
    all colors in its neighborhood.
    """
    earlier: list[list[int]] = [[] for _ in range(adj.shape[0])]
    for i, k in zip(*(ix.tolist() for ix in np.nonzero(np.tril(adj, -1)))):
        earlier[i].append(k)
    colors: list[int] = []
    for i, neighbours in enumerate(earlier):
        neigh = [colors[k] for k in neighbours]
        free = [c for c in range(n_colors) if c not in neigh]
        if free:
            colors.append(free[0])
        else:
            conflicts, pick = min((neigh.count(c), c) for c in range(n_colors))
            warnings.warn(
                f"beam {i + 1}: no conflict-free color, using color {pick} "
                f"with {conflicts} conflicts"
            )
            colors.append(pick)
    return np.array(colors, dtype=int)


def four_color_evaluate(scenario: Scenario, gains: np.ndarray,
                        table: Dvbs2Table) -> np.ndarray:
    """Read-only (N_B,) offered rates (bps) under 2 frequency halves x 2
    polarizations, from the beam field's amplitude gains (see
    ``channel.build_beam_field``).

    Every beam is continuously active on half the bandwidth and a single
    polarization; interference comes only from beams of the same color.
    """
    cfg = scenario.system
    colors = _greedy_coloring(scenario.beam_adjacency, 4)
    p = cfg.p_t_w / scenario.n_beams
    power = p * gains ** 2
    tau_half = noise_power_w(cfg, cfg.b_w_hz / 2.0)
    gamma = np.empty(scenario.n_beams)
    for color in np.unique(colors):
        same = np.flatnonzero(colors == color)
        # Each row of the color's block without its diagonal sums to the
        # beam's own 1-D sum bit for bit; a zeroed own term would not, as it
        # shifts numpy's pairwise blocking.
        off_diagonal = ~np.eye(same.size, dtype=bool)
        interference = power[np.ix_(same, same)][off_diagonal].reshape(
            same.size, same.size - 1).sum(axis=1)
        gamma[same] = power[same, same] / (interference + tau_half)
    se = dvbs2_efficiency(gamma, table)
    offered = se * (cfg.b_w_hz / 2.0) / (1.0 + cfg.rolloff)
    offered.flags.writeable = False
    return offered


def _spread_grouping(centers: np.ndarray, adj: np.ndarray, n_groups: int):
    """Partition beams into internally non-adjacent groups: the list of each
    group's beam indices.

    Greedy: each beam joins the adjacency-free group whose nearest member is
    farthest away (spreading co-active beams), the earliest such group on a
    tie; grows the group count when a beam fits nowhere. The distance to a
    group's nearest member and the adjacency to its members are kept for
    every beam and updated as members join.
    """
    n = adj.shape[0]
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    touches = np.ascontiguousarray(adj.T != 0)  # row i: beams adjacent to i
    nearest = np.full((n, n_groups), np.inf)
    blocked = np.zeros((n, n_groups), dtype=bool)
    for i in range(n):
        diff = centers[i + 1:] - centers[i]  # only later beams still choose
        dist = np.hypot(diff[:, 0], diff[:, 1])
        best_g = -1
        best_d = -1.0
        for g, (d, adjacent) in enumerate(zip(nearest[i].tolist(),
                                              blocked[i].tolist())):
            if not adjacent and d > best_d:
                best_d = d
                best_g = g
        if best_g < 0:
            warnings.warn(
                f"beam {i + 1} is adjacent to all {len(groups)} groups; "
                "adding one more group and rescaling the dwell"
            )
            groups.append([])
            nearest = np.column_stack([nearest, np.full(n, np.inf)])
            blocked = np.column_stack([blocked, np.zeros(n, dtype=bool)])
            best_g = len(groups) - 1
        groups[best_g].append(i)
        later = nearest[i + 1:, best_g]
        np.minimum(later, dist, out=later)
        blocked[:, best_g] |= touches[i]
    return groups


def bh_evaluate(scenario: Scenario, gains: np.ndarray,
                table: Dvbs2Table) -> np.ndarray:
    """Read-only (N_B,) offered rates (bps) under single-color FFR beam
    hopping.

    Four fixed groups of pairwise non-adjacent beams are illuminated
    round-robin with equal dwell; active beams use the full bandwidth on both
    polarizations without precoding.
    """
    cfg = scenario.system
    groups = _spread_grouping(scenario.centers, scenario.beam_adjacency, 4)
    n_groups = len(groups)
    dwell = 1.0 / n_groups
    p = cfg.p_t_w / scenario.n_beams
    power = p * gains ** 2
    tau = noise_power_w(cfg)
    pol = 2.0 if cfg.dual_polarization else 1.0
    gamma = np.empty(scenario.n_beams)
    for members in filter(None, groups):  # a group may be empty
        # In-group interference summed left to right over the other members,
        # as a sequential accumulate (a zeroed own term adds nothing).
        block = power[np.ix_(members, members)]
        np.fill_diagonal(block, 0.0)
        interference = np.add.accumulate(block, axis=1)[:, -1]
        gamma[members] = power[members, members] / (interference + tau)
    se = dvbs2_efficiency(gamma, table)
    offered = dwell * se * cfg.b_w_hz / (1.0 + cfg.rolloff) * pol
    offered.flags.writeable = False
    return offered
