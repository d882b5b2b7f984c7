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

# Beams whose distances to every later beam are computed at once in
# `_spread_grouping`: bounds its temporaries to this many rows of N_B.
_GROUPING_BLOCK = 64


def _greedy_coloring(adj: np.ndarray, n_colors: int) -> np.ndarray:
    """Color beams so adjacent ones differ, lowest available color first.

    Falls back to the least-conflicting color (with a warning) if a beam has
    all colors in its neighborhood. The colors of a beam's earlier
    neighbours are read as a bitmask, bit c for color c.
    """
    n = adj.shape[0]
    rows, cols = np.divmod(np.flatnonzero(adj != 0), n)
    lower = cols < rows
    cols = cols[lower].tolist()  # earlier neighbours, grouped by beam
    ends = np.searchsorted(rows[lower], np.arange(n), side="right").tolist()
    every = (1 << n_colors) - 1
    colors: list[int] = []
    start = 0
    for i, end in enumerate(ends):
        neighbours = cols[start:end]
        start = end
        used = 0
        for k in neighbours:
            used |= 1 << colors[k]
        free = every & ~used
        if free:
            colors.append((free & -free).bit_length() - 1)
        else:
            neigh = [colors[k] for k in neighbours]
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
    tie; grows the group count when a beam fits nowhere. ``score[g, k]`` is
    the distance from later beam k to group g's nearest member, ``-inf``
    once a member is adjacent to k, so joining a group is one
    ``np.minimum`` over its row. The distances (``-inf`` where adjacent) are
    computed for ``_GROUPING_BLOCK`` beams at a time, against every later
    beam.
    """
    n = adj.shape[0]
    u, v = centers[:, 0], centers[:, 1]
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    score = np.full((n_groups, n), np.inf)
    for i0 in range(0, n, _GROUPING_BLOCK):
        i1 = min(i0 + _GROUPING_BLOCK, n)
        # each distance from the same operands as a per-pair ``np.hypot``, so
        # equal distances tie as in the per-beam definition
        dist = np.hypot(u[i0:] - u[i0:i1, None], v[i0:] - v[i0:i1, None])
        dist[adj[i0:, i0:i1].T != 0] = -np.inf
        for i in range(i0, i1):
            best_g = -1
            best_d = -1.0  # an adjacent group's -inf never beats it
            for g, d in enumerate(score[:, i].tolist()):
                if d > best_d:
                    best_d = d
                    best_g = g
            if best_g < 0:
                warnings.warn(
                    f"beam {i + 1} is adjacent to all {len(groups)} groups; "
                    "adding one more group and rescaling the dwell"
                )
                groups.append([])
                score = np.vstack([score, np.full(n, np.inf)])
                best_g = len(groups) - 1
            groups[best_g].append(i)
            later = score[best_g, i + 1:]
            np.minimum(later, dist[i - i0, i + 1 - i0:], out=later)
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
