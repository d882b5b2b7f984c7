"""Non-precoded comparison schemes: 4-color frequency reuse and 1-color FFR
beam hopping with a fixed quarter duty cycle.

Both schemes work at beam level, ignore the demands entirely, and compute
SNIR from the plain gain model (no precoding). Their offered-capacity vectors
are therefore invariant to any change of the demand profile, which is exactly
the behavior the cluster-hopping planner is measured against.
"""
from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .channel import BeamField, noise_power_w
from .precoding import Dvbs2Table, dvbs2_efficiency
from .scenario import Scenario

FOUR_COLOR = "4c_fr"
ONE_COLOR_BH = "1c_ffr_bh"


@dataclass(frozen=True)
class BenchmarkResult:
    scheme: str
    offered_bps: np.ndarray  # (N_B,)
    config: dict             # construction echo: colors or groups and dwell


def _greedy_coloring(adj: np.ndarray, n_colors: int) -> np.ndarray:
    """Color beams so adjacent ones differ, lowest available color first.

    Falls back to the least-conflicting color (with a warning) if a beam has
    all colors in its neighborhood.
    """
    n = adj.shape[0]
    colors = np.full(n, -1, dtype=int)
    for i in range(n):
        neigh = colors[np.flatnonzero(adj[i, :i])]
        used = set(int(c) for c in neigh if c >= 0)
        free = [c for c in range(n_colors) if c not in used]
        if free:
            colors[i] = free[0]
        else:
            counts = [(int((neigh == c).sum()), c) for c in range(n_colors)]
            conflicts, pick = min(counts)
            warnings.warn(
                f"beam {i + 1}: no conflict-free color, using color {pick} "
                f"with {conflicts} conflicts"
            )
            colors[i] = pick
    return colors


def four_color_evaluate(scenario: Scenario, field: BeamField,
                        table: Dvbs2Table) -> BenchmarkResult:
    """Offered capacity under 2 frequency halves x 2 polarizations.

    Every beam is continuously active on half the bandwidth and a single
    polarization; interference comes only from beams of the same color.
    """
    cfg = scenario.system
    colors = _greedy_coloring(scenario.beam_adjacency, 4)
    p = cfg.p_t_w / scenario.n_beams
    power = p * field.gains ** 2
    tau_half = noise_power_w(cfg, cfg.b_w_hz / 2.0)
    n = scenario.n_beams
    offered = np.zeros(n)
    for i in range(n):
        same = (colors == colors[i])
        same[i] = False
        interference = power[i, same].sum()
        gamma = power[i, i] / (interference + tau_half)
        se = dvbs2_efficiency(float(gamma), table)
        offered[i] = se * (cfg.b_w_hz / 2.0) / (1.0 + cfg.rolloff)
    offered.flags.writeable = False
    return BenchmarkResult(
        scheme=FOUR_COLOR,
        offered_bps=offered,
        config={"colors": colors.tolist(), "n_colors": 4},
    )


def _spread_grouping(centers: np.ndarray, adj: np.ndarray, n_groups: int):
    """Partition beams into internally non-adjacent groups.

    Greedy: each beam joins the adjacency-free group whose nearest member is
    farthest away (spreading co-active beams); grows the group count when a
    beam fits nowhere.
    """
    n = adj.shape[0]
    groups: list[list[int]] = [[] for _ in range(n_groups)]
    assignment = np.full(n, -1, dtype=int)
    for i in range(n):
        best_g = -1
        best_d = -1.0
        for g, members in enumerate(groups):
            if adj[i, members].any():
                continue
            if members:
                diff = centers[i] - centers[members]
                d = float(np.hypot(diff[:, 0], diff[:, 1]).min())
            else:
                d = np.inf
            if d > best_d:
                best_d = d
                best_g = g
        if best_g < 0:
            warnings.warn(
                f"beam {i + 1} is adjacent to all {len(groups)} groups; "
                "adding one more group and rescaling the dwell"
            )
            groups.append([i])
            assignment[i] = len(groups) - 1
        else:
            groups[best_g].append(i)
            assignment[i] = best_g
    return groups, assignment


def bh_evaluate(scenario: Scenario, field: BeamField,
                table: Dvbs2Table) -> BenchmarkResult:
    """Offered capacity under single-color FFR beam hopping.

    Four fixed groups of pairwise non-adjacent beams are illuminated
    round-robin with equal dwell; active beams use the full bandwidth on both
    polarizations without precoding.
    """
    cfg = scenario.system
    groups, assignment = _spread_grouping(scenario.centers,
                                          scenario.beam_adjacency, 4)
    n_groups = len(groups)
    dwell = 1.0 / n_groups
    p = cfg.p_t_w / scenario.n_beams
    power = p * field.gains ** 2
    tau = noise_power_w(cfg)
    pol = 2.0 if cfg.dual_polarization else 1.0
    offered = np.zeros(scenario.n_beams)
    for members in filter(None, groups):  # a group may be empty
        # In-group interference summed left to right over the other members,
        # as a sequential accumulate (a zeroed own term adds nothing).
        block = power[np.ix_(members, members)]
        np.fill_diagonal(block, 0.0)
        interference = np.add.accumulate(block, axis=1)[:, -1]
        for i, inter in zip(members, interference):
            gamma = power[i, i] / (inter + tau)
            se = dvbs2_efficiency(float(gamma), table)
            offered[i] = dwell * se * cfg.b_w_hz / (1.0 + cfg.rolloff) * pol
    offered.flags.writeable = False
    return BenchmarkResult(
        scheme=ONE_COLOR_BH,
        offered_bps=offered,
        config={
            "groups": [[int(b) for b in g] for g in groups],
            "assignment": assignment.tolist(),
            "dwell": dwell,
        },
    )
