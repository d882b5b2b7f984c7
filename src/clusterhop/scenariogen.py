"""Deterministic generators for synthetic scenarios.

The main product is a 71-beam / 12-cluster European-style coverage on a
hexagonal lattice: eleven clusters of 6 beams and one of 5, heterogeneous
demands spanning at least a 4x spread. Useful both as the default demo input
and as the fixture for the test suite.
"""
from __future__ import annotations

import json
import math

import numpy as np

DEFAULT_SYSTEM = {
    "P_T_W": 6000.0,
    "B_W_Hz": 500e6,
    "carrier_Hz": 19.5e9,
    "rolloff": 0.20,
    "T_slot_s": 1.3e-3,
    "N_slot": 256,
    "N_P": 3,
    "dual_polarization": True,
    "gain_peak_dBi": 48.0,
    "beamwidth_3dB_deg": 0.6,
    "T_sys_K": 200.0,
    "seed": 1,
}

# Demand draw for the reference scenario; independent of the channel seed.
_DEMAND_SEED = 20240
_DEMAND_LOW_BPS = 0.3e9
_DEMAND_HIGH_BPS = 1.5e9


def hex_lattice(n_points: int, pitch: float, aspect: float = 1.0) -> np.ndarray:
    """The ``n_points`` hex-lattice sites closest to the origin, (u, v) pairs.

    ``aspect`` > 1 selects an elongated (wide) patch by shrinking u in the
    selection norm; the lattice geometry itself is unchanged.
    """
    span = int(math.ceil(math.sqrt(n_points * aspect))) + 3
    pts = []
    for q in range(-2 * span, 2 * span + 1):
        for r in range(-span, span + 1):
            u = pitch * (q + r / 2.0)
            v = pitch * (r * math.sqrt(3.0) / 2.0)
            pts.append(((u / aspect) ** 2 + v * v, q, r, u, v))
    pts.sort()
    chosen = pts[:n_points]
    return np.array([[u, v] for (_, _, _, u, v) in chosen], dtype=float)


def _cluster_seeds(centers: np.ndarray, n_clusters: int) -> np.ndarray:
    """Deterministic farthest-point seeds, starting from the outermost beam."""
    radii = np.sqrt((centers ** 2).sum(axis=1))
    first = int(np.argmax(radii))
    seeds = [first]
    dist = np.sqrt(((centers - centers[first]) ** 2).sum(axis=1))
    while len(seeds) < n_clusters:
        nxt = int(np.argmax(dist))
        seeds.append(nxt)
        d_new = np.sqrt(((centers - centers[nxt]) ** 2).sum(axis=1))
        dist = np.minimum(dist, d_new)
    return centers[seeds]


def balanced_clusters(centers: np.ndarray, n_clusters: int) -> list[list[int]]:
    """Partition beams into compact clusters of near-equal size.

    Greedy capacity-constrained nearest-seed assignment: repeatedly commit the
    globally closest (beam, seed) pair among seeds with spare capacity.
    """
    n = centers.shape[0]
    cap = int(math.ceil(n / n_clusters))
    seeds = _cluster_seeds(centers, n_clusters)
    d = np.sqrt(((centers[:, None, :] - seeds[None, :, :]) ** 2).sum(axis=2))
    order = sorted(
        ((d[b, j], b, j) for b in range(n) for j in range(n_clusters))
    )
    members: list[list[int]] = [[] for _ in range(n_clusters)]
    assigned = [False] * n
    for _, b, j in order:
        if assigned[b] or len(members[j]) >= cap:
            continue
        members[j].append(b)
        assigned[b] = True
    for m in members:  # every beam is placed: n_clusters * cap >= n
        m.sort()
    return members


def heterogeneous_demands(n_beams: int, rng: np.random.Generator) -> np.ndarray:
    """Integer per-beam demands, uniform on [low, high] bps (about 5x spread)."""
    d = rng.uniform(_DEMAND_LOW_BPS, _DEMAND_HIGH_BPS, size=n_beams)
    return np.round(d).astype(float)


def hex_scenario_dict(
    n_beams: int = 71,
    n_clusters: int = 12,
    pitch_deg: float = 0.6,
    aspect: float = 3.0,
    system: dict | None = None,
    demands: np.ndarray | None = None,
) -> dict:
    """Scenario document (JSON-ready dict) for a hex coverage.

    With the defaults this yields 71 beams in 12 clusters: eleven clusters of
    6 beams and one of 5, on an elongated coverage strip whose cluster graph
    admits a rich set of non-adjacent cluster combinations. Adjacency is left
    out so loading derives it from geometry.
    """
    centers = hex_lattice(n_beams, pitch_deg, aspect)
    members = balanced_clusters(centers, n_clusters)
    if demands is None:
        demands = heterogeneous_demands(n_beams, np.random.default_rng(_DEMAND_SEED))
    sys_cfg = dict(DEFAULT_SYSTEM)
    if system:
        sys_cfg.update(system)
    beams = [
        {
            "id": i + 1,
            "u": round(float(centers[i, 0]), 9),
            "v": round(float(centers[i, 1]), 9),
            "demand_bps": float(demands[i]),
        }
        for i in range(n_beams)
    ]
    clusters = [[b + 1 for b in m] for m in members]
    return {"beams": beams, "clusters": clusters, "system": sys_cfg}


def write_scenario(doc: dict, path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
