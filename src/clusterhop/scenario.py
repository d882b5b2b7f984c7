"""Scenario ingestion: beam grid, demands, clustering, adjacency, system constants.

A scenario is a single JSON document (see ``load_scenario``) describing the
beam layout in angular u/v coordinates, per-beam demands in bps, a strict
partition of beams into clusters, an optional explicit cluster adjacency
matrix, and the system constants. Everything is validated on load and
immutable afterwards.
"""
from __future__ import annotations

import json
import math
from dataclasses import dataclass

import numpy as np

from .errors import ParseError, ValidationError


@dataclass(frozen=True)
class SystemConfig:
    p_t_w: float
    b_w_hz: float
    carrier_hz: float
    rolloff: float
    t_slot_s: float
    n_slot: int
    n_p: int
    dual_polarization: bool
    gain_peak_dbi: float
    beamwidth_3db_deg: float
    t_sys_k: float
    seed: int

    @property
    def hopping_window_s(self) -> float:
        return self.n_slot * self.t_slot_s


@dataclass(frozen=True)
class Scenario:
    """Beam i (0-based) is the beam with id i + 1 in the file."""

    clusters: tuple[tuple[int, ...], ...]  # cluster j's 0-based beams, file order
    adjacency: np.ndarray  # (N_C, N_C) read-only uint8, symmetric, zero diagonal
    system: SystemConfig
    centers: np.ndarray  # (N_B, 2) u/v in degrees, row order = beam index
    demands: np.ndarray  # (N_B,) bps
    distances: np.ndarray  # (N_B, N_B) see ``center_distances``
    beam_adjacency: np.ndarray  # (N_B, N_B) 0/1, see ``beam_adjacency``

    @property
    def n_beams(self) -> int:
        return len(self.demands)

    @property
    def n_clusters(self) -> int:
        return len(self.clusters)


_SYSTEM_KEYS = {  # file key -> (SystemConfig field, JSON type)
    "P_T_W": ("p_t_w", float),
    "B_W_Hz": ("b_w_hz", float),
    "carrier_Hz": ("carrier_hz", float),
    "rolloff": ("rolloff", float),
    "T_slot_s": ("t_slot_s", float),
    "N_slot": ("n_slot", int),
    "N_P": ("n_p", int),
    "dual_polarization": ("dual_polarization", bool),
    "gain_peak_dBi": ("gain_peak_dbi", float),
    "beamwidth_3dB_deg": ("beamwidth_3db_deg", float),
    "T_sys_K": ("t_sys_k", float),
    "seed": ("seed", int),
}

_JSON_TYPES = {bool: ("boolean", bool), int: ("integer", int),
               float: ("number", (int, float))}


def _typed(value, kind: type, name: str):
    """``value`` as ``kind`` (bool, int or float) when the document gives it
    with that JSON type: a boolean, an integer, or any number for a float;
    a boolean is no number. Anything else is a ValidationError naming the
    field, so nothing is coerced: not "false", not 1.5, not "100"."""
    if type(value) is kind:
        return value
    label, accepted = _JSON_TYPES[kind]
    if not isinstance(value, accepted) or isinstance(value, bool) != (kind is bool):
        raise ValidationError(f"{name} must be a JSON {label}, got {value!r}")
    try:
        return kind(value)
    except OverflowError:  # an integer too large for a float
        raise ValidationError(f"{name} is out of range") from None


def load_scenario(source) -> Scenario:
    """Load and validate a scenario JSON file, given by its path or as the
    file's bytes.

    Raises ParseError when the content is not UTF-8 JSON and
    ValidationError with the name of the violated invariant otherwise.
    """
    if not isinstance(source, bytes):
        with open(source, "rb") as fh:
            source = fh.read()
    try:
        doc = json.loads(source.decode("utf-8"))
    except (UnicodeDecodeError, json.JSONDecodeError) as exc:
        raise ParseError(f"scenario file is not valid JSON: {exc}") from exc
    return scenario_from_dict(doc)


def scenario_from_dict(doc: dict) -> Scenario:
    """Build a validated Scenario from an already-parsed JSON document."""
    if not isinstance(doc, dict):
        raise ValidationError("scenario document must be a JSON object")
    for key in ("beams", "clusters", "system"):
        if key not in doc:
            raise ValidationError(f"missing top-level key '{key}'")

    centers, demands = _parse_beams(doc["beams"])
    clusters = _parse_clusters(doc["clusters"], len(demands))
    system = _parse_system(doc["system"])
    _check_window_demand(system, demands, clusters)

    distances = center_distances(centers)  # also read by the channel model
    badj = beam_adjacency(distances)  # also read by both benchmark schemes
    if "adjacency" in doc and doc["adjacency"] is not None:
        adjacency = _parse_adjacency(doc["adjacency"], len(clusters))
    else:
        adjacency = derive_adjacency(badj, clusters)

    if system.n_p > len(clusters):
        raise ValidationError(
            f"N_P={system.n_p} exceeds the cluster count {len(clusters)}"
        )

    for a in (centers, demands, distances, badj):
        a.flags.writeable = False
    return Scenario(
        clusters=clusters,
        adjacency=adjacency,
        system=system,
        centers=centers,
        demands=demands,
        distances=distances,
        beam_adjacency=badj,
    )


def _parse_beams(raw) -> tuple[np.ndarray, np.ndarray]:
    """Beam centers (N_B, 2) and demands (N_B,), both in beam-id order."""
    if not isinstance(raw, list) or not raw:
        raise ValidationError("'beams' must be a non-empty array")
    ids, rows = [], []
    for entry in raw:
        try:
            bid, u, v = entry["id"], entry["u"], entry["v"]
            demand = entry["demand_bps"]
        except (KeyError, TypeError) as exc:
            raise ValidationError(f"malformed beam entry {entry!r}: {exc}") from exc
        bid = _typed(bid, int, "beam id")
        try:
            row = (_typed(u, float, "u"), _typed(v, float, "v"),
                   _typed(demand, float, "demand_bps"))
        except ValidationError as exc:
            raise ValidationError(f"beam {bid}: {exc}") from None
        for name, value in zip(("u", "v", "demand_bps"), row):
            if not math.isfinite(value):
                raise ValidationError(f"beam {bid}: {name} must be finite")
        if row[2] < 0:
            raise ValidationError(f"beam {bid}: demand must be >= 0")
        ids.append(bid)
        rows.append(row)
    if len(set(ids)) != len(ids):
        raise ValidationError("beam ids are not unique")
    if sorted(ids) != list(range(1, len(ids) + 1)):
        raise ValidationError("beam ids must be contiguous 1..N_B")
    table = np.array(rows, dtype=float)[np.argsort(ids)]
    return table[:, :2].copy(), table[:, 2].copy()


def _parse_clusters(raw, n_beams: int) -> tuple[tuple[int, ...], ...]:
    if not isinstance(raw, list) or not raw:
        raise ValidationError("'clusters' must be a non-empty array of beam-id arrays")
    seen: dict[int, int] = {}
    members = []
    for j, group in enumerate(raw):
        if not isinstance(group, list) or not group:
            raise ValidationError(f"cluster {j} must be a non-empty array of beam ids")
        idxs = []
        for bid in group:
            if type(bid) is not int or not (1 <= bid <= n_beams):
                raise ValidationError(f"cluster {j}: unknown beam id {bid!r}")
            if bid in seen:
                raise ValidationError(
                    f"beam {bid} assigned to clusters {seen[bid]} and {j}; "
                    "clustering must be a partition"
                )
            seen[bid] = j
            idxs.append(bid - 1)
        members.append(tuple(idxs))
    missing = set(range(1, n_beams + 1)) - set(seen)
    if missing:
        raise ValidationError(f"beams {sorted(missing)} belong to no cluster")
    return tuple(members)


def _parse_adjacency(raw, n_clusters: int) -> np.ndarray:
    if not isinstance(raw, list) or not all(
            isinstance(row, list) and all(type(x) is int for x in row)
            for row in raw):
        raise ValidationError("adjacency must be an array of arrays of JSON "
                              "integers")
    try:
        a = np.array(raw, dtype=int)
    except (ValueError, OverflowError) as exc:
        raise ValidationError(f"adjacency is not a numeric matrix: {exc}") from exc
    if a.shape != (n_clusters, n_clusters):
        raise ValidationError(
            f"adjacency must be {n_clusters}x{n_clusters}, got {a.shape}"
        )
    if not np.isin(a, (0, 1)).all():
        raise ValidationError("adjacency entries must be 0 or 1")
    if (a != a.T).any():
        raise ValidationError("adjacency matrix is not symmetric")
    if np.diag(a).any():
        raise ValidationError("adjacency diagonal must be zero")
    a = a.astype(np.uint8)
    a.flags.writeable = False
    return a


def _parse_system(raw) -> SystemConfig:
    if not isinstance(raw, dict):
        raise ValidationError("'system' must be an object")
    kwargs = {}
    for file_key, (field, kind) in _SYSTEM_KEYS.items():
        if file_key not in raw:
            raise ValidationError(f"system: missing key '{file_key}'")
        kwargs[field] = _typed(raw[file_key], kind, f"system: {file_key}")
    cfg = SystemConfig(**kwargs)
    for key in ("P_T_W", "B_W_Hz", "carrier_Hz", "rolloff", "T_slot_s",
                "gain_peak_dBi", "beamwidth_3dB_deg", "T_sys_K"):
        if not math.isfinite(kwargs[_SYSTEM_KEYS[key][0]]):
            raise ValidationError(f"system: {key} must be finite")
    for key in ("P_T_W", "B_W_Hz", "carrier_Hz", "T_slot_s", "T_sys_K",
                "gain_peak_dBi", "beamwidth_3dB_deg"):
        if kwargs[_SYSTEM_KEYS[key][0]] <= 0:
            raise ValidationError(f"system: {key} must be > 0")
    if not 0 <= cfg.rolloff < 1:
        raise ValidationError("system: rolloff must be in [0, 1)")
    if cfg.n_slot < 1:
        raise ValidationError("system: N_slot must be >= 1")
    if cfg.n_p < 1:
        raise ValidationError("system: N_P must be >= 1")
    if cfg.seed < 0:
        raise ValidationError("system: seed must be >= 0")
    return cfg


def _check_window_demand(system: SystemConfig, demands, clusters) -> None:
    """Each cluster's demand d and window demand N_slot * T_slot_s * d must
    be floats; the per-slot supply T_slot_s * c is checked once c is
    known (``precoding.cluster_capacities``)."""
    with np.errstate(over="ignore"):
        d = cluster_sums(demands, clusters)
    if not np.isfinite(d).all():
        raise ValidationError(f"cluster {int(np.isinf(d).argmax())}: its beam "
                              "demands sum beyond floating-point range")
    try:
        window = system.hopping_window_s * float(d.max())
    except OverflowError:  # an N_slot too large for a float
        window = math.inf
    if not math.isfinite(window):
        raise ValidationError(
            "system: T_slot_s and N_slot put the window demand "
            "N_slot * T_slot_s * d out of floating-point range")


def center_distances(centers: np.ndarray) -> np.ndarray:
    """Euclidean distances between every pair of beam centers (u, v); a
    distance beyond float range is inf."""
    du = centers[:, None, 0] - centers[None, :, 0]
    dv = centers[:, None, 1] - centers[None, :, 1]
    with np.errstate(over="ignore"):
        return np.sqrt(du * du + dv * dv)


def nominal_pitch(dist: np.ndarray) -> float:
    """Smallest nonzero pairwise center distance (the lattice pitch), from
    the ``center_distances`` matrix."""
    nz = dist[dist > 0]
    if nz.size == 0:
        raise ValidationError("all beam centers coincide; no pitch defined")
    return float(nz.min())


def beam_adjacency(dist: np.ndarray,
                   threshold: float | None = None) -> np.ndarray:
    """0/1 beam adjacency from the ``center_distances`` matrix: centers
    within ``threshold`` of each other.

    Default threshold is 1.1x the nominal pitch.
    """
    n = dist.shape[0]
    if threshold is None and n < 2:
        return np.zeros((n, n), dtype=np.uint8)
    if threshold is None:
        threshold = 1.1 * nominal_pitch(dist)
    if threshold <= 0:
        raise ValidationError("beam spacing threshold must be > 0")
    adj = (dist <= threshold).astype(np.uint8)
    np.fill_diagonal(adj, 0)
    return adj


def derive_adjacency(badj: np.ndarray, clusters) -> np.ndarray:
    """Cluster adjacency from a 0/1 beam adjacency (see ``beam_adjacency``).

    Clusters j < l are adjacent, both ways, iff ``badj[r, c]`` is nonzero
    for some beam r of j and c of l.
    """
    n_c = len(clusters)
    owner = np.full(len(badj), -1)  # each beam's cluster
    for j, members in enumerate(clusters):
        owner[list(members)] = j
    j, l = (owner[b] for b in np.divmod(np.flatnonzero(badj != 0), len(badj)))
    upper = (j >= 0) & (j < l)
    a = np.zeros((n_c, n_c), dtype=np.uint8)
    a[j[upper], l[upper]] = 1
    a |= a.T
    a.flags.writeable = False
    return a


def cluster_sums(x: np.ndarray, clusters) -> np.ndarray:
    """Per-cluster sums of a per-beam vector."""
    return np.array([x[list(ms)].sum() for ms in clusters], dtype=float)


def aggregate_and_scale_demands(scenario: Scenario) -> tuple[np.ndarray, np.ndarray]:
    """Per-cluster demand d (bps) and window demand m = T_H * d (bits)."""
    d = cluster_sums(scenario.demands, scenario.clusters)
    m = scenario.system.hopping_window_s * d
    return d, m


def scenario_summary(scenario: Scenario) -> dict:
    """Small JSON-friendly digest used by the CLI validate command."""
    d, m = aggregate_and_scale_demands(scenario)
    return {
        "n_beams": scenario.n_beams,
        "n_clusters": scenario.n_clusters,
        "cluster_sizes": [len(ms) for ms in scenario.clusters],
        "total_demand_bps": float(scenario.demands.sum()),
        "window_demand_bits": [float(x) for x in m],
        "n_p": scenario.system.n_p,
        "n_slot": scenario.system.n_slot,
    }
