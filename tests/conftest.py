import heapq
import importlib.util
import itertools
import json
import math
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from clusterhop import cli, precoding
from clusterhop.errors import CapExceededError
from clusterhop.planner import (STATUS_OPTIMAL, HoppingPlan, IlpInstance,
                                _framed)
from clusterhop.scenario import scenario_from_dict
from clusterhop.scenariogen import hex_scenario_dict


def toy_doc(n_slot=8, n_p=2, adjacency="path", demands=None):
    """Four clusters of two beams each, laid out on a line.

    Cluster centers sit 2 pitches apart so only consecutive clusters touch,
    giving the path adjacency 0-1-2-3 when derived from geometry.
    """
    pitch = 0.6
    beams = []
    demands = demands or [2e8, 1e8, 3e8, 2e8, 1e8, 4e8, 2e8, 2e8]
    for i in range(8):
        beams.append({
            "id": i + 1,
            "u": (i // 2) * 2 * pitch + (i % 2) * pitch,
            "v": 0.0,
            "demand_bps": demands[i],
        })
    doc = {
        "beams": beams,
        "clusters": [[1, 2], [3, 4], [5, 6], [7, 8]],
        "system": {
            "P_T_W": 100.0,
            "B_W_Hz": 100e6,
            "carrier_Hz": 19.5e9,
            "rolloff": 0.2,
            "T_slot_s": 1e-3,
            "N_slot": n_slot,
            "N_P": n_p,
            "dual_polarization": True,
            "gain_peak_dBi": 44.0,
            "beamwidth_3dB_deg": 0.6,
            "T_sys_K": 200.0,
            "seed": 7,
        },
    }
    if adjacency == "path":
        doc["adjacency"] = [
            [0, 1, 0, 0],
            [1, 0, 1, 0],
            [0, 1, 0, 1],
            [0, 0, 1, 0],
        ]
    elif adjacency == "complete":
        doc["adjacency"] = [[0 if i == j else 1 for j in range(4)]
                            for i in range(4)]
    return doc


def load_by_path(relative, name):
    """The module at ``relative`` in the repository, imported as ``name``;
    ``sys.path`` is left as it was, whatever the module adds to it."""
    path = Path(__file__).resolve().parents[1] / relative
    spec = importlib.util.spec_from_file_location(name, path)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    saved = sys.path[:]
    try:
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


# the benchmark's workloads, under the name the scripts import them by, so
# that one copy of the module serves the tests and the scripts
WORKLOADS = load_by_path("perfbench/workloads.py", "workloads").WORKLOADS


def seed_1_docs(name):
    """The scenario documents of a workload's seed-1 list, as the
    benchmark generates them."""
    workload = WORKLOADS[name]
    return [workload.scenario(workload.scenario_seed(1, k))
            for k in range(workload.scenarios)]


def pipeline(doc) -> cli.Pipeline:
    """The CLI's stages for a scenario document: its scenario file's bytes,
    the scenario's seed, the bundled MODCOD table and the exact solver."""
    return cli.Pipeline(json.dumps(doc).encode(), None, None, "ilp", "")


@pytest.fixture()
def toy_scenario():
    return scenario_from_dict(toy_doc())


@pytest.fixture()
def toy_file(tmp_path):
    path = tmp_path / "toy.json"
    path.write_text(json.dumps(toy_doc()))
    return path


@pytest.fixture(scope="session")
def ref_doc():
    return hex_scenario_dict()


@pytest.fixture(scope="session")
def ref_scenario(ref_pipeline):
    return ref_pipeline.scenario


@pytest.fixture(scope="session")
def dvbs2():
    return precoding.load_dvbs2_table()


@pytest.fixture(scope="session")
def ref_pipeline(ref_doc):
    return pipeline(ref_doc)


@pytest.fixture(scope="session")
def ref_channels(ref_pipeline):
    return ref_pipeline.channels


@pytest.fixture(scope="session")
def ref_caps(ref_pipeline):
    return ref_pipeline.capacities


@pytest.fixture(scope="session")
def ref_snapshots(ref_pipeline):
    return ref_pipeline.snapshots


@pytest.fixture(scope="session")
def ref_instance(ref_pipeline):
    return ref_pipeline.instance


@pytest.fixture(scope="session")
def ref_plan(ref_pipeline):
    return ref_pipeline.plan


@pytest.fixture(scope="session")
def ref_field(ref_pipeline):
    return ref_pipeline.field


def random_snapshot_supply(rng, n_c: int, n_ss: int) -> np.ndarray:
    """A random supply of snapshot shape: row j is p_j, an integer from 0 to
    5 (0 is a cluster in outage), times a random 0/1 row."""
    p = rng.integers(0, 6, size=n_c)
    return (p[:, None] * rng.integers(0, 2, size=(n_c, n_ss))).astype(float)


def brute_force_valid_snapshots(adjacency: np.ndarray, n_p: int) -> list[tuple]:
    """Independent oracle: test every size-n_p combination directly."""
    n_c = adjacency.shape[0]
    out = []
    for combo in itertools.combinations(range(n_c), n_p):
        if all(adjacency[i, j] == 0
               for i, j in itertools.combinations(combo, 2)):
            out.append(combo)
    return out


DEFAULT_BRUTE_FORCE_CAP = 10 ** 7


def brute_force_plan(instance: IlpInstance,
                     cap: int = DEFAULT_BRUTE_FORCE_CAP) -> HoppingPlan:
    """Globally optimal plan by exhaustive enumeration of count vectors.

    Count vectors are visited in lexicographic order and only strict
    improvements are kept, so the returned optimizer is the lexicographically
    smallest one. Raises CapExceededError when the composition count
    C(n_slot + N_ss - 1, N_ss - 1) exceeds ``cap``.
    """
    return _framed(instance, lambda inst, _: _enumerated_counts(inst, cap),
                   STATUS_OPTIMAL)


def _enumerated_counts(instance: IlpInstance, cap: int) -> np.ndarray:
    n_ss, n_slot = instance.n_snapshots, instance.n_slot
    n_compositions = math.comb(n_slot + n_ss - 1, n_ss - 1)
    if n_compositions > cap:
        raise CapExceededError(
            f"{n_compositions} count vectors exceed the brute-force cap {cap}"
        )
    m_dem = instance.m[instance.demanded]
    l_dem = instance.l[instance.demanded]

    best_t, best_psi = -1.0, None  # every t is >= 0
    psi = np.zeros(n_ss, dtype=int)

    def recurse(pos: int, remaining: int, s_dem: np.ndarray) -> None:
        nonlocal best_t, best_psi
        if pos == n_ss - 1:
            psi[pos] = remaining
            t = float(((s_dem + remaining * l_dem[:, pos]) / m_dem).min())
            if t > best_t:
                best_t = t
                best_psi = psi.copy()
            psi[pos] = 0
            return
        for count in range(remaining + 1):
            psi[pos] = count
            recurse(pos + 1, remaining - count, s_dem + count * l_dem[:, pos])
        psi[pos] = 0

    recurse(0, n_slot, np.zeros(len(m_dem)))
    return best_psi


def identity_precoder(h: np.ndarray, config, n_beams: int) -> np.ndarray:
    """No-precoding baseline: sqrt(P) * I, every feed at exactly P."""
    p = config.p_t_w / n_beams
    return np.sqrt(p) * np.eye(h.shape[0], dtype=complex)


# ---------------------------------------------------------------------------
# The threshold walk's arithmetic in Fractions: the reference that the
# planner's integers in one unit must match

def fraction_spacing(p, m) -> list:
    """The exact spacings p_j / m_j of floats, as Fractions."""
    return [Fraction(pj) / Fraction(mj) for pj, mj in zip(p, m)]


def fraction_thresholds(spacing, lo, hi) -> list:
    """Every K * spacing_j with lo < K * spacing_j <= hi, descending, each
    once."""
    rows = [map(c.__mul__, range(hi // c, lo // c, -1)) for c in spacing]
    return [g for g, _ in itertools.groupby(heapq.merge(*rows,
                                                        reverse=True))]


def fraction_requirement(spacing, g) -> list:
    """k_j = ceil(g / spacing_j)."""
    return [math.ceil(g / c) for c in spacing]


def fraction_exact_t(v, spacing, psi) -> Fraction:
    """min_j (V_j psi) * spacing_j, with V psi summed in Python ints."""
    return min(sum(int(k) for k, lit in zip(psi, row) if lit) * c
               for row, c in zip(v.tolist(), spacing))


def fraction_tau_column(spacing) -> list:
    """The root LP's tau column: -float(s_min / s_j)."""
    s_min = min(spacing)
    return [-float(s_min / c) for c in spacing]
