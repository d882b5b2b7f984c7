import json

import numpy as np
import pytest

from clusterhop import channel, precoding
from clusterhop.planner import IlpInstance, solve_illumination
from clusterhop.scenario import aggregate_and_scale_demands, scenario_from_dict
from clusterhop.scenariogen import hex_scenario_dict
from clusterhop.snapshots import build_snapshot_set


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
def ref_scenario(ref_doc):
    return scenario_from_dict(ref_doc)


@pytest.fixture(scope="session")
def dvbs2():
    return precoding.load_dvbs2_table()


@pytest.fixture(scope="session")
def ref_channels(ref_scenario):
    return channel.build_all_cluster_channels(ref_scenario)


@pytest.fixture(scope="session")
def ref_caps(ref_scenario, ref_channels, dvbs2):
    return precoding.cluster_capacities(ref_scenario, ref_channels, dvbs2)


@pytest.fixture(scope="session")
def ref_snapshots(ref_scenario, ref_caps):
    return build_snapshot_set(ref_scenario.adjacency, ref_scenario.system.n_p,
                              ref_caps.p_cluster_bits)


@pytest.fixture(scope="session")
def ref_instance(ref_scenario, ref_snapshots):
    _, m = aggregate_and_scale_demands(ref_scenario)
    return IlpInstance(l=ref_snapshots.l, m=m, n_slot=ref_scenario.system.n_slot)


@pytest.fixture(scope="session")
def ref_plan(ref_instance):
    return solve_illumination(ref_instance)


@pytest.fixture(scope="session")
def ref_field(ref_scenario):
    return channel.build_beam_field(ref_scenario)


def random_snapshot_supply(rng, n_c: int, n_ss: int) -> np.ndarray:
    """A random supply of snapshot shape: row j is p_j, an integer from 0 to
    5 (0 is a cluster in outage), times a random 0/1 row."""
    p = rng.integers(0, 6, size=n_c)
    return (p[:, None] * rng.integers(0, 2, size=(n_c, n_ss))).astype(float)


def brute_force_valid_snapshots(adjacency: np.ndarray, n_p: int) -> list[tuple]:
    """Independent oracle: test every size-n_p combination directly."""
    import itertools

    n_c = adjacency.shape[0]
    out = []
    for combo in itertools.combinations(range(n_c), n_p):
        if all(adjacency[i, j] == 0
               for i, j in itertools.combinations(combo, 2)):
            out.append(combo)
    return out


def identity_precoder(h: np.ndarray, config, n_beams: int) -> np.ndarray:
    """No-precoding baseline: sqrt(P) * I, every feed at exactly P."""
    p = config.p_t_w / n_beams
    return np.sqrt(p) * np.eye(h.shape[0], dtype=complex)
