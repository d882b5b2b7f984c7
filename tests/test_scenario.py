import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhop.cli import main
from clusterhop.errors import ParseError, ValidationError
from clusterhop.scenario import (aggregate_and_scale_demands,
                                 beam_adjacency, center_distances,
                                 derive_adjacency, load_scenario,
                                 nominal_pitch, scenario_from_dict)
from clusterhop.scenariogen import hex_scenario_dict

from conftest import toy_doc


def test_reference_scenario_shape(ref_scenario):
    assert ref_scenario.n_beams == 71
    assert ref_scenario.n_clusters == 12
    sizes = sorted(len(ms) for ms in ref_scenario.clusters)
    assert sizes == [5] + [6] * 11


def test_load_scenario_roundtrip(tmp_path, ref_doc):
    path = tmp_path / "ref.json"
    path.write_text(json.dumps(ref_doc))
    sc = load_scenario(path)
    assert sc.n_beams == 71
    assert sc.n_clusters == 12


def test_load_rejects_bad_json(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text("{not json")
    with pytest.raises(ParseError):
        load_scenario(path)


def test_beam_in_two_clusters_rejected():
    doc = toy_doc()
    doc["clusters"][1] = [2, 3]  # beam 2 already in cluster 0
    with pytest.raises(ValidationError, match="partition"):
        scenario_from_dict(doc)


def test_unassigned_beam_rejected():
    doc = toy_doc()
    doc["clusters"][3] = [7]
    with pytest.raises(ValidationError, match="no cluster"):
        scenario_from_dict(doc)


def test_non_contiguous_ids_rejected():
    doc = toy_doc()
    doc["beams"][3]["id"] = 99
    with pytest.raises(ValidationError, match="contiguous"):
        scenario_from_dict(doc)


def test_negative_demand_rejected():
    doc = toy_doc()
    doc["beams"][0]["demand_bps"] = -1.0
    with pytest.raises(ValidationError, match="demand"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key,value", [
    ("demand_bps", float("nan")),
    ("demand_bps", float("inf")),
    ("u", float("inf")),
    ("v", float("nan")),
])
def test_non_finite_beam_value_rejected(key, value):
    doc = toy_doc()
    doc["beams"][2][key] = value
    with pytest.raises(ValidationError, match=f"{key} must be finite"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key", ["P_T_W", "B_W_Hz", "carrier_Hz", "T_slot_s",
                                 "gain_peak_dBi", "beamwidth_3dB_deg",
                                 "T_sys_K"])
def test_non_finite_system_value_rejected(key):
    doc = toy_doc()
    doc["system"][key] = float("inf")
    with pytest.raises(ValidationError, match=f"system: {key} must be finite"):
        scenario_from_dict(doc)


def test_non_finite_integer_system_value_rejected():
    doc = toy_doc()
    doc["system"]["N_slot"] = float("inf")
    with pytest.raises(ValidationError, match="system"):
        scenario_from_dict(doc)


@pytest.mark.parametrize("key,value", [
    ("dual_polarization", "false"),
    ("dual_polarization", 0),
    ("dual_polarization", None),
    ("N_slot", 8.9),
    ("N_slot", 8.0),
    ("N_slot", True),
    ("N_P", 2.5),
    ("N_P", "2"),
    ("seed", 1.5),
    ("seed", False),
    ("P_T_W", "100"),
    ("rolloff", False),
])
def test_mistyped_system_value_rejected(key, value):
    doc = toy_doc()
    doc["system"][key] = value
    with pytest.raises(ValidationError, match=f"system: {key} must be a JSON"):
        load_scenario(json.dumps(doc).encode())


@pytest.mark.parametrize("key,value", [
    ("id", 1.9),
    ("id", True),
    ("id", "1"),
    ("u", "0.0"),
    ("demand_bps", "2e8"),
    ("demand_bps", True),
])
def test_mistyped_beam_value_rejected(key, value):
    doc = toy_doc()
    doc["beams"][0][key] = value
    with pytest.raises(ValidationError, match=f"{key} must be a JSON"):
        load_scenario(json.dumps(doc).encode())


@pytest.mark.parametrize("bid", [True, 3.0, "3"])
def test_mistyped_cluster_member_rejected(bid):
    doc = toy_doc()
    doc["clusters"][1] = [bid, 4]
    with pytest.raises(ValidationError, match="cluster 1: unknown beam id"):
        load_scenario(json.dumps(doc).encode())


@pytest.mark.parametrize("value", [0.7, 1.9, True, "1", None])
def test_mistyped_adjacency_entry_rejected(value):
    doc = toy_doc()  # path adjacency: clusters 0 and 1 touch
    doc["adjacency"][0][1] = doc["adjacency"][1][0] = value
    with pytest.raises(ValidationError, match="adjacency must be"):
        load_scenario(json.dumps(doc).encode())


def test_oversized_adjacency_entry_rejected():
    doc = toy_doc()
    doc["adjacency"][0][1] = doc["adjacency"][1][0] = 10 ** 30
    with pytest.raises(ValidationError, match="adjacency"):
        load_scenario(json.dumps(doc).encode())


def test_mistyped_value_exits_2(tmp_path, capsys):
    doc = toy_doc()
    doc["system"]["dual_polarization"] = "false"
    path = tmp_path / "scenario.json"
    path.write_text(json.dumps(doc))
    assert main(["validate", "--scenario", str(path)]) == 2
    assert "dual_polarization must be a JSON boolean" in capsys.readouterr().err


def test_json_integers_accepted_for_float_fields():
    doc = toy_doc()
    doc["system"]["P_T_W"] = 100
    doc["beams"][0]["demand_bps"] = 200_000_000
    sc = load_scenario(json.dumps(doc).encode())
    assert sc.system.p_t_w == 100.0 and isinstance(sc.system.p_t_w, float)
    assert sc.demands[0] == 2e8


def test_asymmetric_adjacency_rejected():
    doc = toy_doc()
    doc["adjacency"][0][1] = 0  # mirror entry left at 1
    with pytest.raises(ValidationError, match="symmetric"):
        scenario_from_dict(doc)


def test_explicit_path_adjacency_echo(toy_scenario):
    a = toy_scenario.adjacency
    expected = np.zeros((4, 4), dtype=int)
    for i, j in [(0, 1), (1, 2), (2, 3)]:
        expected[i, j] = expected[j, i] = 1
    assert (a == expected).all()


def test_derived_adjacency_matches_explicit():
    doc = toy_doc()
    del doc["adjacency"]
    sc = scenario_from_dict(doc)
    expected = scenario_from_dict(toy_doc()).adjacency
    assert (sc.adjacency == expected).all()


def test_touching_and_isolated_clusters():
    centers = np.array([[0.0, 0.0], [1.0, 0.0], [2.0, 0.0], [3.0, 0.0]])
    cmap = ((0, 1), (2, 3))
    dist = center_distances(centers)
    touching = derive_adjacency(beam_adjacency(dist, 1.1), cmap)
    assert touching[0, 1] == 1 and touching[1, 0] == 1
    apart = derive_adjacency(beam_adjacency(dist, 0.5), cmap)
    assert not apart.any()


def test_hex71_adjacency_against_distance_oracle(ref_scenario):
    centers = ref_scenario.centers
    pitch = nominal_pitch(center_distances(centers))
    threshold = 1.1 * pitch
    members = ref_scenario.clusters
    a = ref_scenario.adjacency
    n_c = ref_scenario.n_clusters
    for j in range(n_c):
        for l in range(n_c):
            if j == l:
                assert a[j, l] == 0
                continue
            touching = any(
                np.hypot(*(centers[bi] - centers[bk])) <= threshold
                for bi in members[j]
                for bk in members[l]
            )
            assert a[j, l] == (1 if touching else 0)
    assert (a == a.T).all()


def test_aggregate_demand_sum():
    doc = toy_doc(demands=[1e6, 2e6] + [0.0] * 6)
    sc = scenario_from_dict(doc)
    d, m = aggregate_and_scale_demands(sc)
    assert d[0] == 3e6
    assert m[0] == pytest.approx(sc.system.hopping_window_s * 3e6)


def test_window_demand_example():
    doc = toy_doc(demands=[1e6, 2e6] + [0.0] * 6)
    doc["system"]["T_slot_s"] = 1.3e-3
    doc["system"]["N_slot"] = 256
    sc = scenario_from_dict(doc)
    _, m = aggregate_and_scale_demands(sc)
    assert m[0] == pytest.approx(998_400.0, rel=1e-12)


def test_zero_demands_aggregate():
    doc = toy_doc(demands=[0.0] * 8)
    sc = scenario_from_dict(doc)
    d, m = aggregate_and_scale_demands(sc)
    assert not d.any() and not m.any()


@given(st.lists(st.floats(min_value=0, max_value=1e9), min_size=8, max_size=8))
@settings(max_examples=50, deadline=None)
def test_demand_conservation(demands):
    sc = scenario_from_dict(toy_doc(demands=demands))
    d, _ = aggregate_and_scale_demands(sc)
    assert d.sum() == pytest.approx(sum(demands), rel=1e-12, abs=1e-9)


@given(st.integers(min_value=2, max_value=16), st.integers(min_value=0, max_value=10**6))
@settings(max_examples=40, deadline=None)
def test_derived_adjacency_symmetric_zero_diagonal(n, seed):
    rng = np.random.default_rng(seed)
    centers = rng.uniform(-3, 3, size=(n, 2))
    half = max(1, n // 2)
    cmap = (tuple(range(half)), tuple(range(half, n)))
    adj = derive_adjacency(beam_adjacency(center_distances(centers), 1.0),
                           cmap)
    assert (adj == adj.T).all()
    assert not np.diag(adj).any()


def test_beam_adjacency_default_threshold(ref_scenario):
    badj = beam_adjacency(center_distances(ref_scenario.centers))
    assert (badj == badj.T).all()
    assert not np.diag(badj).any()
    # hex interior beams touch six neighbors at most
    assert badj.sum(axis=1).max() <= 6


@pytest.mark.parametrize("name", ["ref", "toy_explicit", "hex_300_12"])
def test_scenario_keeps_the_beam_adjacency(ref_doc, name):
    doc = {"ref": ref_doc, "toy_explicit": toy_doc(),
           "hex_300_12": hex_scenario_dict(300, 12)}[name]
    sc = scenario_from_dict(doc)
    assert np.array_equal(sc.distances, center_distances(sc.centers))
    assert np.array_equal(sc.beam_adjacency, beam_adjacency(sc.distances))
    assert sc.beam_adjacency.dtype == np.uint8
    for array in (sc.centers, sc.demands, sc.distances, sc.beam_adjacency):
        assert not array.flags.writeable


def test_coincident_centers_rejected_with_explicit_adjacency():
    doc = toy_doc()
    for beam in doc["beams"]:
        beam["u"] = beam["v"] = 0.0
    with pytest.raises(ValidationError, match="coincide"):
        scenario_from_dict(doc)


def test_generator_demand_spread(ref_scenario):
    demands = ref_scenario.demands
    assert demands.max() / demands.min() >= 4.0


def test_n_p_above_cluster_count_rejected():
    doc = toy_doc()
    doc["system"]["N_P"] = 5
    with pytest.raises(ValidationError, match="N_P"):
        scenario_from_dict(doc)


def test_generator_is_deterministic():
    assert hex_scenario_dict() == hex_scenario_dict()
