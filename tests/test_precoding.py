from importlib import resources

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from clusterhop import precoding
from clusterhop.channel import noise_power_w
from clusterhop.errors import ValidationError
from clusterhop.scenario import scenario_from_dict

from conftest import identity_precoder, toy_doc


def _config(p_t_w, n_beams=1, dual=True):
    doc = toy_doc()
    doc["system"]["P_T_W"] = p_t_w * n_beams
    return scenario_from_dict(doc).system


def test_scalar_precoder_hand_values():
    # H = 2, tau = 1, P = 1: regularized inverse gives 2/(4+1) = 0.4,
    # scaling sqrt(1/0.16) = 2.5, so W = 1 and the feed spends exactly P.
    cfg = _config(p_t_w=1.0)
    h = np.array([[2.0]], dtype=complex)
    w = precoding.mmse_precoder(h, 1.0, cfg, 1, 0)
    assert w[0, 0] == pytest.approx(1.0)
    assert (abs(w) ** 2).sum(axis=1)[0] == pytest.approx(1.0)


def test_diagonal_channel_gives_diagonal_precoder():
    cfg = _config(p_t_w=4.0)
    h = 3.0 * np.eye(4, dtype=complex)
    w = precoding.mmse_precoder(h, 1.0, cfg, 1, 0)
    off = w - np.diag(np.diag(w))
    assert np.abs(off).max() < 1e-12


def test_per_feed_power_cap_on_reference(ref_scenario, ref_channels):
    cfg = ref_scenario.system
    p = cfg.p_t_w / ref_scenario.n_beams
    tau = noise_power_w(cfg)
    for j, h in enumerate(ref_channels):
        w = precoding.mmse_precoder(h, tau, cfg, ref_scenario.n_beams, j)
        per_feed = (abs(w) ** 2).sum(axis=1)
        assert per_feed.max() == pytest.approx(p, rel=1e-9)
        assert (per_feed <= p * (1 + 1e-9)).all()


def test_snir_zero_interference():
    h = np.eye(2, dtype=complex) * 2.0
    w = np.eye(2, dtype=complex) * 3.0
    gammas = precoding.snir(h, w, 0.5)
    assert gammas == pytest.approx([36.0 / 0.5, 36.0 / 0.5])


def test_snir_scalar_example():
    cfg = _config(p_t_w=1.0)
    h = np.array([[2.0]], dtype=complex)
    w = precoding.mmse_precoder(h, 1.0, cfg, 1, 0)
    assert precoding.snir(h, w, 1.0)[0] == pytest.approx(4.0)


def test_snir_zero_precoder():
    h = np.ones((3, 3), dtype=complex)
    w = np.zeros((3, 3), dtype=complex)
    assert (precoding.snir(h, w, 1.0) == 0).all()


def test_mmse_beats_scaled_identity(ref_scenario, ref_channels):
    cfg = ref_scenario.system
    n_b = ref_scenario.n_beams
    tau = noise_power_w(cfg)
    for j, h in enumerate(ref_channels):
        mmse = precoding.mmse_precoder(h, tau, cfg, n_b, j)
        ident = identity_precoder(h, cfg, n_b)
        assert (precoding.snir(h, mmse, tau).min()
                >= precoding.snir(h, ident, tau).min())


def test_table_is_valid(dvbs2):
    assert (np.diff(dvbs2.thresholds_db) > 0).all()
    assert (np.diff(dvbs2.se_bits_per_symbol) > 0).all()


def test_table_rejects_unsorted():
    with pytest.raises(ValidationError):
        precoding.Dvbs2Table(thresholds_db=np.array([1.0, 0.5]),
                             se_bits_per_symbol=np.array([1.0, 2.0]))


def test_bundled_table_is_parsed_once_and_bytes_every_call():
    table = precoding.load_dvbs2_table()
    assert precoding.load_dvbs2_table() is table
    csv = resources.files("clusterhop").joinpath(
        "data/dvbs2_modcods.csv").read_bytes()
    first, second = (precoding.load_dvbs2_table(csv) for _ in range(2))
    assert first is not second and first is not table
    for loaded in (first, second):
        assert np.array_equal(loaded.thresholds_db, table.thresholds_db)
        assert np.array_equal(loaded.se_bits_per_symbol,
                              table.se_bits_per_symbol)
    for _ in range(2):  # the bad bytes are checked again on every call
        with pytest.raises(ValidationError, match="increasing"):
            precoding.load_dvbs2_table(
                b"threshold_db,se_bits_per_symbol\n1.0,1.0\n0.5,2.0\n")


def test_efficiency_below_floor_is_outage(dvbs2):
    low = 10 ** ((dvbs2.thresholds_db[0] - 1.0) / 10)
    assert precoding.dvbs2_efficiency(low, dvbs2) == 0.0
    assert precoding.dvbs2_efficiency(0.0, dvbs2) == 0.0


def test_nan_snir_maps_to_no_modcod(dvbs2):
    with pytest.raises(ValidationError, match="not a number"):
        precoding.dvbs2_efficiency(float("nan"), dvbs2)


def test_efficiency_inclusive_at_threshold(dvbs2):
    for thr, se in zip(dvbs2.thresholds_db, dvbs2.se_bits_per_symbol):
        snir = 10 ** (thr / 10)
        assert precoding.dvbs2_efficiency(snir, dvbs2) == se


def test_efficiency_between_rows(dvbs2):
    # 5.0 dB sits between the 4.68 and 5.18 dB rows of the shipped table
    snir = 10 ** (5.0 / 10)
    assert precoding.dvbs2_efficiency(snir, dvbs2) == pytest.approx(1.587196)


@given(st.floats(min_value=-10, max_value=25),
       st.floats(min_value=0, max_value=5))
@settings(max_examples=200, deadline=None)
def test_efficiency_monotone(dvbs2, snir_db, delta_db):
    lo = precoding.dvbs2_efficiency(10 ** (snir_db / 10), dvbs2)
    hi = precoding.dvbs2_efficiency(10 ** ((snir_db + delta_db) / 10), dvbs2)
    assert hi >= lo


def test_capacity_arithmetic():
    doc = toy_doc()
    doc["system"]["B_W_Hz"] = 500e6
    doc["system"]["rolloff"] = 0.2
    doc["system"]["dual_polarization"] = False
    cfg = scenario_from_dict(doc).system
    r = precoding.beam_capacity_bps(2.0, cfg)
    assert r == pytest.approx(833.3333333e6, rel=1e-9)


def test_dual_polarization_doubles(ref_doc):
    single = {**ref_doc, "system": {**ref_doc["system"],
                                    "dual_polarization": False}}
    sc_dual = scenario_from_dict(ref_doc)
    sc_single = scenario_from_dict(single)
    from clusterhop import channel as ch
    table = precoding.load_dvbs2_table()
    caps_dual = precoding.cluster_capacities(
        sc_dual, ch.build_all_cluster_channels(sc_dual), table)
    caps_single = precoding.cluster_capacities(
        sc_single, ch.build_all_cluster_channels(sc_single), table)
    assert caps_single.r_beam_bps == pytest.approx(caps_dual.r_beam_bps / 2)


def test_outage_capacity_zero(dvbs2):
    doc = toy_doc()
    doc["system"]["gain_peak_dBi"] = 1.0  # link closes nowhere
    sc = scenario_from_dict(doc)
    from clusterhop import channel as ch
    caps = precoding.cluster_capacities(
        sc, ch.build_all_cluster_channels(sc), dvbs2)
    assert not caps.r_beam_bps.any()
    assert not caps.c_cluster_bps.any()
    assert not caps.p_cluster_bits.any()


def test_capacity_invariants(ref_scenario, ref_caps):
    caps = ref_caps
    assert (caps.r_beam_bps >= 0).all()
    for j, members in enumerate(ref_scenario.clusters):
        assert caps.c_cluster_bps[j] == pytest.approx(
            caps.r_beam_bps[list(members)].sum())
    assert caps.p_cluster_bits == pytest.approx(
        ref_scenario.system.t_slot_s * caps.c_cluster_bps)
