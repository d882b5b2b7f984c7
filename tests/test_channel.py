import math

import numpy as np
import pytest

from clusterhop import channel
from clusterhop.errors import ValidationError
from clusterhop.scenario import scenario_from_dict

from conftest import toy_doc


def test_gain_at_boresight(ref_scenario):
    cfg = ref_scenario.system
    peak = 10 ** (cfg.gain_peak_dbi / 10)
    assert channel.beam_gain(0.0, cfg) == pytest.approx(peak)


def test_gain_half_power_at_half_width(ref_scenario):
    cfg = ref_scenario.system
    peak = 10 ** (cfg.gain_peak_dbi / 10)
    g = channel.beam_gain(cfg.beamwidth_3db_deg / 2, cfg)
    assert g == pytest.approx(peak / 2, rel=1e-12)


def test_gain_at_full_width_is_sixteenth(ref_scenario):
    cfg = ref_scenario.system
    peak = 10 ** (cfg.gain_peak_dbi / 10)
    # independent evaluation of the taper formula
    expected = peak * math.exp(-4 * math.log(2))
    g = channel.beam_gain(cfg.beamwidth_3db_deg, cfg)
    assert g == pytest.approx(expected, rel=1e-12)
    assert g == pytest.approx(peak / 16, rel=1e-12)


def test_gain_monotone_nonincreasing(ref_scenario):
    cfg = ref_scenario.system
    angles = np.linspace(0, 5, 200)
    gains = channel.beam_gain(angles, cfg)
    assert (np.diff(gains) <= 0).all()


def test_channel_determinism(ref_scenario):
    a = channel.build_cluster_channel(ref_scenario, 3)
    b = channel.build_cluster_channel(ref_scenario, 3)
    assert (a == b).all()


def test_channel_changes_with_seed(ref_doc):
    sc1 = scenario_from_dict(ref_doc)
    doc2 = {**ref_doc, "system": {**ref_doc["system"], "seed": 999}}
    sc2 = scenario_from_dict(doc2)
    h1 = channel.build_cluster_channel(sc1, 0)
    h2 = channel.build_cluster_channel(sc2, 0)
    assert not (h1 == h2).all()
    # magnitudes come from geometry only
    assert np.abs(h1) == pytest.approx(np.abs(h2))


def test_single_beam_cluster_magnitude():
    doc = toy_doc()
    doc["clusters"] = [[1], [2, 3, 4], [5, 6], [7, 8]]
    doc.pop("adjacency")
    sc = scenario_from_dict(doc)
    h = channel.build_cluster_channel(sc, 0)
    cfg = sc.system
    g_peak = 10 ** (cfg.gain_peak_dbi / 10)
    g_rx = 10 ** (channel.RX_GAIN_DBI / 10)
    wavelength = channel.SPEED_OF_LIGHT_M_S / cfg.carrier_hz
    l_fs = (4 * math.pi * channel.SLANT_RANGE_M / wavelength) ** 2
    assert h.shape == (1, 1)
    assert abs(h[0, 0]) == pytest.approx(math.sqrt(g_peak * g_rx / l_fs))


def test_diagonal_dominance_all_clusters(ref_scenario, ref_channels):
    for h in ref_channels:
        mags = np.abs(h)
        for k in range(h.shape[0]):
            off = np.delete(mags[k], k)
            if off.size:
                assert mags[k, k] > off.max()


def test_noise_positive(ref_scenario):
    assert channel.noise_power_w(ref_scenario.system) > 0


def test_unknown_cluster_id(ref_scenario):
    with pytest.raises(ValidationError, match="cluster"):
        channel.build_cluster_channel(ref_scenario, 99)


def test_beam_field_matches_cluster_channels(ref_scenario, ref_channels):
    field = channel.build_beam_field(ref_scenario)
    for h, members in zip(ref_channels, ref_scenario.clusters):
        idx = np.array(members)
        sub = field[np.ix_(idx, idx)]
        assert np.abs(h) == pytest.approx(sub)


def _numpy_phases(seed, cluster_id, members):
    """The scalar reference: one NumPy generator per (rx, tx) beam pair."""
    def phase(rx, tx):
        ss = np.random.SeedSequence([seed, cluster_id, rx, tx])
        return np.random.default_rng(ss).uniform(0.0, 2.0 * math.pi)
    return np.array([[phase(rx, tx) for tx in members] for rx in members])


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**32 + 7, 2**70 + 3])
@pytest.mark.parametrize("cluster_id", [0, 5])
def test_pair_phases_match_numpy_streams(seed, cluster_id):
    # beam 0 and cluster 0 are one-word [0] entropy; seeds from 2**32 up are
    # several words and take SeedSequence's extra mixing rounds
    members = [0, 1, 9, 70, 299]
    got = channel._pair_phases(seed, cluster_id, members)
    assert np.array_equal(got, _numpy_phases(seed, cluster_id, members))


@pytest.mark.parametrize("beam", [0, 42])
def test_single_beam_phase_matches_numpy_stream(beam):
    got = channel._pair_phases(3, 0, [beam])
    assert got.shape == (1, 1)
    assert np.array_equal(got, _numpy_phases(3, 0, [beam]))


@pytest.mark.parametrize("seed", [None, 2**70 + 3])
def test_reference_channels_match_scalar_construction(ref_doc, seed):
    doc = ref_doc
    if seed is not None:
        doc = {**ref_doc, "system": {**ref_doc["system"], "seed": seed}}
    sc = scenario_from_dict(doc)
    gains = channel.gain_magnitude_matrix(sc)
    for j, members in enumerate(sc.clusters):
        idx = np.array(members)
        phases = _numpy_phases(sc.system.seed, j, members)
        got = channel._pair_phases(sc.system.seed, j, members)
        assert np.array_equal(got, phases)
        expected = gains[np.ix_(idx, idx)] * np.exp(1j * phases)
        assert np.array_equal(channel.build_cluster_channel(sc, j), expected)


def test_reference_channel_golden(ref_scenario):
    # A change in the phase streams or the gain model fails here instead of
    # silently changing every artifact downstream.
    h = channel.build_cluster_channel(ref_scenario, 0)
    assert repr(h[:2, :2].tolist()) == (
        "[[(1.5720683004576734e-07+7.825728896089945e-07j), "
        "(-1.7081090456846335e-07+1.0317232987588761e-07j)], "
        "[(1.9588389535266187e-07-3.8084042760493244e-08j), "
        "(6.684883627714256e-07+4.361853090180701e-07j)]]")
