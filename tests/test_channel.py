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
    assert (a.h == b.h).all()
    assert (a.tau == b.tau).all()


def test_channel_changes_with_seed(ref_doc):
    sc1 = scenario_from_dict(ref_doc)
    doc2 = {**ref_doc, "system": {**ref_doc["system"], "seed": 999}}
    sc2 = scenario_from_dict(doc2)
    h1 = channel.build_cluster_channel(sc1, 0).h
    h2 = channel.build_cluster_channel(sc2, 0).h
    assert not (h1 == h2).all()
    # magnitudes come from geometry only
    assert np.abs(h1) == pytest.approx(np.abs(h2))


def test_single_beam_cluster_magnitude():
    doc = toy_doc()
    doc["clusters"] = [[1], [2, 3, 4], [5, 6], [7, 8]]
    doc.pop("adjacency")
    sc = scenario_from_dict(doc)
    ch = channel.build_cluster_channel(sc, 0)
    cfg = sc.system
    g_peak = 10 ** (cfg.gain_peak_dbi / 10)
    g_rx = 10 ** (channel.RX_GAIN_DBI / 10)
    wavelength = channel.SPEED_OF_LIGHT_M_S / cfg.carrier_hz
    l_fs = (4 * math.pi * channel.SLANT_RANGE_M / wavelength) ** 2
    assert ch.h.shape == (1, 1)
    assert abs(ch.h[0, 0]) == pytest.approx(math.sqrt(g_peak * g_rx / l_fs))


def test_diagonal_dominance_all_clusters(ref_scenario, ref_channels):
    for ch in ref_channels:
        mags = np.abs(ch.h)
        for k in range(ch.size):
            off = np.delete(mags[k], k)
            if off.size:
                assert mags[k, k] > off.max()


def test_noise_positive_and_uniform(ref_channels):
    for ch in ref_channels:
        assert (ch.tau > 0).all()
        assert np.unique(ch.tau).size == 1


def test_unknown_cluster_id(ref_scenario):
    with pytest.raises(ValidationError, match="cluster"):
        channel.build_cluster_channel(ref_scenario, 99)


def test_beam_field_matches_cluster_channels(ref_scenario, ref_channels):
    field = channel.build_beam_field(ref_scenario)
    for ch in ref_channels:
        idx = np.array(ref_scenario.clusters.members[ch.cluster_id])
        sub = field.gains[np.ix_(idx, idx)]
        assert np.abs(ch.h) == pytest.approx(sub)

