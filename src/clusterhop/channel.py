"""Link-budget channel model: Gaussian beam taper over a GEO downlink.

Channel entries are dimensionless amplitude gains |H| = sqrt(G_tx G_rx / L_fs)
with noise power kept explicit in watts, so that signal and noise can be
combined without further normalization. Phases are drawn uniformly per
(seed, cluster, beam pair) from independent RNG streams, which makes channel
construction reproducible and order-independent.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ValidationError
from .scenario import Scenario, SystemConfig

SPEED_OF_LIGHT_M_S = 299_792_458.0
BOLTZMANN_J_K = 1.380_649e-23

# Receive-side constants of the synthetic link budget. The user terminal is a
# fixed-gain dish at every beam center; the slant range is a single GEO value
# for the whole (angularly small) coverage.
RX_GAIN_DBI = 40.0
SLANT_RANGE_M = 38.5e6


@dataclass(frozen=True)
class ClusterChannel:
    """Square complex channel of one cluster plus per-beam noise powers (W)."""

    cluster_id: int
    h: np.ndarray    # (Pi_j, Pi_j) complex amplitude gains, row = receiving user
    tau: np.ndarray  # (Pi_j,) noise powers, W

    @property
    def size(self) -> int:
        return self.h.shape[0]


@dataclass(frozen=True)
class BeamField:
    """Beam-level |H| magnitudes across the whole coverage, for the
    no-precoding benchmark schemes and cross-cluster diagnostics."""

    gains: np.ndarray  # (N_B, N_B) amplitude |H|, row = receiving user
    tau: np.ndarray    # (N_B,) noise powers over the full bandwidth, W


def beam_gain(offaxis_angle_deg: float | np.ndarray, config: SystemConfig):
    """Linear transmit power gain of the Gaussian taper at an off-axis angle.

    ``beamwidth_3db_deg`` is the full 3 dB width: the half-power point sits at
    half that angle, and the gain at one full width is peak/16.
    """
    g_peak = 10.0 ** (config.gain_peak_dbi / 10.0)
    ratio = np.asarray(offaxis_angle_deg, dtype=float) / config.beamwidth_3db_deg
    return g_peak * np.exp(-4.0 * math.log(2.0) * ratio ** 2)


def free_space_loss(config: SystemConfig) -> float:
    """Linear free-space loss at the fixed GEO slant range."""
    wavelength = SPEED_OF_LIGHT_M_S / config.carrier_hz
    return (4.0 * math.pi * SLANT_RANGE_M / wavelength) ** 2


def noise_power_w(config: SystemConfig, bandwidth_hz: float | None = None) -> float:
    """Thermal noise power k_B * T_sys * B over the given bandwidth."""
    if bandwidth_hz is None:
        bandwidth_hz = config.b_w_hz
    return BOLTZMANN_J_K * config.t_sys_k * bandwidth_hz


def gain_magnitude_matrix(scenario: Scenario) -> np.ndarray:
    """(N_B, N_B) amplitude gains |H_ki|: user at beam-center k from feed i."""
    cfg = scenario.system
    centers = scenario.centers
    diff = centers[:, None, :] - centers[None, :, :]
    angles = np.sqrt((diff ** 2).sum(axis=2))
    g_tx = beam_gain(angles, cfg)
    g_rx = 10.0 ** (RX_GAIN_DBI / 10.0)
    return np.sqrt(g_tx * g_rx / free_space_loss(cfg))


def build_beam_field(scenario: Scenario) -> BeamField:
    gains = gain_magnitude_matrix(scenario)
    tau = np.full(scenario.n_beams, noise_power_w(scenario.system))
    gains.flags.writeable = False
    tau.flags.writeable = False
    return BeamField(gains=gains, tau=tau)


def _pair_phase(seed: int, cluster_id: int, rx_beam: int, tx_beam: int) -> float:
    ss = np.random.SeedSequence([seed, cluster_id, rx_beam, tx_beam])
    return float(np.random.default_rng(ss).uniform(0.0, 2.0 * math.pi))


def build_cluster_channel(scenario: Scenario, cluster_id: int) -> ClusterChannel:
    """Complex channel of one cluster, deterministic per (scenario, seed).

    Magnitudes come from the gain model; phases are uniform on [0, 2*pi),
    one independent stream per (seed, cluster, beam pair).
    """
    if not 0 <= cluster_id < scenario.n_clusters:
        raise ValidationError(f"unknown cluster id {cluster_id}")
    members = scenario.clusters.members[cluster_id]
    idx = np.array(members, dtype=int)
    mags = gain_magnitude_matrix(scenario)[np.ix_(idx, idx)]
    seed = scenario.system.seed
    n = len(members)
    phases = np.empty((n, n), dtype=float)
    for k in range(n):
        for i in range(n):
            phases[k, i] = _pair_phase(seed, cluster_id, members[k], members[i])
    h = mags * np.exp(1j * phases)
    tau = np.full(n, noise_power_w(scenario.system))
    if not np.isfinite(h).all():
        raise ValidationError(f"cluster {cluster_id}: non-finite channel entries")
    h.flags.writeable = False
    tau.flags.writeable = False
    return ClusterChannel(cluster_id=cluster_id, h=h, tau=tau)


def build_all_cluster_channels(scenario: Scenario) -> list[ClusterChannel]:
    return [build_cluster_channel(scenario, j) for j in range(scenario.n_clusters)]
