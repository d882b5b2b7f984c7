"""Regularized MMSE precoding, SNIR, DVB-S2 mapping and cluster capacities.

The precoder is W = beta * H^H (H H^H + (1/P) diag(tau))^{-1} with
P = P_T / N_B the per-beam power and beta chosen so that the largest
per-feed transmit power {W W^H}_ii equals exactly P. Spectral efficiency is a
step-function lookup in a MODCOD table shipped as CSV, and beam capacity is
SE * B_W / (1 + rolloff) per polarization.
"""
from __future__ import annotations

import csv
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .channel import ClusterChannel
from .errors import ParseError, ValidationError
from .scenario import Scenario, SystemConfig

# Guard for SNIR values that land on a MODCOD threshold up to float roundoff;
# the lookup is inclusive at the threshold.
_THRESHOLD_GUARD_DB = 1e-9


@dataclass(frozen=True)
class PrecoderResult:
    w: np.ndarray              # (Pi_j, Pi_j) complex precoding matrix
    beta: float
    per_feed_power_w: np.ndarray


@dataclass(frozen=True)
class Dvbs2Table:
    """MODCOD thresholds (dB) and spectral efficiencies, both strictly rising."""

    thresholds_db: np.ndarray
    se_bits_per_symbol: np.ndarray

    def __post_init__(self):
        t, se = self.thresholds_db, self.se_bits_per_symbol
        if t.ndim != 1 or t.shape != se.shape or t.size == 0:
            raise ValidationError("MODCOD table must be two equal-length columns")
        if not (np.diff(t) > 0).all():
            raise ValidationError("MODCOD thresholds must be strictly increasing")
        if not (np.diff(se) > 0).all():
            raise ValidationError("MODCOD efficiencies must be strictly increasing")


@dataclass(frozen=True)
class CapacityVector:
    snir_beam: np.ndarray       # (N_B,) per-beam linear SNIR under MMSE
    se_beam: np.ndarray         # (N_B,) per-beam spectral efficiency
    r_beam_bps: np.ndarray      # (N_B,) per-beam capacity
    c_cluster_bps: np.ndarray   # (N_C,) per-cluster capacity
    p_cluster_bits: np.ndarray  # (N_C,) supply per slot, T_slot * c


def load_dvbs2_table(source=None) -> Dvbs2Table:
    """Load a MODCOD CSV (header ``threshold_db,se_bits_per_symbol``), given
    by its path or as the file's bytes.

    With no source, the table bundled with the package is used.
    """
    if source is None:
        ref = resources.files("clusterhop").joinpath("data/dvbs2_modcods.csv")
        source = ref.read_bytes()
    elif not isinstance(source, bytes):
        with open(source, "rb") as fh:
            source = fh.read()
    try:  # UnicodeDecodeError is a ValueError
        rows = list(csv.DictReader(source.decode("utf-8").splitlines()))
        thr = np.array([float(r["threshold_db"]) for r in rows])
        se = np.array([float(r["se_bits_per_symbol"]) for r in rows])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad MODCOD table: {exc}") from exc
    return Dvbs2Table(thresholds_db=thr, se_bits_per_symbol=se)


def mmse_precoder(channel: ClusterChannel, config: SystemConfig, n_beams: int) -> PrecoderResult:
    """MMSE precoder of one cluster under the per-feed power constraint.

    ``n_beams`` is the system-wide beam count fixing P = P_T / N_B.
    """
    h = channel.h
    tau = channel.tau
    if not np.isfinite(h).all():
        raise ValidationError("channel matrix has non-finite entries")
    if (tau <= 0).any():
        raise ValidationError("noise powers must be strictly positive")
    p = config.p_t_w / n_beams
    if p <= 0:
        raise ValidationError("per-beam power must be positive")
    gram = h @ h.conj().T + np.diag(tau) / p
    w_hat = h.conj().T @ np.linalg.inv(gram)
    row_power = np.real(np.einsum("ij,ij->i", w_hat, w_hat.conj()))
    peak = row_power.max()
    if not peak > 0:  # underflow: beta would be inf and every SNIR NaN
        raise ValidationError(
            f"cluster {channel.cluster_id}: MMSE feed powers underflow to "
            f"{float(peak)!r}; P_T_W and T_sys_K put the link budget out of "
            "floating-point range"
        )
    beta = math.sqrt(p / peak)
    w = beta * w_hat
    per_feed = beta * beta * row_power
    return PrecoderResult(w=w, beta=beta, per_feed_power_w=per_feed)


def identity_precoder(channel: ClusterChannel, config: SystemConfig, n_beams: int) -> PrecoderResult:
    """No-precoding baseline: sqrt(P) * I, every feed at exactly P."""
    p = config.p_t_w / n_beams
    n = channel.size
    w = math.sqrt(p) * np.eye(n, dtype=complex)
    return PrecoderResult(w=w, beta=math.sqrt(p), per_feed_power_w=np.full(n, p))


def snir(channel: ClusterChannel, precoder: PrecoderResult) -> np.ndarray:
    """Per-beam linear SNIR at the beam-center users of one cluster."""
    hw = channel.h @ precoder.w
    power = np.abs(hw) ** 2
    signal = np.diag(power).copy()
    interference = power.sum(axis=1) - signal
    return signal / (interference + channel.tau)


def dvbs2_efficiency(snir_linear: float, table: Dvbs2Table) -> float:
    """Spectral efficiency of the best MODCOD whose threshold the SNIR meets.

    Returns 0 below the lowest threshold (outage). The comparison happens in
    dB and is inclusive at the threshold. A NaN SNIR is a ValidationError.
    """
    if math.isnan(snir_linear):
        raise ValidationError("SNIR is not a number; no MODCOD applies")
    if snir_linear <= 0:
        return 0.0
    snir_db = 10.0 * math.log10(snir_linear)
    idx = np.searchsorted(table.thresholds_db - _THRESHOLD_GUARD_DB, snir_db, side="right") - 1
    if idx < 0:
        return 0.0
    return float(table.se_bits_per_symbol[idx])


def beam_capacity_bps(se_bits_per_symbol: float, config: SystemConfig) -> float:
    """Capacity of one beam: SE * symbol rate, doubled under dual polarization."""
    r_pol = se_bits_per_symbol * config.b_w_hz / (1.0 + config.rolloff)
    return 2.0 * r_pol if config.dual_polarization else r_pol


def beam_links(
    scenario: Scenario,
    channels: list[ClusterChannel],
    table: Dvbs2Table,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-beam (linear SNIR, spectral efficiency, capacity bps) under MMSE."""
    cfg = scenario.system
    n_b = scenario.n_beams
    snir_lin = np.zeros(n_b)
    se = np.zeros(n_b)
    r = np.zeros(n_b)
    for channel in channels:
        members = scenario.clusters.members[channel.cluster_id]
        prec = mmse_precoder(channel, cfg, n_b)
        gammas = snir(channel, prec)
        for local, beam_idx in enumerate(members):
            snir_lin[beam_idx] = gammas[local]
            se[beam_idx] = dvbs2_efficiency(float(gammas[local]), table)
            r[beam_idx] = beam_capacity_bps(se[beam_idx], cfg)
    return snir_lin, se, r


def cluster_capacities(
    scenario: Scenario,
    channels: list[ClusterChannel],
    table: Dvbs2Table,
) -> CapacityVector:
    """Per-beam SNIR, SE and rates r, per-cluster capacities c and per-slot
    supplies p, from one MMSE precoder per cluster."""
    snir_lin, se, r = beam_links(scenario, channels, table)
    c = np.array(
        [r[list(ms)].sum() for ms in scenario.clusters.members]
    )
    p = scenario.system.t_slot_s * c
    for a in (snir_lin, se, r, c, p):
        a.flags.writeable = False
    return CapacityVector(snir_beam=snir_lin, se_beam=se, r_beam_bps=r,
                          c_cluster_bps=c, p_cluster_bits=p)
