"""Regularized MMSE precoding, SNIR, DVB-S2 mapping and cluster capacities.

The precoder is W = beta * H^H (H H^H + (tau/P) I)^{-1} with tau the
thermal noise power, P = P_T / N_B the per-beam power and beta chosen so
that the largest per-feed transmit power {W W^H}_ii equals exactly P.
Spectral efficiency is a step-function lookup in a MODCOD table shipped as
CSV, and beam capacity is SE * B_W / (1 + rolloff) per polarization.
"""
from __future__ import annotations

import csv
import functools
import math
from dataclasses import dataclass
from importlib import resources

import numpy as np

from .channel import noise_power_w
from .errors import ParseError, ValidationError
from .scenario import Scenario, SystemConfig, cluster_sums

# Guard for SNIR values that land on a MODCOD threshold up to float roundoff;
# the lookup is inclusive at the threshold.
_THRESHOLD_GUARD_DB = 1e-9


@dataclass(frozen=True)
class Dvbs2Table:
    """MODCOD thresholds (dB) and spectral efficiencies, both finite and
    strictly rising; the efficiencies are nonnegative."""

    thresholds_db: np.ndarray
    se_bits_per_symbol: np.ndarray

    def __post_init__(self):
        t, se = self.thresholds_db, self.se_bits_per_symbol
        if t.ndim != 1 or t.shape != se.shape or t.size == 0:
            raise ValidationError("MODCOD table must be two equal-length columns")
        if not np.isfinite(t).all():
            raise ValidationError("MODCOD threshold_db must be finite")
        if not (np.isfinite(se).all() and (se >= 0).all()):
            raise ValidationError(
                "MODCOD se_bits_per_symbol must be finite and nonnegative")
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


def load_dvbs2_table(source: bytes | None = None) -> Dvbs2Table:
    """Load a MODCOD CSV (header ``threshold_db,se_bits_per_symbol``) from
    the file's bytes, as a table with read-only arrays.

    With no source, the table bundled with the package is used: it is parsed
    once per process, and every such call returns that one table.
    """
    if source is None:
        return _bundled_dvbs2_table()
    try:  # UnicodeDecodeError is a ValueError
        rows = list(csv.DictReader(source.decode("utf-8").splitlines()))
        thr = np.array([float(r["threshold_db"]) for r in rows])
        se = np.array([float(r["se_bits_per_symbol"]) for r in rows])
    except (KeyError, TypeError, ValueError) as exc:
        raise ParseError(f"bad MODCOD table: {exc}") from exc
    for a in (thr, se):
        a.flags.writeable = False
    return Dvbs2Table(thresholds_db=thr, se_bits_per_symbol=se)


@functools.cache
def _bundled_dvbs2_table() -> Dvbs2Table:
    ref = resources.files("clusterhop").joinpath("data/dvbs2_modcods.csv")
    return load_dvbs2_table(ref.read_bytes())


def mmse_precoder(h: np.ndarray, tau: float, config: SystemConfig,
                  n_beams: int, cluster_id) -> np.ndarray:
    """MMSE precoder W for the channel ``h`` of cluster ``cluster_id`` (named
    in errors), with noise power ``tau`` (W) at every user, under the
    per-feed power constraint; or the stacked W of a stack of such channels
    over a leading axis, whose clusters ``cluster_id`` lists.

    ``n_beams`` is the system-wide beam count fixing P = P_T / N_B.
    """
    if not np.isfinite(h).all():
        raise ValidationError("channel matrix has non-finite entries")
    if not tau > 0:
        raise ValidationError("noise power must be strictly positive")
    p = config.p_t_w / n_beams
    if p <= 0:
        raise ValidationError("per-beam power must be positive")
    h_herm = np.swapaxes(h.conj(), -1, -2)
    gram = h @ h_herm + np.diag(np.full(h.shape[-2], tau)) / p
    w_hat = h_herm @ np.linalg.inv(gram)
    row_power = np.real(np.einsum("...ij,...ij->...i", w_hat, w_hat.conj()))
    peak = row_power.max(axis=-1)
    if not (peak > 0).all():  # underflow: beta would be inf and every SNIR NaN
        k = int(np.argmin(peak > 0))
        raise ValidationError(
            f"cluster {np.ravel(cluster_id)[k]}: MMSE feed powers underflow "
            f"to {float(np.ravel(peak)[k])!r}; P_T_W, B_W_Hz and T_sys_K (the "
            "noise power k_B * T_sys_K * B_W_Hz) put the link budget out of "
            "floating-point range"
        )
    return np.sqrt(p / peak)[..., None, None] * w_hat


def snir(h: np.ndarray, w: np.ndarray, tau: float) -> np.ndarray:
    """Per-beam linear SNIR at the beam-center users of one cluster, or a
    stack, with channel ``h``, precoder ``w`` and noise power ``tau`` (W)."""
    power = np.abs(h @ w) ** 2
    signal = np.diagonal(power, axis1=-2, axis2=-1)
    interference = power.sum(axis=-1) - signal
    return signal / (interference + tau)


def dvbs2_efficiency(snir_linear, table: Dvbs2Table):
    """Spectral efficiency of the best MODCOD whose threshold the SNIR meets,
    elementwise over a scalar or an array of linear SNIRs.

    Returns 0 below the lowest threshold (outage) and for a nonpositive SNIR.
    The comparison happens in dB and is inclusive at the threshold. The dB
    value is ``10 * math.log10`` of each element: ``np.log10`` differs from
    it in the last bit on some inputs, which moves a SNIR that sits on a
    threshold. A NaN SNIR is a ValidationError. A scalar gives a float.
    """
    snir_arr = np.asarray(snir_linear, dtype=float)
    if np.isnan(snir_arr).any():
        raise ValidationError("SNIR is not a number; no MODCOD applies")
    positive = snir_arr > 0
    snir_db = np.full(snir_arr.shape, -np.inf)
    snir_db[positive] = [10.0 * math.log10(x)
                         for x in snir_arr[positive].tolist()]
    idx = np.searchsorted(table.thresholds_db - _THRESHOLD_GUARD_DB, snir_db,
                          side="right") - 1
    se = np.where(positive & (idx >= 0),
                  table.se_bits_per_symbol[np.maximum(idx, 0)], 0.0)
    return float(se) if se.ndim == 0 else se


def beam_capacity_bps(se_bits_per_symbol, config: SystemConfig):
    """Capacity of a beam, elementwise: SE * symbol rate, doubled under dual
    polarization. A rate beyond float range is inf, without a warning;
    ``cluster_capacities`` refuses it."""
    with np.errstate(over="ignore"):
        r_pol = se_bits_per_symbol * config.b_w_hz / (1.0 + config.rolloff)
        return 2.0 * r_pol if config.dual_polarization else r_pol


def beam_links(
    scenario: Scenario,
    channels: list[np.ndarray],
    table: Dvbs2Table,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per-beam (linear SNIR, spectral efficiency, capacity bps) under MMSE,
    from each cluster's channel in cluster order, stacked by channel size."""
    cfg = scenario.system
    n_b = scenario.n_beams
    tau = noise_power_w(cfg)
    snir_lin = np.zeros(n_b)
    try:
        for shape in dict.fromkeys(h.shape for h in channels):
            ids = [j for j, h in enumerate(channels) if h.shape == shape]
            h = np.stack([channels[j] for j in ids])
            w = mmse_precoder(h, tau, cfg, n_b, ids)
            snir_lin[[b for j in ids for b in scenario.clusters[j]]] = snir(
                h, w, tau).ravel()
    except ValidationError:  # raise what the first failing cluster raises
        for j, h in enumerate(channels):
            mmse_precoder(h, tau, cfg, n_b, j)
        raise
    se = dvbs2_efficiency(snir_lin, table)
    return snir_lin, se, beam_capacity_bps(se, cfg)


def cluster_capacities(
    scenario: Scenario,
    channels: list[np.ndarray],
    table: Dvbs2Table,
) -> CapacityVector:
    """Per-beam SNIR, SE and rates r, per-cluster capacities c and per-slot
    supplies p, from one MMSE precoder per cluster."""
    snir_lin, se, r = beam_links(scenario, channels, table)
    with np.errstate(over="ignore"):
        c = cluster_sums(r, scenario.cluster_blocks)
    if not np.isfinite(c).all():  # an infinite r makes its cluster's c inf
        raise ValidationError(
            f"system: B_W_Hz = {scenario.system.b_w_hz!r} puts the capacity "
            f"of cluster {int(np.isinf(c).argmax())} beyond floating-point "
            "range")
    t_slot_s, c_max = scenario.system.t_slot_s, float(c.max())
    if not math.isfinite(t_slot_s * c_max):
        raise ValidationError(
            f"system: T_slot_s = {t_slot_s!r} puts the per-slot supply "
            f"T_slot_s * c out of floating-point range (largest c = {c_max!r}"
            " bps)")
    p = t_slot_s * c
    for a in (snir_lin, se, r, c, p):
        a.flags.writeable = False
    return CapacityVector(snir_beam=snir_lin, se_beam=se, r_beam_bps=r,
                          c_cluster_bps=c, p_cluster_bits=p)
