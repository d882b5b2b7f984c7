"""Link-budget channel model: Gaussian beam taper over a GEO downlink.

Channel entries are dimensionless amplitude gains |H| = sqrt(G_tx G_rx / L_fs)
with noise power kept explicit in watts, so that signal and noise can be
combined without further normalization. Phases are drawn uniformly per
(seed, cluster, beam pair) from independent RNG streams, which makes channel
construction reproducible and order-independent.

Each pair's phase is the first draw of
``np.random.default_rng(np.random.SeedSequence([seed, cluster, rx, tx]))
.uniform(0, 2*pi)``. Instead of building one generator per pair, a cluster's
n x n phases are computed in one pass with elementwise integer arithmetic that
reproduces NumPy's SeedSequence pool mixing and its PCG64 (XSL-RR) stream bit
for bit (O'Neill, *PCG*, HMC-CS-2014-0905).
"""
from __future__ import annotations

import math
import sys
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


def beam_gain(offaxis_angle_deg: float | np.ndarray, config: SystemConfig):
    """Linear transmit power gain of the Gaussian taper at an off-axis angle.

    ``beamwidth_3db_deg`` is the full 3 dB width: the half-power point sits at
    half that angle, and the gain at one full width is peak/16.
    """
    g_peak = _peak_gain(config)
    ratio = np.asarray(offaxis_angle_deg, dtype=float) / config.beamwidth_3db_deg
    return g_peak * np.exp(-4.0 * math.log(2.0) * ratio ** 2)


def _peak_gain(config: SystemConfig) -> float:
    try:
        return 10.0 ** (config.gain_peak_dbi / 10.0)
    except OverflowError:
        raise _out_of_range("gain_peak_dBi", config.gain_peak_dbi) from None


def free_space_loss(config: SystemConfig) -> float:
    """Linear free-space loss at the fixed GEO slant range."""
    wavelength = SPEED_OF_LIGHT_M_S / config.carrier_hz
    try:
        loss = (4.0 * math.pi * SLANT_RANGE_M / wavelength) ** 2
    except OverflowError:
        loss = math.inf
    if not 0 < loss < math.inf:
        raise _out_of_range("carrier_Hz", config.carrier_hz)
    return loss


def _out_of_range(field: str, value: float) -> ValidationError:
    return ValidationError(
        f"system: {field} = {value!r} puts the link budget out of "
        "floating-point range"
    )


def noise_power_w(config: SystemConfig, bandwidth_hz: float | None = None) -> float:
    """Thermal noise power k_B * T_sys * B over the given bandwidth. A noise
    power below the smallest normal float is a ValidationError: the SNIR
    divide would overflow."""
    if bandwidth_hz is None:
        bandwidth_hz = config.b_w_hz
    tau = BOLTZMANN_J_K * config.t_sys_k * bandwidth_hz
    if not tau >= sys.float_info.min:
        raise ValidationError(
            f"system: B_W_Hz = {config.b_w_hz!r} and T_sys_K = "
            f"{config.t_sys_k!r} put the noise power out of floating-point "
            "range"
        )
    return tau


def _gain_block(distances: np.ndarray, config: SystemConfig) -> np.ndarray:
    """Amplitude gains |H_ki| over a block of the scenario's center
    distances, rows receiving.

    The boresight budget G_peak G_rx / L_fs bounds every entry, so checking
    that it is finite keeps the whole block in floating-point range.
    """
    g_rx = 10.0 ** (RX_GAIN_DBI / 10.0)
    peak = _peak_gain(config) * g_rx
    if not math.isfinite(peak):
        raise _out_of_range("gain_peak_dBi", config.gain_peak_dbi)
    loss = free_space_loss(config)
    if not math.isfinite(peak / loss):
        raise _out_of_range("carrier_Hz", config.carrier_hz)
    g_tx = beam_gain(distances, config)
    return np.sqrt(g_tx * g_rx / loss)


def gain_magnitude_matrix(scenario: Scenario) -> np.ndarray:
    """(N_B, N_B) amplitude gains |H_ki|: user at beam-center k from feed i."""
    return _gain_block(scenario.distances, scenario.system)


def build_beam_field(scenario: Scenario) -> np.ndarray:
    """Read-only beam-level |H| across the whole coverage, for the
    no-precoding benchmark schemes and cross-cluster diagnostics."""
    gains = gain_magnitude_matrix(scenario)
    gains.flags.writeable = False
    return gains


# SeedSequence constants (numpy/random/bit_generator.pyx). All of its
# arithmetic is on uint32 words.
_MASK32 = 0xFFFFFFFF
_POOL_SIZE = 4
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R = 0xCA01F9DD, 0x4973F715
# PCG64's 128-bit LCG multiplier as uint64 halves, and the low half's 32-bit
# limbs for the 64x64 -> 128-bit product.
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_U64 = np.uint64
_MULT_HI, _MULT_LO = _U64(_PCG_MULT >> 64), _U64(_PCG_MULT & (2 ** 64 - 1))
_MULT_LO1 = _U64(_PCG_MULT >> 32 & _MASK32)
_MULT_LO0 = _U64(_PCG_MULT & _MASK32)
_M32 = _U64(_MASK32)
_SHIFT32 = _U64(32)


def _uint32_words(n: int) -> list[int]:
    """Little-endian uint32 words of a non-negative int, [0] for 0."""
    words = [n & _MASK32]
    n >>= 32
    while n:
        words.append(n & _MASK32)
        n >>= 32
    return words


def _seed_pool(entropy: list[np.ndarray]) -> list[np.ndarray]:
    """SeedSequence's mixed entropy pool, elementwise over uint32 arrays.

    ``entropy`` has at least ``_POOL_SIZE`` words; words beyond the pool are
    folded in by the extra mixing rounds.
    """
    hash_const = _INIT_A

    def hashmix(value):
        nonlocal hash_const
        value = value ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_A & _MASK32
        value = value * np.uint32(hash_const)
        return value ^ (value >> np.uint32(16))

    def mix(x, y):
        result = np.uint32(_MIX_MULT_L) * x - np.uint32(_MIX_MULT_R) * y
        return result ^ (result >> np.uint32(16))

    pool = [hashmix(word) for word in entropy[:_POOL_SIZE]]
    for src in range(_POOL_SIZE):
        for dst in range(_POOL_SIZE):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[_POOL_SIZE:]:
        for dst in range(_POOL_SIZE):
            pool[dst] = mix(pool[dst], hashmix(word))
    return pool


def _pcg64_seed_words(pool: list[np.ndarray]) -> list[np.ndarray]:
    """``SeedSequence.generate_state(4, np.uint64)`` over the pool."""
    hash_const = _INIT_B
    halves = []
    for i in range(8):
        value = pool[i % _POOL_SIZE] ^ np.uint32(hash_const)
        hash_const = hash_const * _MULT_B & _MASK32
        value = value * np.uint32(hash_const)
        halves.append((value ^ (value >> np.uint32(16))).astype(_U64))
    return [halves[2 * k] | (halves[2 * k + 1] << _SHIFT32) for k in range(4)]


def _add128(a_hi, a_lo, b_hi, b_lo):
    lo = a_lo + b_lo
    return a_hi + b_hi + (lo < a_lo).astype(_U64), lo


def _lcg_step(hi, lo, inc_hi, inc_lo):
    """One PCG64 step, state * _PCG_MULT + inc mod 2**128, on uint64 halves."""
    a1, a0 = lo >> _SHIFT32, lo & _M32
    p00, p01, p10 = a0 * _MULT_LO0, a0 * _MULT_LO1, a1 * _MULT_LO0
    mid = (p00 >> _SHIFT32) + (p01 & _M32) + (p10 & _M32)
    carry = (a1 * _MULT_LO1 + (p01 >> _SHIFT32) + (p10 >> _SHIFT32)
             + (mid >> _SHIFT32))
    return _add128(carry + hi * _MULT_LO + lo * _MULT_HI, lo * _MULT_LO,
                   inc_hi, inc_lo)


def _pair_phases(seed: int, cluster_id: int, members) -> np.ndarray:
    """(n, n) phases, entry [k, i] drawn as
    ``default_rng(SeedSequence([seed, cluster_id, members[k], members[i])))
    .uniform(0, 2*pi)``, bit for bit. Beam indices are below 2**32."""
    beams = np.asarray(members, dtype=np.uint32)
    shape = (beams.size, beams.size)
    entropy = [np.full(shape, w, dtype=np.uint32)
               for w in _uint32_words(seed) + _uint32_words(cluster_id)]
    entropy += [np.broadcast_to(beams[:, None], shape),
                np.broadcast_to(beams[None, :], shape)]
    s_hi, s_lo, q_hi, q_lo = _pcg64_seed_words(_seed_pool(entropy))
    # PCG64 seeding: inc = 2q + 1, state = inc + s, then one step.
    inc_hi = (q_hi << _U64(1)) | (q_lo >> _U64(63))
    inc_lo = (q_lo << _U64(1)) | _U64(1)
    hi, lo = _add128(inc_hi, inc_lo, s_hi, s_lo)
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    # First draw: step, then the XSL-RR output and next_double.
    hi, lo = _lcg_step(hi, lo, inc_hi, inc_lo)
    rot = hi >> _U64(58)
    xored = hi ^ lo
    x = (xored >> rot) | (xored << ((_U64(64) - rot) & _U64(63)))
    return (x >> _U64(11)) * (1.0 / 9007199254740992.0) * (2.0 * math.pi)


def build_cluster_channel(scenario: Scenario, cluster_id: int) -> ClusterChannel:
    """Complex channel of one cluster, deterministic per (scenario, seed).

    Magnitudes come from the gain model over the member beams only; phases
    are uniform on [0, 2*pi), one independent stream per (seed, cluster, beam
    pair).
    """
    if not 0 <= cluster_id < scenario.n_clusters:
        raise ValidationError(f"unknown cluster id {cluster_id}")
    members = scenario.clusters[cluster_id]
    mags = _gain_block(scenario.distances[np.ix_(members, members)],
                       scenario.system)
    phases = _pair_phases(scenario.system.seed, cluster_id, members)
    h = mags * np.exp(1j * phases)
    tau = np.full(len(members), noise_power_w(scenario.system))
    if not np.isfinite(h).all():
        raise ValidationError(f"cluster {cluster_id}: non-finite channel entries")
    h.flags.writeable = False
    tau.flags.writeable = False
    return ClusterChannel(cluster_id=cluster_id, h=h, tau=tau)


def build_all_cluster_channels(scenario: Scenario) -> list[ClusterChannel]:
    return [build_cluster_channel(scenario, j) for j in range(scenario.n_clusters)]
