"""Coded digital baseline: short block codes over square QAM.

The comparison scheme quantizes nothing away from the analog loop's problem --
same plant, same channel noise power, same transmit power -- but spends its
budget on a classical digital pipeline: a perfect single-error-correcting
block code, Gray-labelled square QAM, coherent detection, and a deadbeat
controller that fires once per codeword.

One codeword of n bits rides on d = ceil(n / L) QAM symbols (L bits each), so
the loop is only closed every d steps: at the end of an epoch starting at s
the actuator applies u = -A^d x(s) if the codeword decoded correctly and
nothing otherwise.  Decoding succeeds or fails independently of the payload,
which is what lets the simulation precompute the success flags and then run
the plant recursion vectorized over replicas.

The channel uses the same gain h as the analog loop and complex AWGN with
power sigma_z2 per real dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Optional

import numpy as np

from .model import DIVERGENCE_GUARD, CostReport, NoisePowers, PlantCost, PlantParams


@dataclass(frozen=True)
class CodingScheme:
    """An (n, k) single-error-correcting block code on 2^bits_per_symbol-QAM."""

    name: str
    n: int
    k: int
    generator: int  # GF(2) generator polynomial, MSB-first integer
    bits_per_symbol: int

    @property
    def latency(self) -> int:
        """Symbols (= time steps) consumed by one codeword."""
        return -(-self.n // self.bits_per_symbol)


#: the four baseline pipelines used throughout the comparisons
SCHEMES: dict[str, CodingScheme] = {
    s.name: s
    for s in (
        CodingScheme("bch15_11_qam16", n=15, k=11, generator=0b10011, bits_per_symbol=4),
        CodingScheme("bch15_11_qam256", n=15, k=11, generator=0b10011, bits_per_symbol=8),
        CodingScheme("bch7_4_qam16", n=7, k=4, generator=0b1011, bits_per_symbol=4),
        CodingScheme("bch7_4_qam256", n=7, k=4, generator=0b1011, bits_per_symbol=8),
    )
}


def _poly_mod(value: int, divisor: int) -> int:
    """Remainder of GF(2) polynomial division, polynomials as MSB-first ints."""
    ddeg = divisor.bit_length() - 1
    while value and value.bit_length() - 1 >= ddeg:
        value ^= divisor << (value.bit_length() - 1 - ddeg)
    return value


@lru_cache(maxsize=None)
def _code_tables(n: int, k: int, generator: int) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Systematic parity matrix P, check matrix H and syndrome->position table.

    Codewords are [message | parity].  The table maps each nonzero syndrome
    (read as an MSB-first integer) to the single bit position it flips; only
    perfect single-error-correcting codes are accepted, so decoding is total.
    """
    r = n - k
    if generator.bit_length() - 1 != r:
        raise ValueError(
            f"generator degree {generator.bit_length() - 1} does not match n-k={r}"
        )
    p = np.zeros((k, r), dtype=np.uint8)
    for i in range(k):
        rem = _poly_mod((1 << (k - 1 - i)) << r, generator)
        p[i] = [(rem >> (r - 1 - j)) & 1 for j in range(r)]
    h = np.concatenate([p.T, np.eye(r, dtype=np.uint8)], axis=1)
    weights = 1 << np.arange(r - 1, -1, -1)
    table = np.full(1 << r, -1, dtype=np.int64)
    for pos in range(n):
        syndrome = int(h[:, pos] @ weights)
        if syndrome == 0 or table[syndrome] != -1:
            raise ValueError("code is not single-error-correcting with distinct syndromes")
        table[syndrome] = pos
    if n != (1 << r) - 1:
        raise ValueError(f"({n},{k}) is not a perfect code; decoder would be partial")
    return p, h, table


def bch_encode(messages: np.ndarray, scheme: CodingScheme) -> np.ndarray:
    """Systematic encode: (..., k) message bits -> (..., n) codeword bits."""
    messages = np.asarray(messages, dtype=np.uint8)
    if messages.shape[-1] != scheme.k:
        raise ValueError(f"expected {scheme.k} message bits, got {messages.shape[-1]}")
    p, _, _ = _code_tables(scheme.n, scheme.k, scheme.generator)
    parity = (messages @ p) % 2
    return np.concatenate([messages, parity.astype(np.uint8)], axis=-1)


def bch_decode(words: np.ndarray, scheme: CodingScheme) -> tuple[np.ndarray, np.ndarray]:
    """Syndrome-decode (..., n) words -> ((..., k) message bits, success flags).

    The codes here are perfect with t=1, so decoding always lands on a
    codeword and the flag is uniformly True; it exists so callers don't bake
    in that assumption.
    """
    words = np.asarray(words, dtype=np.uint8)
    if words.shape[-1] != scheme.n:
        raise ValueError(f"expected {scheme.n} codeword bits, got {words.shape[-1]}")
    _, h, table = _code_tables(scheme.n, scheme.k, scheme.generator)
    r = scheme.n - scheme.k
    weights = 1 << np.arange(r - 1, -1, -1)
    syndromes = ((words @ h.T) % 2) @ weights
    positions = table[syndromes]
    corrected = words.reshape(-1, scheme.n).copy()
    flat_pos = positions.reshape(-1)
    rows = np.nonzero(flat_pos >= 0)[0]
    corrected[rows, flat_pos[rows]] ^= 1
    data = corrected[:, : scheme.k].reshape(*words.shape[:-1], scheme.k)
    return data, np.ones(words.shape[:-1], dtype=bool)


# ---------------------------------------------------------------------------
# square QAM with Gray labelling
# ---------------------------------------------------------------------------


@lru_cache(maxsize=None)
def _gray_maps(levels: int) -> tuple[np.ndarray, np.ndarray]:
    codes = np.arange(levels)
    gray = codes ^ (codes >> 1)
    return gray, np.argsort(gray)


def _axis_scale(bits_per_symbol: int, power: float) -> tuple[int, float]:
    """Levels per axis and amplitude unit c so E[|symbol|^2] = power."""
    if bits_per_symbol < 2 or bits_per_symbol % 2:
        raise ValueError(f"square QAM needs an even number of bits (got {bits_per_symbol})")
    if power <= 0.0:
        raise ValueError(f"symbol power must be > 0 (got {power!r})")
    levels = 1 << (bits_per_symbol // 2)
    return levels, math.sqrt(3.0 * power / (2.0 * (levels**2 - 1)))


def qam_modulate(bits: np.ndarray, bits_per_symbol: int, power: float) -> np.ndarray:
    """Map (..., S*L) bits to (..., S) unit-average-power-`power` QAM symbols.

    Per symbol the first L/2 bits select the in-phase level and the last L/2
    the quadrature level, MSB first, through a Gray label.
    """
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.shape[-1] % bits_per_symbol:
        raise ValueError(
            f"bit count {bits.shape[-1]} is not a multiple of {bits_per_symbol}"
        )
    levels, c = _axis_scale(bits_per_symbol, power)
    m = bits_per_symbol // 2
    grouped = bits.reshape(*bits.shape[:-1], -1, bits_per_symbol)
    weights = 1 << np.arange(m - 1, -1, -1)
    _, from_gray = _gray_maps(levels)
    i_level = from_gray[grouped[..., :m] @ weights]
    q_level = from_gray[grouped[..., m:] @ weights]
    amp = lambda lvl: (2.0 * lvl - (levels - 1)) * c
    return amp(i_level) + 1j * amp(q_level)


def qam_detect(
    symbols: np.ndarray, bits_per_symbol: int, power: float, h: float
) -> np.ndarray:
    """Coherent minimum-distance detection of (..., S) symbols -> (..., S*L) bits."""
    if h == 0.0:
        raise ValueError("channel gain must be nonzero for coherent detection")
    levels, c = _axis_scale(bits_per_symbol, power)
    m = bits_per_symbol // 2
    y = np.asarray(symbols) / h
    to_gray, _ = _gray_maps(levels)

    def axis_bits(vals: np.ndarray) -> np.ndarray:
        idx = np.clip(np.rint((vals / c + (levels - 1)) / 2.0), 0, levels - 1)
        code = to_gray[idx.astype(np.int64)]
        return ((code[..., None] >> np.arange(m - 1, -1, -1)) & 1).astype(np.uint8)

    paired = np.concatenate([axis_bits(y.real), axis_bits(y.imag)], axis=-1)
    return paired.reshape(*paired.shape[:-2], -1)


# ---------------------------------------------------------------------------
# closed-loop protocol
# ---------------------------------------------------------------------------


def required_success_probability(plant: PlantParams, scheme: CodingScheme) -> float:
    """Word success rate below which the once-per-epoch loop cannot be stable.

    Between firings the state grows by A^d; the post-epoch second moment
    recursion E[x^2] -> (1-p) A^{2d} E[x^2] + const is contracting iff
    p > 1 - A^{-2d}.
    """
    return 1.0 - abs(plant.a) ** (-2 * scheme.latency)


def _link_success(
    sent: np.ndarray, scheme: CodingScheme, noise: NoisePowers, h: float, rng: np.random.Generator
) -> np.ndarray:
    """Send (..., k) message bits over the coded link; True where a word arrives intact.

    Encode, zero-pad to whole symbols, modulate at power p0, scale by h, add
    complex AWGN of power sigma_z2 per real dimension, detect, decode and
    compare with what was sent.
    """
    pad = scheme.latency * scheme.bits_per_symbol - scheme.n
    coded = bch_encode(sent, scheme)
    padded = np.concatenate([coded, np.zeros((*sent.shape[:-1], pad), dtype=np.uint8)], axis=-1)
    tx = qam_modulate(padded, scheme.bits_per_symbol, noise.p0)
    std = math.sqrt(noise.sigma_z2)
    rx = h * tx + rng.normal(0.0, std, tx.shape) + 1j * rng.normal(0.0, std, tx.shape)
    bits = qam_detect(rx, scheme.bits_per_symbol, noise.p0, h)
    decoded, _ = bch_decode(bits[..., : scheme.n], scheme)
    return np.all(decoded == sent, axis=-1)


def estimate_word_success(
    scheme: CodingScheme,
    noise: NoisePowers,
    h: float,
    rng: np.random.Generator,
    words: int = 10000,
) -> float:
    """Monte-Carlo word success rate of one scheme at one channel gain."""
    sent = rng.integers(0, 2, size=(words, scheme.k), dtype=np.uint8)
    return float(np.mean(_link_success(sent, scheme, noise, h, rng)))


def run_coded_control(
    plant: PlantParams,
    noise: NoisePowers,
    h: float,
    scheme: CodingScheme,
    horizon: int,
    rng: np.random.Generator,
    replicas: int = 1,
    x0: float = 0.0,
    burn_in: int = 0,
) -> CostReport:
    """Simulate the coded loop and report the realized time-average cost.

    Epochs start at t = 0, d, 2d, ...; the controller transmits the codeword
    over the epoch and the actuator applies the deadbeat input -A^d x(s) at
    its last step when decoding succeeded.  Steps past the last whole epoch
    run open loop.  The plant is reported unstable when any trajectory is
    clamped at the divergence guard, and also when the measured word-success
    rate falls below what the deadbeat recursion needs for mean-square
    stability -- a finite horizon rarely realizes that divergence, but the
    long-run cost is unbounded all the same.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 (got {horizon})")
    if not 0 <= burn_in < horizon:
        raise ValueError(f"burn_in must satisfy 0 <= burn_in < horizon (got {burn_in})")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1 (got {replicas})")
    d = scheme.latency
    n_epochs = horizon // d
    if n_epochs:
        # success flags are payload-independent, so simulate the link first
        sent = rng.integers(0, 2, size=(replicas, n_epochs, scheme.k), dtype=np.uint8)
        success = _link_success(sent, scheme, noise, h, rng)
    else:
        success = np.zeros((replicas, 0), dtype=bool)

    w = rng.normal(0.0, math.sqrt(plant.sigma_w2), (replicas, horizon))
    a = plant.a
    deadbeat = a**d
    x = np.full(replicas, float(x0))
    x_start = x.copy()
    states = np.empty((replicas, horizon))
    diverged = np.zeros(replicas, dtype=bool)
    for t in range(horizon):
        if t % d == 0 and t // d < n_epochs:
            x_start = x.copy()
        u = np.zeros(replicas)
        if (t + 1) % d == 0 and (t + 1) // d <= n_epochs:
            ok = success[:, (t + 1) // d - 1]
            u[ok] = -deadbeat * x_start[ok]
        x = a * x + u + w[:, t]
        over = np.abs(x) > DIVERGENCE_GUARD
        if over.any():
            diverged |= over
            x = np.clip(x, -DIVERGENCE_GUARD, DIVERGENCE_GUARD)
        states[:, t] = x

    window = states[:, burn_in:]
    cost = float(np.mean(window**2, axis=1).mean())
    p_hat = float(success.mean()) if success.size else 0.0
    supportable = p_hat > required_success_probability(plant, scheme)
    stable = supportable and not bool(diverged.any())
    per_plant = (PlantCost(plant_id=0, cost=cost, stable=stable),)
    return CostReport(j_t=cost, per_plant=per_plant, horizon=horizon)
