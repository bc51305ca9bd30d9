"""Reference codec chain the tests check the coded link against.

A syndrome-decoded systematic block code and a Gray-labelled square-QAM
modem, written out stage by stage.  The link in ``wncs.coded`` never runs
this chain: it reads a table of codeword labels and counts flipped code bits.
The encoder and decoder here build their own parity, check and syndrome
tables, so they share no code with the link's codewords; the modem shares the
library's Gray labels and amplitude unit, which the tests then check.
"""
from __future__ import annotations

from functools import lru_cache

import numpy as np

from wncs.coded import CodingScheme, _axis_scale, _gray_maps


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
