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
the plant recursion, a Markov jump linear system, vectorized over replicas.

The channel uses the same gain h as the analog loop and complex AWGN with
power sigma_z2 per real dimension.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .model import NoisePowers, PlantParams, mean_cost, step_blocks


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


def _codewords(scheme: CodingScheme) -> list[int]:
    """The 2^k systematic codewords [message | parity] as MSB-first ints; item m is message m's."""
    r = scheme.n - scheme.k
    return [(m << r) | _poly_mod(m << r, scheme.generator) for m in range(1 << scheme.k)]


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


#: largest message length whose 2^k codewords the link tabulates (the next
#: perfect t = 1 code after (15, 11) is (31, 26), whose table would not fit)
_MAX_TABLE_K = 16


@lru_cache(maxsize=None)
def _label_table(scheme: CodingScheme) -> tuple[np.ndarray, np.ndarray]:
    """Every codeword's sent levels, (2^k, d, 2), and the code bits each detection gets wrong.

    Row m is the codeword of message m, zero-padded to d whole symbols and cut
    into Gray labels of L/2 bits, MSB first, in-phase then quadrature per
    symbol; each is sent on the level it labels.  ``wrong[slot, axis, i, j]``
    counts the code bits, padding never, in which the labels of levels i and j
    differ.  A word is intact iff at most one code bit is wrong, which is
    exact iff the code is perfect with minimum distance 3, so any other code
    is refused; the code is linear, so its distance is its least nonzero weight.
    """
    n, k, half = scheme.n, scheme.k, scheme.bits_per_symbol // 2
    if k > _MAX_TABLE_K:
        raise ValueError(f"the coded link tabulates all 2^k codewords; k = {k} > {_MAX_TABLE_K}")
    r = n - k
    if scheme.generator.bit_length() - 1 != r:
        raise ValueError(
            f"generator degree {scheme.generator.bit_length() - 1} does not match n-k={r}"
        )
    if n != (1 << r) - 1:
        raise ValueError(f"({n},{k}) is not a perfect code: n != 2^(n-k) - 1")
    codewords = _codewords(scheme)
    distance = min(word.bit_count() for word in codewords[1:])
    if distance < 3:
        raise ValueError(
            f"({n},{k}) code has minimum distance {distance} < 3: it cannot correct every"
            " single-bit error"
        )
    width = scheme.latency * scheme.bits_per_symbol
    # every codeword, then the all-ones word, left-aligned in d whole symbols:
    # the last row's labels have a 1 at every bit that carries a code bit
    words = np.array([*codewords, (1 << n) - 1]) << (width - n)
    labels = (words[:, None] >> np.arange(width - half, -1, -half)) & ((1 << half) - 1)
    labels = labels.reshape(len(words), scheme.latency, 2)
    to_gray, from_gray = _gray_maps(1 << half)
    sent = from_gray[labels[:-1]].astype(np.min_scalar_type((1 << half) - 1))
    differ = (to_gray[:, None] ^ to_gray) & labels[-1][..., None, None]
    wrong = ((differ[..., None] >> np.arange(half)) & 1).sum(axis=-1, dtype=np.uint8)
    sent.flags.writeable = wrong.flags.writeable = False  # shared by every caller through the cache
    return sent, wrong


#: words the link draws messages for, or detects on each axis, at a time: its
#: temporaries stay this small.  A multiple of 4, so that each message chunk
#: takes whole 32-bit words from the generator, as one dense draw does
_LINK_WORDS = 1 << 15


def _link_tables(scheme: CodingScheme, noise: NoisePowers, h: float) -> tuple:
    """The link's levels per axis, amplitude unit, sent levels and wrong-bit table."""
    if not (math.isfinite(h) and h != 0.0):
        raise ValueError(f"channel gain must be finite and nonzero (got {h!r})")
    levels, c = _axis_scale(scheme.bits_per_symbol, noise.p0)
    return (levels, c, *_label_table(scheme))


def _draw_messages(size: int, k: int, rng: np.random.Generator) -> np.ndarray:
    """``size`` uniform k-bit messages, each read MSB first as an integer of the least width.

    Each bit is the top bit of one byte of whole 32-bit words, low byte first,
    drawn ``_LINK_WORDS`` messages at a time: the generator calls and the bits
    of a uint8 draw of one 0/1 byte a bit.  No temporary outlives its chunk.
    """
    flat = np.zeros(size, dtype=np.min_scalar_type((1 << k) - 1))
    for start in range(0, size, _LINK_WORDS):
        chunk = flat[start : start + _LINK_WORDS]
        words = rng.integers(0, 1 << 32, size=-(-chunk.size * k // 4), dtype=np.uint32)
        bits = words.astype("<u4", copy=False).view(np.uint8)
        np.right_shift(bits, 7, out=bits)
        for column in bits[: chunk.size * k].reshape(chunk.size, k).T:
            chunk <<= 1
            chunk |= column
    return flat


def _words_intact(
    shape: tuple, scheme: CodingScheme, noise: NoisePowers, h: float, rng: np.random.Generator
) -> np.ndarray:
    """Send uniform k-bit messages of ``shape`` over the link; True where one arrives intact.

    The messages are drawn first, ``_LINK_WORDS`` words at a time, and each
    is read as its ``_label_table`` row of sent levels.  Then the link
    encodes, zero-pads to whole symbols, modulates at power p0, scales by h,
    adds complex AWGN of power sigma_z2 per real dimension (real parts drawn
    first), detects and decodes.  A perfect t = 1 code returns the sent
    message iff at most one code bit is wrong, so each axis is detected in
    real arithmetic, and the word succeeds iff its detections' ``wrong``
    counts add up to at most one.  The words are detected in the same chunks,
    every real axis before any imaginary one: consecutive chunks of a draw
    equal the dense draw, so the chunk size changes no result.

    Only the words holding a noise sample at or beyond ``_safe_radius`` run
    the detection chain: a sample inside it detects as the level sent.
    """
    levels, c, sent, wrong = _link_tables(scheme, noise, h)
    d = scheme.latency
    amplitude = (2.0 * np.arange(levels) - (levels - 1)) * c
    tau = _safe_radius(levels, c, h)
    std = math.sqrt(noise.sigma_z2)
    flat = _draw_messages(math.prod(shape), scheme.k, rng)
    # code bits wrong per word, summed as a matmul, far faster than sum() over so
    # short an axis; a tabulated code has n < 256, so the uint8 count cannot wrap
    flips = np.zeros(flat.shape, dtype=np.uint8)
    ones = np.ones(d, dtype=np.uint8)
    slots = np.arange(d) * levels**2
    # std z is normal(0, std)'s 0 + std z but for the sign of a zero, which
    # no detected level depends on
    buf = np.empty((min(flat.size, _LINK_WORDS), d))
    for axis in (0, 1):
        # wrong[slot, axis, sent, detected] at (slot levels + sent) levels + detected
        table = wrong[:, axis].ravel()
        for start in range(0, flat.size, _LINK_WORDS):
            chunk = flat[start : start + _LINK_WORDS]
            n = buf[: chunk.size]
            rng.standard_normal(out=n)
            n *= std
            # each word holding a sample at or beyond the radius, once
            rows = np.flatnonzero((n >= tau) | (n <= -tau)) // d
            rows = rows[np.diff(rows, prepend=-1) != 0]
            if rows.size:
                sent_levels = sent[chunk[rows], :, axis]
                y = amplitude[sent_levels]
                y *= h
                y += n[rows]
                at = _detect(y, levels, c, h)
                at += np.multiply(sent_levels, levels, dtype=np.intp)
                at += slots
                flips[start + rows] += table[at] @ ones
    # each word's success flag, written over its flip count: no second per-word array
    return np.less_equal(flips, 1, out=flips.view(bool)).reshape(shape)


def _detect(y: np.ndarray, levels: int, c: float, h: float) -> np.ndarray:
    """Detected level of each received h amp + n, in place: rint((y/h/c + levels-1)/2), clipped."""
    y /= h
    y /= c
    y += levels - 1
    y /= 2.0
    np.clip(np.rint(y, out=y), 0, levels - 1, out=y)
    return y.astype(np.intp)


def _safe_radius(levels: int, c: float, h: float) -> float:
    """A noise magnitude tau such that every |n| <= tau detects as the level sent.

    Each step of the detection chain, rounding included, is monotone in the
    noise sample n (decreasing for h < 0), so if every level detects as
    itself at n = -tau and at n = +tau it does so for all n in between.  The
    radius is just inside the decision half-width |h| c when both ends pass
    there, and 0 otherwise, and then the link detects every sample.
    """
    amp_h = (2.0 * np.arange(levels) - (levels - 1)) * c * h
    tau = abs(h) * c * (1.0 - 1e-9)
    if not (math.isfinite(tau) and tau > 0.0):
        return 0.0
    ends = _detect(amp_h + np.array([[-tau], [tau]]), levels, c, h)
    return tau if (ends == np.arange(levels)).all() else 0.0


def word_success(scheme: CodingScheme, noise: NoisePowers, h: float) -> float:
    """Exact word success rate of one scheme at one channel gain, over all 2^k codewords.

    Each sent level of ``_label_table`` rides on one Gray-PAM axis, detected
    under noise of std sigma_z / |h| in the y / h domain: level j is detected
    on amp_j +- c, open at the two outer levels.  With ``wrong``, that gives
    per (symbol, axis) slot and sent level P(no code bit wrong) and P(one code
    bit wrong), and a word succeeds iff at most one code bit is wrong over its
    2d slots (Cho & Yoon, IEEE Trans. Commun. 2002).
    """
    levels, c, sent, wrong = _link_tables(scheme, noise, h)
    scale = math.sqrt(2.0 * noise.sigma_z2) / abs(h)
    # beyond[m + levels] = P(axis noise > (2m - 1) c), m = j - i the detected
    # level's offset from the sent one
    beyond = [0.5 * math.erfc((2 * m - 1) * c / scale) for m in range(-levels, levels + 1)]
    offsets = np.arange(levels) - np.arange(levels)[:, None] + levels  # (sent, detected level)
    lower = np.take(beyond, offsets)
    lower[:, 0] = 1.0
    upper = np.take(beyond, offsets + 1)
    upper[:, -1] = 0.0
    trans = lower - upper
    clean_p = np.where(wrong == 0, trans, 0.0).sum(axis=-1)
    one_p = np.where(wrong == 1, trans, 0.0).sum(axis=-1)
    clean, one = np.ones(len(sent)), np.zeros(len(sent))
    for symbol, axis in np.ndindex(scheme.latency, 2):
        sent_levels = sent[:, symbol, axis]
        p0, p1 = clean_p[symbol, axis, sent_levels], one_p[symbol, axis, sent_levels]
        clean, one = clean * p0, one * p0 + clean * p1
    return float(np.mean(clean + one))


def estimate_word_success(
    scheme: CodingScheme,
    noise: NoisePowers,
    h: float,
    rng: np.random.Generator,
    words: int = 10000,
) -> float:
    """Monte-Carlo word success rate of one scheme at one channel gain."""
    if words < 1:
        raise ValueError(f"words must be >= 1 (got {words})")
    return float(np.mean(_words_intact((words,), scheme, noise, h, rng)))


def run_coded_control(
    plant: PlantParams,
    noise: NoisePowers,
    h: float,
    scheme: CodingScheme,
    horizon: int,
    rng: np.random.Generator,
    replicas: int = 1,
) -> float:
    """Simulate the coded loop from x = 0; return its time-average cost, inf if unstable.

    Epochs start at t = 0, d, 2d, ...; the controller transmits the codeword
    over the epoch and the actuator applies the deadbeat input -A^d x(s) at
    its last step when decoding succeeded.  With N = sum_{j<d-1} A^{d-2-j}
    w(s+j) the epoch's open-loop noise, that input is -A x(s+d-1) + A N, so
    the loop is the kernel's x(t+1) = c_t x(t) + n_t with c = 0, n = w + A N
    at a decoded epoch's last step and c = A, n = w at every other step.
    Steps past the last whole epoch run open loop.  The cost is inf when any
    trajectory passes the divergence guard, and also, with no plant noise
    drawn, when the measured word-success rate is at or below what the
    deadbeat recursion needs for mean-square stability: a finite horizon
    rarely realizes that divergence, but the long-run cost is unbounded.
    """
    if horizon < 1:
        raise ValueError(f"horizon must be >= 1 (got {horizon})")
    if replicas < 1:
        raise ValueError(f"replicas must be >= 1 (got {replicas})")
    d = scheme.latency
    n_epochs = horizon // d
    # each purpose is one run of draws from rng, taken in order a chunk at a
    # time: the messages, the link's noise, then the plant noise.  Success
    # flags are payload-independent, so the link runs first
    success = _words_intact((replicas, n_epochs), scheme, noise, h, rng)
    p_hat = float(success.mean()) if success.size else 0.0
    if p_hat <= required_success_probability(plant, scheme):
        return math.inf

    a, std = plant.a, math.sqrt(plant.sigma_w2)
    powers = a ** np.arange(d - 2, -1, -1)

    def fill(n_t: np.ndarray, factors: np.ndarray, start: int) -> np.ndarray:
        # plant noise drawn as std z (normal(0, std) but for the sign of a
        # zero, which no cost depends on), then the per-step factors
        rng.standard_normal(out=n_t)
        n_t *= std
        decoded = success[start : start + len(n_t)]
        # (rows, epochs, d) view of the whole epochs: writes land in n_t
        epochs = n_t[:, : n_epochs * d].reshape(len(n_t), n_epochs, d)
        # each epoch's open-loop sum a N, in the spare block before its factors
        open_loop = np.matmul(epochs[:, :, :-1], powers, out=factors[:, :n_epochs])
        open_loop *= a
        np.add(epochs[:, :, -1], open_loop, out=epochs[:, :, -1], where=decoded)
        # a decoded epoch's last step restarts the state from n_t: factor
        # 0, and n_t + 0 x is n_t but for the sign of a zero
        factors.fill(a)
        np.copyto(factors[:, d - 1 : n_epochs * d : d], 0.0, where=decoded)
        return factors

    return mean_cost(step_blocks(replicas, horizon, std, fill, 0.0), replicas)
