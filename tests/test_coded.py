"""Coded baseline: block codes, QAM mapping, and the dead-beat loop."""
import math
import tracemalloc

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from wncs import coded, model
from wncs.coded import (
    SCHEMES,
    CodingScheme,
    estimate_word_success,
    required_success_probability,
    run_coded_control,
    word_success,
)
from wncs.fading import substream
from wncs.model import DIVERGENCE_GUARD, NoisePowers, PlantParams

from codec_oracle import bch_decode, bch_encode, qam_detect, qam_modulate
from test_acceptance import COMPARE_H, SIGMA_Z2, _exact_word_success, dbm

PLANT = PlantParams(a=1.5, sigma_w2=0.1)


def all_messages(k):
    return ((np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)


def test_scheme_latencies():
    assert SCHEMES["bch15_11_qam16"].latency == 4
    assert SCHEMES["bch15_11_qam256"].latency == 2
    assert SCHEMES["bch7_4_qam16"].latency == 2
    assert SCHEMES["bch7_4_qam256"].latency == 1


def test_encode_is_systematic():
    msgs = all_messages(4)
    words = bch_encode(msgs, SCHEMES["bch7_4_qam16"])
    assert words.shape == (16, 7)
    assert_array_equal(words[:, :4], msgs)
    with pytest.raises(ValueError):
        bch_encode(msgs, SCHEMES["bch15_11_qam16"])


def test_decode_clean_words_and_single_errors_short_code():
    scheme = SCHEMES["bch7_4_qam16"]
    msgs = all_messages(4)
    words = bch_encode(msgs, scheme)
    decoded, ok = bch_decode(words, scheme)
    assert_array_equal(decoded, msgs)
    assert ok.all()
    for pos in range(7):
        corrupted = words.copy()
        corrupted[:, pos] ^= 1
        decoded, ok = bch_decode(corrupted, scheme)
        assert_array_equal(decoded, msgs)
        assert ok.all()


def test_decode_single_errors_long_code_spot_checks():
    scheme = SCHEMES["bch15_11_qam16"]
    rng = substream(31, 0)
    msgs = rng.integers(0, 2, size=(64, 11), dtype=np.uint8)
    words = bch_encode(msgs, scheme)
    for pos in (0, 7, 14):
        corrupted = words.copy()
        corrupted[:, pos] ^= 1
        decoded, _ = bch_decode(corrupted, scheme)
        assert_array_equal(decoded, msgs)


def test_double_errors_are_beyond_the_code():
    # t=1 codes garble two flips into some other codeword; flag stays True
    scheme = SCHEMES["bch7_4_qam16"]
    msgs = all_messages(4)
    words = bch_encode(msgs, scheme)
    corrupted = words.copy()
    corrupted[:, 0] ^= 1
    corrupted[:, 3] ^= 1
    decoded, ok = bch_decode(corrupted, scheme)
    assert ok.all()
    assert (decoded != msgs).any()


def test_qam_round_trip_noise_free():
    for bits_per_symbol in (4, 8):
        patterns = all_messages(bits_per_symbol)
        symbols = qam_modulate(patterns, bits_per_symbol, power=2.0)
        back = qam_detect(symbols, bits_per_symbol, power=2.0, h=1.0)
        assert_array_equal(back, patterns)
        # detection undoes a real channel gain
        back = qam_detect(0.01 * symbols, bits_per_symbol, power=2.0, h=0.01)
        assert_array_equal(back, patterns)


def test_qam_constellation_power_is_normalized():
    for bits_per_symbol, power in ((4, 1.0), (8, 0.05)):
        patterns = all_messages(bits_per_symbol)
        symbols = qam_modulate(patterns, bits_per_symbol, power)
        assert np.mean(np.abs(symbols) ** 2) == pytest.approx(power, rel=1e-12)


def test_qam_gray_adjacency_16qam():
    # neighboring levels on either axis differ in exactly one bit
    patterns = all_messages(4)
    symbols = qam_modulate(patterns, 4, power=1.0).ravel()
    level_i = np.round(symbols.real / np.min(np.abs(np.unique(symbols.real)))).astype(int)
    level_q = np.round(symbols.imag / np.min(np.abs(np.unique(symbols.imag)))).astype(int)
    label = {(i, q): tuple(p) for i, q, p in zip(level_i, level_q, patterns)}
    for (i, q), bits in label.items():
        for neighbor in ((i + 2, q), (i, q + 2)):
            if neighbor in label:
                diff = sum(b1 != b2 for b1, b2 in zip(bits, label[neighbor]))
                assert diff == 1


def test_qam_validation():
    with pytest.raises(ValueError):
        qam_modulate(all_messages(3), 3, power=1.0)
    with pytest.raises(ValueError):
        qam_modulate(all_messages(4), 4, power=0.0)
    with pytest.raises(ValueError):
        qam_detect(np.array([1.0 + 0j]), 4, power=1.0, h=0.0)


def test_required_success_probability_by_latency():
    # p > 1 - a^(-2d) for the dead-beat recursion to contract
    assert required_success_probability(PLANT, SCHEMES["bch15_11_qam16"]) == pytest.approx(
        1.0 - 1.5 ** (-8), rel=1e-12
    )
    assert required_success_probability(PLANT, SCHEMES["bch7_4_qam16"]) == pytest.approx(
        0.8024691358024691, rel=1e-12
    )
    assert required_success_probability(PLANT, SCHEMES["bch7_4_qam256"]) == pytest.approx(
        0.5555555555555556, rel=1e-12
    )


def test_word_success_reference_levels():
    # measured once at P0 = 0.1 W, h = 0.01, sigma_z2 = 1e-7 and frozen
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    expected = {
        "bch15_11_qam16": 1.0,
        "bch15_11_qam256": 0.5373,
        "bch7_4_qam16": 1.0,
        "bch7_4_qam256": 0.9126,
    }
    for name, level in expected.items():
        p = estimate_word_success(SCHEMES[name], noise, 0.01, substream(7, 0), words=20000)
        assert p == pytest.approx(level, abs=0.02)


def test_word_success_extremes():
    quiet = NoisePowers(sigma_z2=1e-14, p0=0.1)
    loud = NoisePowers(sigma_z2=1e-2, p0=0.1)
    scheme = SCHEMES["bch7_4_qam16"]
    assert estimate_word_success(scheme, quiet, 0.01, substream(7, 1), words=2000) == 1.0
    # a drowned link decodes to the right message at roughly chance level,
    # 2^(k-n) = 1/16 for this perfect code
    assert estimate_word_success(scheme, loud, 0.01, substream(7, 2), words=2000) < 0.12


def test_estimate_word_success_refuses_no_words():
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    for words in (0, -3):
        with pytest.raises(ValueError, match="words"):
            estimate_word_success(SCHEMES["bch7_4_qam16"], noise, 0.01, substream(7, 3), words)


@pytest.mark.parametrize("name", SCHEMES)
@pytest.mark.parametrize("p0_dbm", [0.9, 10.0, 20.0])
def test_word_success_equals_the_acceptance_oracle(name, p0_dbm):
    # the oracle sums the same erfc terms codeword by codeword in plain Python
    noise = NoisePowers(sigma_z2=SIGMA_Z2, p0=dbm(p0_dbm))
    exact = _exact_word_success(SCHEMES[name], noise.p0)
    assert word_success(SCHEMES[name], noise, COMPARE_H) == pytest.approx(exact, rel=1e-12)


def test_word_success_depends_on_the_gain_magnitude_only():
    noise = NoisePowers(sigma_z2=1e-7, p0=dbm(10.0))
    for scheme in (*SCHEMES.values(), OWN_SCHEME):
        assert word_success(scheme, noise, -0.01) == word_success(scheme, noise, 0.01)


@pytest.mark.parametrize("p0_dbm", [5.0, 10.0, 15.0])
def test_word_success_of_a_padded_scheme_matches_the_link(p0_dbm):
    # OWN_SCHEME's last symbol carries 3 padding bits, which never fail a word;
    # 40000 link words put the estimate within 5 binomial standard errors
    noise = NoisePowers(sigma_z2=1e-7, p0=dbm(p0_dbm))
    words = 40_000
    exact = word_success(OWN_SCHEME, noise, 0.01)
    estimate = estimate_word_success(OWN_SCHEME, noise, 0.01, substream(7, 4), words)
    assert 0.0 < exact < 1.0
    assert abs(estimate - exact) <= 5.0 * math.sqrt(exact * (1.0 - exact) / words)


def test_dead_beat_loop_costs_with_reliable_link():
    # near-noiseless link: d=1 resets every step, J -> sigma_w2; d=2 carries
    # one step of open-loop growth, J -> ((a^2+1) + (a^2(a^2+1)+1))/2 * sigma_w2
    noise = NoisePowers(sigma_z2=1e-12, p0=0.1)
    cost1 = run_coded_control(
        PLANT, noise, 0.01, SCHEMES["bch7_4_qam256"], horizon=400,
        rng=substream(11, 0), replicas=400,
    )
    assert cost1 == pytest.approx(PLANT.sigma_w2, rel=0.05)
    cost2 = run_coded_control(
        PLANT, noise, 0.01, SCHEMES["bch7_4_qam16"], horizon=400,
        rng=substream(11, 0), replicas=400,
    )
    a2 = PLANT.a**2
    expected = ((a2 + 1.0) + (a2 * (a2 + 1.0) + 1.0)) / 2.0 * PLANT.sigma_w2
    assert cost2 == pytest.approx(expected, rel=0.05)
    assert cost1 < cost2


def test_insufficient_word_success_is_flagged_unstable():
    # at 20 dBm the (15,11)+256QAM link succeeds ~54% of the time, under the
    # ~80% the d=2 dead-beat needs: bounded-looking averages must not pass
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    cost = run_coded_control(
        PLANT, noise, 0.01, SCHEMES["bch15_11_qam256"], horizon=400,
        rng=substream(11, 1), replicas=200,
    )
    assert cost == math.inf


def test_a_measured_rate_at_or_below_the_required_one_draws_no_plant_noise():
    # 15 words at an exact success of 0.8128 against a required 0.8025: the
    # measured rate is not above it, so the cell is inf and the generator
    # stops where the link alone leaves it
    noise = NoisePowers(sigma_z2=1e-7, p0=0.008317637711026709)
    scheme = SCHEMES["bch7_4_qam16"]
    assert word_success(scheme, noise, 0.01) > required_success_probability(PLANT, scheme)
    rng, link_only = substream(0, 1, 2, 1, 3), substream(0, 1, 2, 1, 3)
    assert run_coded_control(PLANT, noise, 0.01, scheme, 10, rng, 3) == math.inf
    intact = coded._words_intact((3, 5), scheme, noise, 0.01, link_only)
    assert intact.mean() <= required_success_probability(PLANT, scheme)
    assert rng.bit_generator.state == link_only.bit_generator.state


def test_divergence_guard_trips_on_dead_link(monkeypatch):
    # about one word in 16 arrives, so the measured rate alone would make
    # the cell inf before the loop runs; with no rate required the loop runs
    # nearly open, its states pass the guard, and warnings raised as errors
    # show that the guard, not an overflow, made the cost inf
    monkeypatch.setattr(coded, "required_success_probability", lambda plant, scheme: -1.0)
    noise = NoisePowers(sigma_z2=1.0, p0=1e-4)
    cost = run_coded_control(
        PLANT, noise, 0.01, SCHEMES["bch7_4_qam16"], horizon=140,
        rng=substream(11, 2), replicas=50,
    )
    assert cost == math.inf


def test_run_coded_control_validation():
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    scheme = SCHEMES["bch7_4_qam16"]
    rng = substream(0, 0)
    with pytest.raises(ValueError):
        run_coded_control(PLANT, noise, 0.01, scheme, horizon=0, rng=rng)
    with pytest.raises(ValueError):
        run_coded_control(PLANT, noise, 0.01, scheme, horizon=10, rng=rng, replicas=0)


def test_custom_scheme_latency_rounding():
    scheme = CodingScheme("own", n=15, k=11, generator=0b10011, bits_per_symbol=6)
    assert scheme.latency == 3


def test_link_refuses_a_code_too_long_to_tabulate():
    # (31, 26) is a perfect t = 1 code, but its 2^26-row label table would not fit
    scheme = CodingScheme("h31", n=31, k=26, generator=0b100101, bits_per_symbol=2)
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    with pytest.raises(ValueError, match="2\\^k"):
        run_coded_control(PLANT, noise, 0.01, scheme, horizon=16, rng=substream(0, 0))
    with pytest.raises(ValueError, match="2\\^k"):
        word_success(scheme, noise, 0.01)


@pytest.mark.parametrize(
    "scheme, defect",
    [
        (CodingScheme("wrong_degree", n=7, k=4, generator=0b10011, bits_per_symbol=4),
         "generator degree 4 does not match n-k=3"),
        (CodingScheme("not_perfect", n=6, k=3, generator=0b1011, bits_per_symbol=4),
         "not a perfect code"),
        (CodingScheme("distance_2", n=7, k=4, generator=0b1001, bits_per_symbol=4),
         "minimum distance 2 < 3"),
    ],
    ids=["wrong_degree", "not_perfect", "distance_2"],
)
def test_link_refuses_a_code_its_flip_count_would_misjudge(scheme, defect):
    # a word is intact iff at most one code bit flipped only for a perfect
    # code of minimum distance 3: any other code is refused before any draw
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    rng = substream(0, 0)
    before = rng.bit_generator.state
    with pytest.raises(ValueError, match=defect):
        run_coded_control(PLANT, noise, 0.01, scheme, horizon=16, rng=rng)
    assert rng.bit_generator.state == before
    with pytest.raises(ValueError, match=defect):
        word_success(scheme, noise, 0.01)


def _reference_link_success(sent, scheme, noise, h, rng):
    """The coded link's whole chain: encode, pad, modulate, complex AWGN, detect, decode."""
    pad = scheme.latency * scheme.bits_per_symbol - scheme.n
    coded = bch_encode(sent, scheme)
    padded = np.concatenate([coded, np.zeros((*sent.shape[:-1], pad), dtype=np.uint8)], axis=-1)
    tx = qam_modulate(padded, scheme.bits_per_symbol, noise.p0)
    std = math.sqrt(noise.sigma_z2)
    rx = h * tx + rng.normal(0.0, std, tx.shape) + 1j * rng.normal(0.0, std, tx.shape)
    bits = qam_detect(rx, scheme.bits_per_symbol, noise.p0, h)
    decoded, _ = bch_decode(bits[..., : scheme.n], scheme)
    return np.all(decoded == sent, axis=-1)


OWN_SCHEME = CodingScheme("own", 15, 11, 0b10011, bits_per_symbol=6)  # 3 padding bits


@pytest.mark.parametrize("scheme", [*SCHEMES.values(), OWN_SCHEME], ids=lambda s: s.name)
@pytest.mark.parametrize("p0_dbm", [0.1, 1.0, 10.0])
@pytest.mark.parametrize("h", [0.01, -0.01])
def test_link_matches_the_codec_chain(scheme, p0_dbm, h):
    # the label-table link draws the chain's messages and must give the
    # chain's flags from the same draws; every cell holds both verdicts, so
    # equal flags pin both
    noise = NoisePowers(sigma_z2=1e-7, p0=1e-3 * 10.0 ** (p0_dbm / 10.0))
    got_rng, want_rng = substream(3, 0), substream(3, 0)
    sent = want_rng.integers(0, 2, size=(300, 40, scheme.k), dtype=np.uint8)
    got = coded._words_intact(sent.shape[:-1], scheme, noise, h, got_rng)
    want = _reference_link_success(sent, scheme, noise, h, want_rng)
    assert want.any() and not want.all()
    assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state


@pytest.mark.parametrize("scheme", [*SCHEMES.values(), OWN_SCHEME], ids=lambda s: s.name)
def test_library_codewords_equal_the_oracle_encoder(scheme):
    # the link's codewords against the oracle's parity-matrix encoder, every message
    want = bch_encode(all_messages(scheme.k), scheme) @ (1 << np.arange(scheme.n - 1, -1, -1))
    assert coded._codewords(scheme) == want.tolist()


@pytest.mark.parametrize("bits", sorted({s.bits_per_symbol for s in (*SCHEMES.values(), OWN_SCHEME)}))
@pytest.mark.parametrize("p0_dbm", [0.1, 10.0, 40.0])
@pytest.mark.parametrize("h", [0.01, -0.01, 3e-5, -7.0])
def test_every_level_detects_as_sent_at_the_safe_radius(bits, p0_dbm, h):
    # the codec's own chain, at noise +-tau on either axis, returns every
    # symbol's bits: inside the radius no sample can flip a bit
    levels, c = coded._axis_scale(bits, dbm(p0_dbm))
    tau = coded._safe_radius(levels, c, h)
    assert 0.5 * abs(h) * c <= tau <= abs(h) * c
    patterns = all_messages(bits)
    tx = qam_modulate(patterns, bits, dbm(p0_dbm))
    for re_sign in (-1.0, 1.0):
        for im_sign in (-1.0, 1.0):
            rx = h * tx + re_sign * tau + 1j * (im_sign * tau)
            assert_array_equal(qam_detect(rx, bits, dbm(p0_dbm), h), patterns)


def _assert_link_matches_the_chain(scheme, noise, h, words=(300, 40)):
    """The label-table link and the codec chain give equal flags from equal draws."""
    got_rng, want_rng = substream(3, 0), substream(3, 0)
    sent = want_rng.integers(0, 2, size=(*words, scheme.k), dtype=np.uint8)
    got = coded._words_intact(sent.shape[:-1], scheme, noise, h, got_rng)
    want = _reference_link_success(sent, scheme, noise, h, want_rng)
    assert_array_equal(got, want)
    assert got_rng.bit_generator.state == want_rng.bit_generator.state
    return want


@pytest.mark.parametrize("scheme", [*SCHEMES.values(), OWN_SCHEME], ids=lambda s: s.name)
@pytest.mark.parametrize("p0_dbm", [20.0, 30.0, 40.0])
@pytest.mark.parametrize("h", [0.01, -0.01])
def test_link_matches_the_codec_chain_where_the_radius_holds_most_samples(scheme, p0_dbm, h):
    # from 20 dBm most noise samples, and from 30 dBm nearly all, lie inside
    # the safe radius, so most words skip the detection chain and at 40 dBm
    # a chunk can have no word to detect at all
    want = _assert_link_matches_the_chain(scheme, NoisePowers(sigma_z2=1e-7, p0=dbm(p0_dbm)), h)
    assert want.any()


@pytest.mark.parametrize("scheme", [*SCHEMES.values(), OWN_SCHEME], ids=lambda s: s.name)
@pytest.mark.parametrize("h", [5e-324, -5e-324])
def test_link_matches_the_codec_chain_where_the_radius_falls_to_zero(scheme, h):
    # h c rounds to 0 at the smallest subnormal gain: no radius is proven and
    # every sample runs the chain, whose y / h overflows alike on both sides
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    assert coded._safe_radius(*coded._axis_scale(scheme.bits_per_symbol, noise.p0), h) == 0.0
    with np.errstate(over="ignore"):
        _assert_link_matches_the_chain(scheme, noise, h, words=(50, 40))


@pytest.mark.parametrize("h", [math.nan, math.inf, -math.inf, 0.0])
def test_coded_link_refuses_a_dead_or_non_finite_gain(h):
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    scheme = SCHEMES["bch7_4_qam16"]
    with pytest.raises(ValueError, match="channel gain"):
        run_coded_control(PLANT, noise, h, scheme, horizon=10, rng=substream(0, 0))
    with pytest.raises(ValueError, match="channel gain"):
        estimate_word_success(scheme, noise, h, substream(0, 0), words=10)
    with pytest.raises(ValueError, match="channel gain"):
        word_success(scheme, noise, h)


def _per_symbol_reference(noise, scheme, horizon, rng, replicas):
    """The coded loop stepped symbol by symbol: u = -a^d x(s) at a decoded epoch's end."""
    d = scheme.latency
    n_epochs = horizon // d
    if n_epochs:
        sent = rng.integers(0, 2, size=(replicas, n_epochs, scheme.k), dtype=np.uint8)
        success = _reference_link_success(sent, scheme, noise, 0.01, rng)
    else:
        success = np.zeros((replicas, 0), dtype=bool)
    w = rng.normal(0.0, math.sqrt(PLANT.sigma_w2), (replicas, horizon))
    x = x_start = np.zeros(replicas)
    states = np.empty((replicas, horizon))
    for t in range(horizon):
        if t % d == 0:
            x_start = x
        u = np.zeros(replicas)
        if (t + 1) % d == 0:
            ok = success[:, (t + 1) // d - 1]
            u[ok] = -PLANT.a**d * x_start[ok]
        x = PLANT.a * x + u + w[:, t]
        states[:, t] = x
    # this reference has no divergence guard, so it must never be needed
    assert np.abs(states).max() < DIVERGENCE_GUARD
    p_hat = success.mean() if success.size else 0.0
    stable = p_hat > required_success_probability(PLANT, scheme)
    return float(np.mean(states**2, axis=1).mean()) if stable else math.inf


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("p0", [0.1, 1.0])
@pytest.mark.parametrize("horizon", [101, 3, 1])
def test_coded_loop_matches_per_symbol_reference(name, p0, horizon):
    # 101 is no multiple of any latency; 3 and 1 are shorter than some or all
    noise = NoisePowers(sigma_z2=1e-7, p0=p0)
    scheme = SCHEMES[name]
    got = run_coded_control(PLANT, noise, 0.01, scheme, horizon, substream(5, 0), replicas=200)
    want = _per_symbol_reference(noise, scheme, horizon, substream(5, 0), replicas=200)
    assert got == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("name", sorted(SCHEMES))
@pytest.mark.parametrize("replicas, horizon",
                         [(130, 101), (130, 1), (50, 101), (1100, 11), (1400, 101)])
def test_coded_loop_matches_the_reference_across_noise_stage_fills(name, replicas, horizon):
    # 130 replicas leave a last plant-noise chunk of 2 rows, 50 fill the
    # stage only partly, a 1-step horizon is shorter than every epoch, 1100
    # replicas are 18 chunks of one kernel block, and 1400 replicas at
    # T = 101 are two kernel blocks, the last of 103 rows
    noise = NoisePowers(sigma_z2=1e-7, p0=1.0)
    scheme = SCHEMES[name]
    got = run_coded_control(PLANT, noise, 0.01, scheme, horizon, substream(5, 2), replicas)
    want = _per_symbol_reference(noise, scheme, horizon, substream(5, 2), replicas)
    assert got == pytest.approx(want, rel=1e-12)


def _coded_cells():
    """Every scheme's cost and its generator's final state, 150 x 101."""
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    cells = []
    for scheme in SCHEMES.values():
        rng = substream(5, 1)
        cells.append((run_coded_control(PLANT, noise, 0.01, scheme, 101, rng, replicas=150),
                      rng.bit_generator.state))
    return cells


def _word_estimates():
    """A k = 4 and a k = 11 scheme's estimated word success over 1001 words, and final states."""
    noise = NoisePowers(sigma_z2=1e-7, p0=dbm(10.0))
    estimates = []
    for name in ("bch7_4_qam16", "bch15_11_qam16"):
        rng = substream(5, 3)
        estimates.append((estimate_word_success(SCHEMES[name], noise, 0.01, rng, words=1001),
                          rng.bit_generator.state))
    return estimates


def test_chunk_sizes_change_no_coded_result(monkeypatch):
    # 64-row chunks and one 2^15-word link chunk by default; then messages
    # and plant noise in 4-row chunks and link words in 999-word chunks.
    # Message chunks must stay a multiple of 4 rows to take whole 32-bit
    # words of the generator; 1001 words leave a last message chunk of 41
    # rows by default and of 1 row in 4-row chunks
    default, estimates = _coded_cells(), _word_estimates()
    monkeypatch.setattr(coded, "_CHUNK_ROWS", 4)
    monkeypatch.setattr(coded, "_LINK_WORDS", 999)
    assert _coded_cells() == default
    assert _word_estimates() == estimates


def test_kernel_row_blocks_change_no_coded_result(monkeypatch):
    # plant noise is drawn and stepped in the analog cells' blocks, 1297
    # replicas at T = 101, so 150 are one block; in 7-row blocks they are
    # 22, the last of 3 rows
    default = _coded_cells()
    monkeypatch.setattr(model, "BLOCK_ELEMENTS", 7 * 101)
    assert _coded_cells() == default


def test_coded_cell_memory_is_bounded_by_the_chunks():
    # drawn and detected as dense arrays this cell peaks at 138 MiB; with its
    # whole (replicas, T) plant noise at about 49 MiB, and a kernel block at
    # a time, with success flags written over the link's flip counts, at
    # about 10 MiB
    noise = NoisePowers(sigma_z2=1e-7, p0=0.1)
    tracemalloc.start()
    try:
        cost = run_coded_control(
            PLANT, noise, 0.01, SCHEMES["bch7_4_qam256"], horizon=500,
            rng=substream(0, 1), replicas=10000,
        )
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert math.isfinite(cost)
    assert peak < 13 * 2**20
