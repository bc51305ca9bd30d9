"""End-to-end acceptance checks: closed forms vs oracles, simulators vs
predictions, codec exhaustives, qualitative cost orderings, determinism.

Each test here is an independent gate; tolerances and instance counts are
stated inline next to the assertion they guard.
"""
import json
import math

import numpy as np
import pytest
from numpy.testing import assert_array_equal

from wncs.cli import build_parser, main, parse_config
from wncs.coded import SCHEMES, estimate_word_success, required_success_probability, word_success
from wncs.experiments import (
    ExperimentSpec,
    run_multi_sweep,
    run_selection_sweep,
    run_single_compare,
)
from wncs.experiments import substream
from wncs.fast_control import (
    ETA,
    allocate_multi_fast,
    fast_snr_floor,
    stabilizable_fast,
)
from wncs.model import NoisePowers, PlantParams
from wncs.slow_control import allocate_multi_slow, optimize_single_slow, snr_floor

from codec_oracle import bch_decode, bch_encode, qam_modulate

PLANT = PlantParams(a=1.5, sigma_w2=0.1)
SIGMA_Z2 = 1e-7


def dbm(value):
    return 10.0 ** ((value - 30.0) / 10.0)


# ---------------------------------------------------------------------------
# closed forms against brute-force oracles
# ---------------------------------------------------------------------------


def test_slow_single_closed_form_never_beaten_by_dense_grid():
    # 100 randomized feasible instances; a 2000 x 2000 grid over
    # (log |k|, log g) inside the SNR budget must never improve on the
    # closed form by more than 0.5%
    rng = np.random.default_rng(2026)
    worst = 0.0
    for _ in range(100):
        a = float(rng.uniform(1.05, 1.6))
        h = float(10.0 ** rng.uniform(-3, -1))
        plant = PlantParams(a=a, sigma_w2=float(10.0 ** rng.uniform(-2, 0)))
        floor = (a * a - 1.0) / h**2
        gamma = floor * float(10.0 ** rng.uniform(1.0, 4.0))
        noise = NoisePowers(sigma_z2=SIGMA_Z2, p0=gamma * SIGMA_Z2)
        design = optimize_single_slow(plant, noise, h)
        ssr = noise.ssr(plant)
        k_star, g_star = abs(design.gains.k), design.gains.g
        ks = np.logspace(math.log10(k_star) - 2.0, math.log10(k_star) + 2.0, 2000)
        ks = -np.minimum(ks, math.sqrt(gamma / ssr))  # |k|^2 ssr <= gamma always
        gs = np.logspace(math.log10(g_star) - 2.0, math.log10(g_star) + 2.0, 2000)
        a_c = a + h * np.outer(ks, gs)
        d = 1.0 - a_c**2
        np.clip(d, 1e-300, None, out=d)
        stable = np.abs(a_c) < 1.0
        with np.errstate(over="ignore"):  # unstable cells overflow and get masked
            snr = (ks**2)[:, None] * (gs**2 + ssr)[None, :] / d
        feasible = stable & (snr <= gamma * (1.0 + 1e-12))
        cost = (gs**2 * noise.sigma_z2 + plant.sigma_w2)[None, :] / d
        grid_min = float(cost[feasible].min())
        worst = max(worst, design.j_ave / grid_min - 1.0)
    assert worst <= 0.005, f"grid beat the closed form by {worst:.3%}"


def test_slow_pair_allocation_matches_dense_split_sweep():
    # reference two-plant instance; 1e4-point sweep over the SNR split with
    # closed-form inner designs must sit within 0.1% of the allocation
    noise = NoisePowers(sigma_z2=SIGMA_Z2, p0=0.1)
    channels = [(1, 0.01), (2, 0.02)]
    _, design = allocate_multi_slow(channels, PLANT, noise)
    closed = sum(design.predicted_costs)
    floors = [snr_floor(PLANT, 0.01), snr_floor(PLANT, 0.02)]
    best = math.inf
    hi = noise.gamma0 - floors[1] * (1.0 + 1e-9)
    for g1 in np.linspace(floors[0] * (1 + 1e-9), hi, 10_000):
        j1 = optimize_single_slow(PLANT, noise, 0.01, gamma=g1).j_ave
        j2 = optimize_single_slow(PLANT, noise, 0.02, gamma=noise.gamma0 - g1).j_ave
        best = min(best, j1 + j2)
    assert closed <= best * (1.0 + 1e-12)
    assert best <= closed * 1.001


# ---------------------------------------------------------------------------
# simulation validates prediction (block fading)
# ---------------------------------------------------------------------------


def test_simulated_cost_matches_prediction_slow_designs():
    # every feasible single-plant design across the power range, simulated at
    # horizon 500 x 1000 replicas (5e5 effective samples): within 2%
    spec = ExperimentSpec(
        plant=PLANT,
        sigma_z2=SIGMA_Z2,
        powers_w=tuple(dbm(d) for d in (2.0, 10.0, 20.0, 30.0)),
        horizon=500,
        replicas=1000,
        seed=0,
    )
    result = run_single_compare(spec, h=0.01, schemes=())
    for i in range(len(spec.powers_w)):
        assert math.isfinite(result.series["analog_pred"][i])
        assert math.isfinite(result.series["analog_sim"][i])
        pred = result.series["analog_pred"][i]
        sim = result.series["analog_sim"][i]
        assert sim == pytest.approx(pred, rel=0.02)
    # the reference instance value lands on the derived ~0.1015 level
    i20 = spec.powers_w.index(dbm(20.0))
    assert result.series["analog_sim"][i20] == pytest.approx(0.1015, rel=0.02)

    # per-plant validation through the two-plant allocation recipe
    pair_spec = ExperimentSpec(
        plant=PLANT, sigma_z2=SIGMA_Z2, powers_w=(0.1,),
        horizon=500, replicas=1000, seed=0,
    )
    pair = run_multi_sweep(pair_spec, ((1, 0.01), (2, 0.02)), regime="slow")
    for pid in (1, 2):
        pred = pair.series[f"j{pid}_pred"][0]
        sim = pair.series[f"j{pid}_sim"][0]
        assert sim == pytest.approx(pred, rel=0.02)


# ---------------------------------------------------------------------------
# per-symbol fading: impossibility, boundary, prediction
# ---------------------------------------------------------------------------


def test_mean_square_growth_without_channel_knowledge():
    # 10 gain products, 1e5 replicas, t <= 50: with the sign flip disabled the
    # mean square state must grow for every tested pair
    replicas, horizon = 100_000, 50
    s = 1e-4
    products = -np.logspace(math.log10(5.0), math.log10(200.0), 10)
    for idx, u in enumerate(products):
        rng = substream(1, 40, idx)
        x = np.ones(replicas)
        checkpoints = {}
        for t in range(horizon):
            h = rng.normal(0.0, math.sqrt(s), replicas)
            w = rng.normal(0.0, math.sqrt(PLANT.sigma_w2), replicas)
            x = (PLANT.a + u * h) * x + w
            if t in (9, 24, 49):
                checkpoints[t] = float(np.mean(x**2))
        assert checkpoints[49] > checkpoints[24] > checkpoints[9]
        assert checkpoints[49] > 100.0 * checkpoints[9]


def test_sign_only_stabilizability_boundary():
    a_crit = 1.0 / math.sqrt(ETA)
    assert stabilizable_fast(PlantParams(a=a_crit - 1e-6, sigma_w2=0.1))
    assert not stabilizable_fast(PlantParams(a=a_crit + 1e-6, sigma_w2=0.1))
    assert not stabilizable_fast(PlantParams(a=a_crit, sigma_w2=0.1))


def test_simulated_cost_matches_prediction_fast_design():
    # the per-symbol loop's x^2 is heavy-tailed (E[A_c^4] > 1 here), so the
    # 2% comparison needs 2e5 replicas at horizon 500 to settle
    spec = ExperimentSpec(
        plant=PLANT, sigma_z2=SIGMA_Z2, powers_w=(0.1,),
        horizon=500, replicas=200_000, seed=0,
    )
    result = run_multi_sweep(spec, ((1, 1e-4),), regime="fast")
    pred = result.series["j1_pred"][0]
    sim = result.series["j1_sim"][0]
    assert pred == pytest.approx(0.5944866210304107, rel=1e-9)
    assert pred == pytest.approx(0.5945, rel=1e-3)
    assert sim == pytest.approx(pred, rel=0.02)


# ---------------------------------------------------------------------------
# channel inversion across both allocators
# ---------------------------------------------------------------------------


def test_better_channels_receive_strictly_less_snr():
    # 100 randomized feasible instances, checked under both fading regimes;
    # zero violations allowed whenever both plants sit above their floors
    rng = np.random.default_rng(99)
    violations = 0
    for _ in range(100):
        a = float(rng.uniform(1.05, 1.6))
        plant = PlantParams(a=a, sigma_w2=float(10.0 ** rng.uniform(-2, 0)))
        m = int(rng.integers(2, 6))

        hs = 10.0 ** rng.uniform(-3, -1, size=m)
        floors = (a * a - 1.0) / hs**2
        gamma0 = floors.sum() * float(rng.uniform(2.0, 100.0))
        noise = NoisePowers(sigma_z2=SIGMA_Z2, p0=gamma0 * SIGMA_Z2)
        alloc, _ = allocate_multi_slow(list(enumerate(hs)), plant, noise)
        above = [g > f * (1.0 + 1e-9) for g, f in zip(alloc.gamma, floors)]
        for i in range(m):
            for j in range(m):
                if hs[i] > hs[j] and above[i] and above[j]:
                    violations += alloc.gamma[i] >= alloc.gamma[j]

        ss = 10.0 ** rng.uniform(-5, -3, size=m)
        floors_f = np.array([fast_snr_floor(plant, s) for s in ss])
        gamma0 = floors_f.sum() * float(rng.uniform(2.0, 100.0))
        noise = NoisePowers(sigma_z2=SIGMA_Z2, p0=gamma0 * SIGMA_Z2)
        alloc, _ = allocate_multi_fast(list(enumerate(ss)), plant, noise)
        above = [g > f * (1.0 + 1e-9) for g, f in zip(alloc.gamma, floors_f)]
        for i in range(m):
            for j in range(m):
                if ss[i] > ss[j] and above[i] and above[j]:
                    violations += alloc.gamma[i] >= alloc.gamma[j]
    assert violations == 0


# ---------------------------------------------------------------------------
# coded baseline: exhaustive codec and constellation checks
# ---------------------------------------------------------------------------


def all_bit_patterns(width):
    return (
        (np.arange(1 << width)[:, None] >> np.arange(width - 1, -1, -1)) & 1
    ).astype(np.uint8)


def test_every_single_bit_error_is_corrected_both_codes():
    for name in ("bch7_4_qam16", "bch15_11_qam16"):
        scheme = SCHEMES[name]
        msgs = all_bit_patterns(scheme.k)
        words = bch_encode(msgs, scheme)
        decoded, _ = bch_decode(words, scheme)
        assert_array_equal(decoded, msgs)
        for pos in range(scheme.n):
            corrupted = words.copy()
            corrupted[:, pos] ^= 1
            decoded, _ = bch_decode(corrupted, scheme)
            assert_array_equal(decoded, msgs)


def test_gray_adjacency_exhaustive_16_and_256_qam():
    for bits_per_symbol in (4, 8):
        levels = 1 << (bits_per_symbol // 2)
        patterns = all_bit_patterns(bits_per_symbol)
        symbols = qam_modulate(patterns, bits_per_symbol, power=1.0).ravel()
        scale = np.min(np.abs(np.unique(symbols.real)))
        level_i = np.round(symbols.real / scale).astype(int)
        level_q = np.round(symbols.imag / scale).astype(int)
        label = {(i, q): tuple(p) for i, q, p in zip(level_i, level_q, patterns)}
        assert len(label) == levels * levels
        checked = 0
        for (i, q), bits in label.items():
            for neighbor in ((i + 2, q), (i, q + 2)):
                if neighbor in label:
                    diff = sum(b1 != b2 for b1, b2 in zip(bits, label[neighbor]))
                    assert diff == 1
                    checked += 1
        assert checked == 2 * levels * (levels - 1)


# ---------------------------------------------------------------------------
# cost landscape of coded vs analog loops over the power grid
# ---------------------------------------------------------------------------

LATENCY_OF = {name: SCHEMES[name].latency for name in SCHEMES}
COMPARE_H = 0.01


def _compare_at(powers, seed=0):
    spec = ExperimentSpec(
        plant=PLANT, sigma_z2=SIGMA_Z2, powers_w=powers,
        horizon=500, replicas=1000, seed=seed,
    )
    return run_single_compare(spec, h=COMPARE_H)


def test_coded_costs_order_by_latency_at_high_power():
    powers = tuple(dbm(d) for d in (20.0, 25.0, 30.0, 35.0, 40.0))
    result = _compare_at(powers)
    for i, p in enumerate(powers):
        by_latency = {}
        for name in SCHEMES:
            if math.isfinite(result.series[name][i]):
                by_latency.setdefault(LATENCY_OF[name], []).append(
                    result.series[name][i]
                )
        present = sorted(by_latency)
        assert present, f"no coded scheme bounded at {p} W"
        for lo, hi in zip(present, present[1:]):
            assert max(by_latency[lo]) < min(by_latency[hi]), (
                f"latency ordering violated at {p} W"
            )
        if i >= 2:  # from 30 dBm on, every scheme must be supportable
            assert all(math.isfinite(result.series[name][i]) for name in SCHEMES)


def test_analog_loop_competitive_with_best_coded_at_20_dbm():
    result = _compare_at((dbm(20.0),))
    assert math.isfinite(result.series["analog_sim"][0])
    coded = [
        result.series[name][0] for name in SCHEMES if math.isfinite(result.series[name][0])
    ]
    assert coded
    assert result.series["analog_sim"][0] <= min(coded) * 1.05


def _exact_word_success(scheme, p0):
    """Exact word success of a perfect t=1 code on Gray QAM at gain COMPARE_H.

    Each m-bit half of a symbol is one Gray-labelled PAM axis (level i
    carries label i ^ (i >> 1), MSB first) with amplitude unit c such that
    E|symbol|^2 = p0, detected by thresholds at the level midpoints under
    noise of std sqrt(SIGMA_Z2) / COMPARE_H.  A word returns the sent
    message iff at most one of its n code bits is wrong; padding bits do not
    count.  The rate is averaged over all 2^k codewords.
    """
    m = scheme.bits_per_symbol // 2
    levels = 1 << m
    c = math.sqrt(3.0 * p0 / (2.0 * (levels**2 - 1)))
    scale = math.sqrt(2.0 * SIGMA_Z2) / COMPARE_H

    def beyond(t):  # P(axis noise > t)
        return 0.5 * math.erfc(t / scale)

    # trans[i][j]: level i sent, level j detected (decision interval amp_j +- c)
    trans = [
        [
            (1.0 if j == 0 else beyond((2 * (j - i) - 1) * c))
            - (0.0 if j == levels - 1 else beyond((2 * (j - i) + 1) * c))
            for j in range(levels)
        ]
        for i in range(levels)
    ]
    gray = [i ^ (i >> 1) for i in range(levels)]
    level_of = {label: i for i, label in enumerate(gray)}

    def axis_errors(label, mask):
        """P(no code bit wrong), P(exactly one code bit wrong) on one axis."""
        i = level_of[label]
        p = [0.0, 0.0]
        for j in range(levels):
            wrong = bin((gray[i] ^ gray[j]) & mask).count("1")
            if wrong < 2:
                p[wrong] += trans[i][j]
        return p

    axes = 2 * scheme.latency
    words = bch_encode(all_bit_patterns(scheme.k), scheme)
    padded = np.zeros((len(words), axes * m), dtype=np.int64)
    padded[:, : scheme.n] = words
    weights = 1 << np.arange(m - 1, -1, -1)
    labels = padded.reshape(len(words), axes, m) @ weights
    masks = (np.arange(axes * m) < scheme.n).reshape(axes, m) @ weights
    total = 0.0
    for row in labels:
        clean, one = 1.0, 0.0
        for label, mask in zip(row, masks):
            p_clean, p_one = axis_errors(int(label), int(mask))
            clean, one = clean * p_clean, one * p_clean + clean * p_one
        total += clean + one
    return total / len(words)


def test_some_low_latency_coded_scheme_survives_low_snr():
    # which d<=2 coded schemes stay bounded where the analog loop sits at or
    # just past its floor (knee 0.969 dBm at h = 0.01)?  The dead-beat loop
    # is mean-square stable iff its word success p exceeds 1 - a^(-2d), and
    # _exact_word_success gives p in closed form (erfc), independent of the
    # simulator.  Exact p at 0.9 dBm: 0.3168 (bch7_4_qam16, needs 0.8025),
    # 0.1532 (bch7_4_qam256, needs 0.5556), 0.0050 (bch15_11_qam256, needs
    # 0.8025), so no coded scheme survives there; the exact stability knees
    # are 9.01 / 12.96 / 23.25 dBm for these three and 15.41 dBm for
    # bch15_11_qam16 (d=4).  At 10 dBm bch7_4_qam16 has p = 0.8541 and
    # survives.  Every (power, scheme) point checked sits >= 0.05 from its
    # requirement; with 1000 x 250 epoch words per point the simulator's
    # measured p has std <= 0.001, so Monte-Carlo noise cannot flip a verdict
    powers = (dbm(0.9), dbm(10.0))
    result = _compare_at(powers)
    assert not math.isfinite(result.series["analog_pred"][0])  # analog truly infeasible here
    for i, p0 in enumerate(powers):
        for name, scheme in SCHEMES.items():
            if scheme.latency > 2:
                continue
            exact = _exact_word_success(scheme, p0)
            required = required_success_probability(PLANT, scheme)
            assert abs(exact - required) >= 0.05
            assert math.isfinite(result.series[name][i]) == (exact > required), (
                f"{name} at {p0} W: exact word success {exact:.4f} vs "
                f"required {required:.4f}, simulated verdict "
                f"{math.isfinite(result.series[name][i])}"
            )
    # above its knee the (7,4) 16-QAM loop survives, and the analog loop is
    # bounded and cheaper (about 0.126 against 1.75)
    assert math.isfinite(result.series["bch7_4_qam16"][1])
    assert math.isfinite(result.series["analog_sim"][1])
    assert result.series["analog_sim"][1] < result.series["bch7_4_qam16"][1]

    # the oracle describes the program's link: 200k words per scheme at
    # 0.9 dBm from a fixed substream land within 5 binomial standard errors
    noise = NoisePowers(sigma_z2=SIGMA_Z2, p0=dbm(0.9))
    words = 200_000
    for idx, scheme in enumerate(SCHEMES.values()):
        exact = _exact_word_success(scheme, noise.p0)
        measured = estimate_word_success(
            scheme, noise, COMPARE_H, substream(0, 50, idx), words=words
        )
        stderr = math.sqrt(exact * (1.0 - exact) / words)
        assert abs(measured - exact) <= 5.0 * stderr, scheme.name


def test_default_compare_names_its_cells_without_a_standard_error():
    # a simulated dead-beat coded loop's time-average cost has a finite
    # variance iff its fourth-moment rate (1-p) a^(4d) is below 1; README
    # "Known deviations" names the default grid's three cells at or above it
    config = parse_config("compare", build_parser().parse_args(["compare"]))
    plant = PlantParams(a=config.a, sigma_w2=config.sigma_w2)
    rates = {}
    for p0 in config.powers_w:
        noise = NoisePowers(sigma_z2=config.sigma_z2_w, p0=p0)
        for name in config.schemes:
            scheme = SCHEMES[name]
            p = word_success(scheme, noise, config.h)
            if p > required_success_probability(plant, scheme):  # compare simulates it
                dbm_at = round(10.0 * math.log10(p0) + 30.0)
                rates[name, dbm_at] = (1.0 - p) * plant.a ** (4 * scheme.latency)
    assert len(rates) == 22
    heavy = {cell: rate for cell, rate in rates.items() if rate >= 1.0}
    assert set(heavy) == {("bch7_4_qam16", 10), ("bch7_4_qam256", 15), ("bch15_11_qam256", 25)}
    assert [round(heavy[cell], 3) for cell in sorted(heavy)] == [2.364, 3.738, 1.663]
    assert max(rate for rate in rates.values() if rate < 1.0) < 0.46


# ---------------------------------------------------------------------------
# plant selection under Rayleigh draws
# ---------------------------------------------------------------------------


def test_average_selected_count_monotone_and_near_m0_at_20_dbm():
    spec = ExperimentSpec(
        plant=PlantParams(a=1.1, sigma_w2=0.1),
        sigma_z2=SIGMA_Z2,
        powers_w=tuple(dbm(d) for d in range(0, 25, 4)),
        horizon=10,
        replicas=1,
        seed=0,
    )
    result = run_selection_sweep(
        spec, m0_values=(2, 5, 10), mean_power_gain=1e-4, realizations=10_000
    )
    i20 = spec.powers_w.index(dbm(20.0))
    for m0 in (2, 5, 10):
        avg = np.array(result.series[f"m{m0}_avg_selected"])
        assert (np.diff(avg) >= 0.0).all()
        assert avg[i20] >= 0.95 * m0


# ---------------------------------------------------------------------------
# determinism of the command-line recipes
# ---------------------------------------------------------------------------


def test_every_recipe_rerun_is_byte_identical(tmp_path):
    recipes = {
        "trace": ["trace", "--horizon", "40", "--replicas", "4"],
        "compare": ["compare", "--grid", "20:25:5 dBm", "--horizon", "60",
                     "--replicas", "6"],
        "multi-slow": ["multi-slow", "--grid", "18:20:2 dBm", "--horizon", "60",
                        "--replicas", "6"],
        "multi-fast": ["multi-fast", "--grid", "12:14:2 dBm", "--horizon", "50",
                        "--replicas", "6"],
        "select-sweep": ["select-sweep", "--grid", "0:10:5 dBm", "--m0", "2,3",
                          "--realizations", "300"],
    }
    for name, args in recipes.items():
        out = tmp_path / f"{name}.csv"
        argv = args + ["--seed", "7", "--out", str(out)]
        assert main(argv) == 0
        csv_first = out.read_bytes()
        meta_first = (tmp_path / f"{name}.csv.meta.json").read_bytes()
        assert main(argv) == 0
        assert out.read_bytes() == csv_first, f"{name} CSV changed across reruns"
        assert (tmp_path / f"{name}.csv.meta.json").read_bytes() == meta_first
