"""Command-line front end: parse a run configuration, run a recipe, write CSV.

Subcommands map one-to-one to the experiment recipes (trace, compare,
multi-slow, multi-fast, select-sweep) plus ``verify``, which cross-checks the
closed-form optimizers against brute-force oracles and the simulators against
the predictions.

Powers on the command line and in config files always carry an explicit unit
("20 dBm", "0.1 W", "100 mW"); everything internal is linear watts.  Exit
codes: 0 success, 1 usage/config error, 2 the requested experiment has no
feasible grid point, 3 verification failure.
"""
from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import math
import re
import sys
from dataclasses import replace
from types import SimpleNamespace
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from . import __version__
from . import coded
from .coded import SCHEMES, estimate_word_success, word_success
from .experiments import (
    ExperimentSpec,
    SweepResult,
    add_shared_gain_series,
    run_multi_sweep,
    run_selection_sweep,
    run_single_compare,
    run_trace,
    substream,
)
from .fast_control import (
    ETA,
    allocate_multi_fast,
    expected_ac2,
    fast_snr_floor,
    optimize_single_fast,
    stabilizable_fast,
)
from .model import NoisePowers, PlantParams
from .slow_control import allocate_multi_slow, optimize_single_slow, snr_floor, summed_floor

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3

#: cells with no finite value render as this token
INF_TOKEN = "INF"


# ---------------------------------------------------------------------------
# unit parsing
# ---------------------------------------------------------------------------

#: a power unit, which power text writes once, after its last number
_UNIT_RE = re.compile(r"dbm|mw|w", re.IGNORECASE)
#: power text: its numbers, then one unit, with or without a space before it
_POWER_RE = re.compile(rf"^\s*(.+?)\s*({_UNIT_RE.pattern})\s*$", re.IGNORECASE)
#: how power text is written, told to whoever writes it another way
_ONE_UNIT = "power text is one string with one unit after its last number, e.g. '20,30 dBm'"
#: the most points a grid range may hold, which bounds the list built from it
MAX_GRID_POINTS = 10_000


def dbm_to_watts(dbm: float) -> float:
    try:
        return 10.0 ** ((dbm - 30.0) / 10.0)
    except OverflowError:
        limit = watts_to_dbm(sys.float_info.max)
        raise ValueError(
            f"power {dbm!r} dBm is past the largest float power, about {limit:.1f} dBm"
        ) from None


_TO_WATTS = {"dbm": dbm_to_watts, "mw": lambda v: v * 1e-3, "w": float}


def watts_to_dbm(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError(f"cannot express {watts!r} W in dBm")
    return 10.0 * math.log10(watts) + 30.0


def parse_power(text: str) -> float:
    """One power value with a mandatory unit -> watts: a one-point power grid."""
    watts = parse_power_grid(text)
    if len(watts) != 1:
        raise ValueError(f"expected one power, got {len(watts)} in {text!r}")
    return watts[0]


def parse_power_grid(text: str) -> tuple[float, ...]:
    """Power text -> watts in the order written (``ExperimentSpec`` checks it).

    One number, a range 'start:stop:step' (inclusive of stop when it lands on
    the lattice, and of at most ``MAX_GRID_POINTS`` points) or a comma list
    '1,4,7', then one unit for every number: dBm, W or mW.  A bare number is
    refused so a config cannot mix scales.
    """
    if isinstance(text, (list, tuple)):
        raise ValueError(f"power {text!r} is a list: {_ONE_UNIT}")
    if not isinstance(text, str):
        raise ValueError(f"power {text!r} is missing a unit (write e.g. '{text} dBm' or '{text} W')")
    m = _POWER_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse power {text!r}; expected '<values> dBm|W|mW'")
    body, unit = m.groups()
    if _UNIT_RE.search(body):
        raise ValueError(f"power {text!r} has a unit before its last number: {_ONE_UNIT}")
    if ":" in body:
        try:
            start, stop, step = map(_real, body.split(":"))
        except ValueError as exc:
            raise ValueError(f"grid range {body!r} must have finite start, stop and step") from exc
        if step <= 0.0 or stop < start:
            raise ValueError(f"grid range {body!r} must have step > 0 and stop >= start")
        # counted before a point is built; an overflowing count is refused too
        span = (stop - start) / step + 1e-9
        if not span < MAX_GRID_POINTS:
            raise ValueError(f"grid range {body!r} holds more than {MAX_GRID_POINTS} points")
        values = [start + i * step for i in range(int(math.floor(span)) + 1)]
    else:
        values = _list_of(_real)(body)
    return tuple(map(_TO_WATTS[unit.lower()], values))


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

# every parser takes flag text or a YAML value, so both go the same way


def _real(value) -> float:
    number = math.nan if isinstance(value, bool) else float(value)
    if not math.isfinite(number):
        raise ValueError(f"{value!r} is not a finite number")
    return number


def _integer(value) -> int:
    if isinstance(value, str):
        return int(value)
    if isinstance(value, bool) or int(value) != value:
        raise ValueError(f"{value!r} is not an integer")
    return int(value)


def _list_of(item: Callable) -> Callable:
    """A parser of a comma string or a YAML list (a scalar is a one-item list)."""

    def parse(value) -> tuple:
        if isinstance(value, str):
            value = [p for p in value.split(",") if p.strip()]
        elif not isinstance(value, (list, tuple)):
            value = [value]
        if not value:
            raise ValueError("the list is empty")
        return tuple(item(v) for v in value)

    return parse


def _default(callee: Callable, keyword: str):
    """The default of ``keyword`` in the signature of a recipe or of ExperimentSpec."""
    return inspect.signature(callee).parameters[keyword].default


_GRID_DEFAULTS = {
    "compare": "0:40:5 dBm",
    "multi-slow": "0:20:2 dBm",
    "multi-fast": "8:30:2 dBm",
    "select-sweep": "0:24:2 dBm",
}


#: every setting, keyed by its config-file key, which is also its flag's dest:
#: (config field, default, parser, flag help).  Flags beat the file, the
#: file beats the default; a callable default takes the recipe name.  ``trace``
#: reads its one budget from p0, the rest a grid.  Run sizes and recipe
#: keywords default to what ExperimentSpec and the recipes say.
_SETTINGS = {
    # the selection recipe defaults to a milder plant, per its usual usage
    "a": ("a", lambda kind: 1.1 if kind == "select-sweep" else 1.5, _real,
          "open-loop plant gain (|a| > 1)"),
    "sigma_w2": ("sigma_w2", 0.1, _real, "disturbance power, watts"),
    "sigma_z2": ("sigma_z2_w", "-40 dBm", parse_power, "actuator noise power, e.g. '-40 dBm'"),
    "p0": ("powers_w", "20 dBm", lambda v: (parse_power(v),),
           "transmit power budget, e.g. '20 dBm'"),
    "grid": ("powers_w", _GRID_DEFAULTS.get, parse_power_grid,
             "power grid, e.g. '0:40:5 dBm' or '1,10,100 mW'"),
    "horizon": ("horizon", _default(ExperimentSpec, "horizon"), _integer,
                "control symbols per process"),
    "replicas": ("replicas", _default(ExperimentSpec, "replicas"), _integer,
                 "Monte-Carlo replicas"),
    "seed": ("seed", _default(ExperimentSpec, "seed"), _integer, "root seed for all substreams"),
    "out": ("out", "{}.csv".format, str, "output CSV path"),
    "h": ("h", 0.01, _real, "block channel magnitude"),
    "channels": ("channel_gains", (0.01, 0.02), _list_of(_real),
                 "comma list of per-plant channel magnitudes"),
    "sigma_h2": ("sigma_h2", (1e-4, 4e-4), _list_of(_real),
                 "comma list of per-plant channel variances"),
    "a_c": ("a_c", (0.6, 0.9, 1.01), _list_of(_real), "comma list of closed-loop factors"),
    "x0": ("x0", _default(run_trace, "x0"), _real, "initial plant state"),
    "m0": ("m0", _default(run_selection_sweep, "m0_values"), _list_of(_integer),
           "comma list of candidate plant counts"),
    "realizations": ("realizations", _default(run_selection_sweep, "realizations"), _integer,
                     "channel realizations per M0"),
    "mean_gain": ("mean_gain", _default(run_selection_sweep, "mean_power_gain"), _real,
                  "Rayleigh mean power gain"),
    "schemes": ("schemes", _default(run_single_compare, "schemes"),
                _list_of(lambda v: str(v).strip()), f"comma list from: {', '.join(SCHEMES)}"),
    "g_common": ("g_common", None, _real, "also design with one shared actuator factor"),
    "k_common": ("k_common", None, _real, "also design with one shared controller factor"),
}

#: (flag, setting key) pairs that every recipe accepts, beside --config
_COMMON_FLAGS = (
    ("--a", "a"), ("--sigma-w2", "sigma_w2"), ("--sigma-z2", "sigma_z2"),
    ("--horizon", "horizon"), ("--replicas", "replicas"), ("--seed", "seed"), ("--out", "out"),
)


def _plants(channels: Sequence[float]) -> tuple[tuple[int, float], ...]:
    """Per-plant channel values numbered from plant 1."""
    return tuple(enumerate(channels, start=1))


def _spec(config: SimpleNamespace) -> ExperimentSpec:
    """The plant, noise, grid and run sizes of a resolved configuration."""
    return ExperimentSpec(
        plant=PlantParams(a=config.a, sigma_w2=config.sigma_w2),
        sigma_z2=config.sigma_z2_w,
        powers_w=config.powers_w,
        horizon=config.horizon,
        replicas=config.replicas,
        seed=config.seed,
    )


#: subcommand -> (help, its own (flag, setting key) pairs, the recipe run on a parse_config result)
_RECIPES: dict[str, tuple[str, tuple[tuple[str, str], ...], Callable]] = {
    "trace": (
        "state and running-cost series at fixed closed-loop factors",
        (("--p0", "p0"), ("--h", "h"), ("--a-c", "a_c"), ("--x0", "x0")),
        lambda c: run_trace(_spec(c), c.a_c, c.h, x0=c.x0),
    ),
    "compare": (
        "analog loop vs coded baselines over a power grid",
        (("--grid", "grid"), ("--h", "h"), ("--schemes", "schemes")),
        lambda c: run_single_compare(_spec(c), c.h, schemes=c.schemes),
    ),
    "multi-slow": (
        "two-plus-plant allocation sweep, block fading",
        (("--grid", "grid"), ("--h", "channels"), ("--g-common", "g_common"),
         ("--k-common", "k_common")),
        lambda c: add_shared_gain_series(
            run_multi_sweep(_spec(c), _plants(c.channel_gains), regime="slow"),
            _spec(c), _plants(c.channel_gains), c.g_common, c.k_common),
    ),
    "multi-fast": (
        "two-plus-plant allocation sweep, per-symbol fading",
        (("--grid", "grid"), ("--sigma-h2", "sigma_h2")),
        lambda c: run_multi_sweep(_spec(c), _plants(c.sigma_h2), regime="fast"),
    ),
    "select-sweep": (
        "average supportable plant count under Rayleigh draws",
        (("--grid", "grid"), ("--m0", "m0"), ("--realizations", "realizations"),
         ("--mean-gain", "mean_gain")),
        lambda c: run_selection_sweep(_spec(c), m0_values=c.m0, mean_power_gain=c.mean_gain,
                                      realizations=c.realizations),
    ),
}


def _load_config_file(path: str) -> dict:
    # imported here, so that a run without --config never loads it
    import yaml

    try:
        with open(path, "r", encoding="utf-8") as f:
            raw = yaml.safe_load(f)
    except OSError as exc:
        raise ValueError(f"cannot read config {path!r}: {exc}") from exc
    except yaml.YAMLError as exc:
        raise ValueError(f"config {path!r} is not valid YAML: {exc}") from exc
    if raw is None:
        return {}
    if not isinstance(raw, dict):
        raise ValueError(f"config {path!r} must be a mapping of settings")
    unknown = sorted(repr(key) for key in raw if key not in _SETTINGS)
    if unknown:
        raise ValueError(f"config {path!r} has unknown field(s): {', '.join(unknown)}")
    return raw


def parse_config(kind: str, args: argparse.Namespace) -> SimpleNamespace:
    """Merge built-in defaults, the optional config file and explicit flags.

    The result holds ``kind`` and one attribute per field ``_SETTINGS`` names.
    """
    file_cfg = _load_config_file(args.config) if args.config else {}
    own = {key for _, key in _RECIPES[kind][1]}
    # every setting is resolved, so the sidecar records them all, but of two
    # keys that set one field (p0 and grid) only the one the recipe owns is read
    claimed = {_SETTINGS[key][0] for key in own}
    fields = {}
    for key, (field, default, parse, _) in _SETTINGS.items():
        if field in claimed and key not in own:
            continue
        # a null in the file, like an absent flag, leaves the setting unset
        value = getattr(args, key, None)
        if value is None:
            value = file_cfg.get(key)
        if value is None:
            value = default(kind) if callable(default) else default
        try:
            fields[field] = None if value is None else parse(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise ValueError(f"setting {key} = {value!r}: {exc}") from exc
    config = SimpleNamespace(kind=kind, **fields)
    _spec(config)  # validates the plant, noise, grid and run sizes early
    return config


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def emit_csv(result: SweepResult, path: str, config: Optional[SimpleNamespace] = None) -> None:
    """Write the result table as CSV, row by row, plus a <path>.meta.json sidecar.

    Unbounded cells become the INF token, and non-finite meta values null, so
    the sidecar is strict JSON.  The sidecar records the seed, replica count,
    resolved configuration and its hash, so a CSV can always be traced back
    to the exact run that produced it.
    """
    names, bounded = list(result.series), result.bounded

    def lines() -> Iterator[str]:
        yield ",".join([result.x_name, *names]) + "\n"
        for i, xv in enumerate(result.x):
            cells = [_fmt(xv)]
            for name in names:
                cells.append(_fmt(result.series[name][i]) if bounded[name][i] else INF_TOKEN)
            yield ",".join(cells) + "\n"

    _write(path, lines())
    sidecar = {
        "package_version": __version__,
        "x_name": result.x_name,
        "series": names,
        "rows": len(result.x),
        # a round trip that reads Infinity, -Infinity and NaN back as null
        "meta": json.loads(json.dumps(result.meta), parse_constant=lambda _: None),
    }
    if config is not None:
        cfg = vars(config)
        sidecar["config"] = cfg
        sidecar["config_sha256"] = hashlib.sha256(json.dumps(cfg, sort_keys=True).encode()).hexdigest()
        sidecar["seed"] = config.seed
        sidecar["replicas"] = config.replicas
    text = json.dumps(sidecar, indent=2, sort_keys=True, allow_nan=False)
    _write(path + ".meta.json", [text, "\n"])


def _write(path: str, lines: Iterable[str]) -> None:
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.writelines(lines)
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}") from exc


def _finish(result: SweepResult, config: SimpleNamespace) -> int:
    emit_csv(result, config.out, config)
    print(f"wrote {config.out} ({len(result.x)} rows, {len(result.series)} series)")
    feasible = result.meta.get("feasible_points")
    if feasible == 0:
        print("no feasible grid point under the given budget", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# verify: closed forms vs brute-force oracles, simulators vs predictions
# ---------------------------------------------------------------------------

_VERIFY_PLANT = PlantParams(a=1.5, sigma_w2=0.1)
_VERIFY_NOISE = NoisePowers(sigma_z2=1e-7, p0=0.1)


def _check_slow_single_grid() -> tuple[bool, str]:
    """Closed-form single-loop design vs a coarse 2-D grid over (k, g)."""
    cases = [
        (PlantParams(1.5, 0.1), NoisePowers(1e-7, 0.1), 0.01),
        (PlantParams(1.2, 0.05), NoisePowers(1e-7, 0.01), 0.05),
        (PlantParams(1.6, 0.2), NoisePowers(1e-6, 1.0), 0.003),
    ]
    worst = 0.0
    for plant, noise, h in cases:
        design = optimize_single_slow(plant, noise, h)
        ssr = noise.ssr(plant)
        g0 = noise.gamma0
        a = plant.a
        k_max = math.sqrt(g0 / ssr)
        ks = -np.logspace(math.log10(k_max) - 2.0, math.log10(k_max), 400)
        best = math.inf
        for k in ks:
            # the budget k^2 (g^2 + ssr) <= g0 (1 - (a + g h k)^2) is a
            # quadratic in g; sample only the feasible interval it defines
            qa = k * k * (1.0 + g0 * h * h)
            qb = 2.0 * g0 * a * h * k
            qc = k * k * ssr + g0 * (a * a - 1.0)
            disc = qb * qb - 4.0 * qa * qc
            if disc <= 0.0:
                continue
            root = math.sqrt(disc)
            gs = np.linspace((-qb - root) / (2 * qa), (-qb + root) / (2 * qa), 200)
            a_c = a + gs * h * k
            j = (gs**2 * noise.sigma_z2 + plant.sigma_w2) / (1.0 - a_c**2)
            j[np.abs(a_c) >= 1.0] = math.inf
            best = min(best, float(j.min()))
        if best < design.j_ave * (1.0 - 1e-9):
            return False, f"grid beat the closed form ({best} < {design.j_ave})"
        worst = max(worst, best / design.j_ave - 1.0)
    if worst > 5e-3:
        return False, f"grid optimum is {worst:.2%} above the closed form"
    return True, f"grid within {worst:.2e} of closed form on 3 instances"


def _check_pair_sweep(
    allocate: Callable, single: Callable, floor: Callable, channels: tuple[float, float]
) -> tuple[bool, str]:
    """A two-plant allocation vs a 4000-point sweep of the budget split."""
    c1, c2 = channels
    _, design = allocate(((1, c1), (2, c2)), _VERIFY_PLANT, _VERIFY_NOISE)
    g0 = _VERIFY_NOISE.gamma0
    best = math.inf
    for g1 in np.linspace(floor(_VERIFY_PLANT, c1), g0 - floor(_VERIFY_PLANT, c2), 4000)[1:-1]:
        j = (
            single(_VERIFY_PLANT, _VERIFY_NOISE, c1, gamma=g1).j_ave
            + single(_VERIFY_PLANT, _VERIFY_NOISE, c2, gamma=g0 - g1).j_ave
        )
        best = min(best, j)
    gap = abs(design.total_cost - best) / best
    if design.total_cost > best * (1.0 + 1e-9):
        return False, f"split sweep beat the allocation ({best} < {design.total_cost})"
    if gap > 1e-3:
        return False, f"allocation differs from sweep optimum by {gap:.2%}"
    return True, f"two-plant allocation within {gap:.2e} of a 4000-point split sweep"


def _check_fast_single_sweep() -> tuple[bool, str]:
    s = 1e-4
    design = optimize_single_fast(_VERIFY_PLANT, _VERIFY_NOISE, s)
    g0 = _VERIFY_NOISE.gamma0
    us = np.linspace(2.0 * design.gain_product, -1e-6, 4000)
    e = np.array([expected_ac2(_VERIFY_PLANT, float(u), s) for u in us])
    denom = (1.0 - e) * g0 - us**2
    valid = denom > 0
    j = np.full_like(us, math.inf)
    j[valid] = g0 * _VERIFY_PLANT.sigma_w2 / denom[valid]
    best = float(j.min())
    gap = abs(design.j_ave - best) / best
    if design.j_ave > best * (1.0 + 1e-9):
        return False, f"product sweep beat the closed form ({best} < {design.j_ave})"
    if gap > 1e-3:
        return False, f"closed form differs from sweep optimum by {gap:.2%}"
    return True, f"single-plant fast optimum within {gap:.2e} of a product sweep"


def _check_budget_saturation() -> tuple[bool, str]:
    design = optimize_single_slow(_VERIFY_PLANT, _VERIFY_NOISE, 0.01)
    ssr = _VERIFY_NOISE.ssr(_VERIFY_PLANT)
    snr = design.gains.k**2 * (design.gains.g**2 + ssr) / (1.0 - design.a_c**2)
    rel_slow = abs(snr / _VERIFY_NOISE.gamma0 - 1.0)
    fast = optimize_single_fast(_VERIFY_PLANT, _VERIFY_NOISE, 1e-4)
    snr_f = (fast.gain_product**2 + fast.gains.k**2 * ssr) / (1.0 - fast.expected_ac2)
    rel_fast = abs(snr_f / _VERIFY_NOISE.gamma0 - 1.0)
    ok = rel_slow <= 1e-9 and rel_fast <= 1e-9
    return ok, f"designs sit on the SNR budget (rel err {rel_slow:.1e} slow, {rel_fast:.1e} fast)"


def _check_fast_boundary() -> tuple[bool, str]:
    eta_exact = 1.0 - 2.0 / math.pi
    if ETA != eta_exact:
        return False, "eta constant drifted"
    a_star = 1.0 / math.sqrt(eta_exact)
    below = stabilizable_fast(PlantParams(a=a_star - 1e-6, sigma_w2=0.1))
    above = stabilizable_fast(PlantParams(a=a_star + 1e-6, sigma_w2=0.1))
    ok = below and not above and not stabilizable_fast(PlantParams(a=1.66, sigma_w2=0.1))
    return ok, f"stabilizability flips at |a| = {a_star:.7f}"


def _check_codecs() -> tuple[bool, str]:
    """The link's rule holds: a word is intact iff at most one code bit flipped.

    That is exact iff the code is perfect with minimum distance 3: the least
    nonzero weight of its (linear) codewords is 3, and 2^k (n + 1) = 2^n, the
    Hamming bound met with equality.  Per axis, adjacent levels' Gray labels
    differ in one bit, and every level detects as itself through the link's
    own detector with no noise.
    """
    for scheme in SCHEMES.values():
        k, n = scheme.k, scheme.n
        distance = min(word.bit_count() for word in coded._codewords(scheme)[1:])
        if distance != 3 or (1 << k) * (n + 1) != 1 << n:
            return False, f"{scheme.name}: not a perfect single-error-correcting code"
        levels, c = coded._axis_scale(scheme.bits_per_symbol, 1.0)
        to_gray, from_gray = coded._gray_maps(levels)
        if any(int(step).bit_count() != 1 for step in to_gray[1:] ^ to_gray[:-1]):
            return False, f"{scheme.name}: Gray adjacency broken"
        amplitude = (2.0 * from_gray - (levels - 1)) * c  # of each label
        if not np.array_equal(to_gray[coded._detect(amplitude, levels, c, 1.0)], np.arange(levels)):
            return False, f"{scheme.name}: noiseless QAM round-trip failed"
    return True, "all codewords correct every single-bit error; QAM is Gray and round-trips clean"


def _check_coded_link() -> tuple[bool, str]:
    """Exact word success vs 200k link words per scheme, within 5 binomial standard errors."""
    noise, words, rng = replace(_VERIFY_NOISE, p0=dbm_to_watts(10.0)), 200_000, substream(0, 0)
    scores = []
    for scheme in SCHEMES.values():
        exact = word_success(scheme, noise, 0.01)
        measured = estimate_word_success(scheme, noise, 0.01, rng, words)
        scores.append(abs(measured - exact) / math.sqrt(exact * (1.0 - exact) / words))
    detail = ", ".join(f"{name} {z:.2f}" for name, z in zip(SCHEMES, scores))
    return max(scores) <= 5.0, f"link vs exact word success at 10 dBm, in standard errors: {detail}"


def _check_sim_vs_prediction() -> tuple[bool, str]:
    slow = ExperimentSpec(plant=_VERIFY_PLANT, sigma_z2=1e-7, powers_w=(0.1,), replicas=1000)
    # the fast loop's per-symbol gain makes x^2 heavy-tailed (its fourth moment
    # diverges at these parameters), so the cost estimator converges slowly and
    # needs far more replicas for the same confidence
    fast = replace(slow, replicas=200000)
    runs = (
        ("slow single", run_single_compare(slow, 0.01, schemes=()), "analog"),
        ("slow pair", run_multi_sweep(slow, ((1, 0.01), (2, 0.02)), regime="slow"), "j_total"),
        ("fast single", run_multi_sweep(fast, ((1, 1e-4),), regime="fast"), "j_total"),
        ("fast pair", run_multi_sweep(fast, ((1, 1e-4), (2, 4e-4)), regime="fast"), "j_total"),
    )
    gaps = [
        (name, r.series[f"{col}_sim"][0] / r.series[f"{col}_pred"][0] - 1.0)
        for name, r, col in runs
    ]
    worst = max(abs(g) for _, g in gaps)
    detail = ", ".join(f"{name} {gap:+.2%}" for name, gap in gaps)
    return worst <= 0.02, f"simulated vs predicted cost: {detail}"


def _check_thresholds() -> tuple[bool, str]:
    """The knees from the library's floors, as the sweeps gate on them, vs quoted values."""
    floors = (
        [snr_floor(_VERIFY_PLANT, 0.01)],
        [snr_floor(_VERIFY_PLANT, h) for h in (0.01, 0.02)],
        [fast_snr_floor(_VERIFY_PLANT, s) for s in (1e-4, 4e-4)],
    )
    got = tuple(watts_to_dbm(summed_floor(f) * _VERIFY_NOISE.sigma_z2) for f in floors)
    expected = (0.9691001, 1.9382003, 9.3280992)
    ok = all(abs(g - e) < 1e-3 for g, e in zip(got, expected))
    detail = (
        f"stabilizability thresholds: single {got[0]:.4f} dBm, "
        f"two-plant slow {got[1]:.4f} dBm, two-plant fast {got[2]:.4f} dBm"
    )
    return ok, detail


def cmd_verify() -> int:
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("slow single: closed form vs 2-D grid", _check_slow_single_grid),
        ("slow pair: allocation vs split sweep", lambda: _check_pair_sweep(
            allocate_multi_slow, optimize_single_slow, snr_floor, (0.01, 0.02))),
        ("fast single: closed form vs product sweep", _check_fast_single_sweep),
        ("fast pair: allocation vs split sweep", lambda: _check_pair_sweep(
            allocate_multi_fast, optimize_single_fast, fast_snr_floor, (1e-4, 4e-4))),
        ("budget saturation", _check_budget_saturation),
        ("fast-fading stabilizability boundary", _check_fast_boundary),
        ("codec and constellation exhaustive checks", _check_codecs),
        ("coded link: exact word success vs Monte-Carlo link", _check_coded_link),
        ("simulation matches prediction (2%)", _check_sim_vs_prediction),
        ("feasibility thresholds", _check_thresholds),
    ]
    failed = 0
    for name, fn in checks:
        try:
            ok, detail = fn()
        except Exception as exc:  # a crashed check is a failed check
            ok, detail = False, f"raised {type(exc).__name__}: {exc}"
        status = "ok  " if ok else "FAIL"
        print(f"{status} {name}: {detail}")
        failed += 0 if ok else 1
    if failed:
        print(f"{failed} verification check(s) failed", file=sys.stderr)
        return EXIT_VERIFY_FAILED
    print("all verification checks passed")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument parsing
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    """argparse exits with status 2 on bad usage; this toolkit reserves 2.

    argparse takes a token that starts with '-' for an option unless it looks
    like a negative number, and its own test for that refuses '-1e2', '-0.5,0.6'
    and '-40dBm'.  No wncs option starts with '-' and a digit or a point, so
    here every such token is a value.
    """

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\.?[0-9]")

    def error(self, message: str):  # noqa: D401 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="wncs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)
    for kind, (help_text, flags, _) in _RECIPES.items():
        p = sub.add_parser(kind, help=help_text)
        p.add_argument("--config", help="YAML file with defaults for any flag")
        for flag, key in (*_COMMON_FLAGS, *flags):
            p.add_argument(flag, dest=key, help=_SETTINGS[key][3])
    sub.add_parser("verify", help="cross-check closed forms, codecs and simulators")
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify()
    config = None
    try:
        config = parse_config(args.command, args)
        return _finish(_RECIPES[args.command][2](config), config)
    except ValueError as exc:
        print(f"wncs {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except MemoryError as exc:  # numpy names the array; the message names what the run holds
        held = "while reading settings" if config is None else f"with {config.replicas} replicas"
        if config is not None and config.kind == "select-sweep":
            held = f"with {config.realizations} realizations of {max(config.m0)} plants"
        print(f"wncs {args.command}: error: out of memory {held}: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
