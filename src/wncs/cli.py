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
import json
import math
import re
import sys
from dataclasses import asdict, dataclass
from typing import Callable, Optional, Sequence

import numpy as np
import yaml

from . import __version__
from .coded import SCHEMES, bch_decode, bch_encode, qam_detect, qam_modulate
from .experiments import (
    ExperimentSpec,
    SweepResult,
    run_multi_sweep,
    run_selection_sweep,
    run_single_compare,
    run_trace,
)
from .fast_control import (
    ETA,
    allocate_multi_fast,
    expected_ac2,
    optimize_single_fast,
    stabilizable_fast,
)
from .model import NoisePowers, PlantParams
from .slow_control import (
    allocate_multi_slow,
    optimize_identical_actuator,
    optimize_identical_controller,
    optimize_single_slow,
)

EXIT_OK = 0
EXIT_USAGE = 1
EXIT_INFEASIBLE = 2
EXIT_VERIFY_FAILED = 3

#: cells with no finite value render as this token
INF_TOKEN = "INF"


# ---------------------------------------------------------------------------
# unit parsing
# ---------------------------------------------------------------------------

_POWER_RE = re.compile(r"^\s*([+-]?[0-9.eE+-]+)\s*(dbm|mw|w)\s*$", re.IGNORECASE)


def dbm_to_watts(dbm: float) -> float:
    return 10.0 ** ((dbm - 30.0) / 10.0)


def watts_to_dbm(watts: float) -> float:
    if watts <= 0.0:
        raise ValueError(f"cannot express {watts!r} W in dBm")
    return 10.0 * math.log10(watts) + 30.0


def parse_power(text: str) -> float:
    """One power value with a mandatory unit -> watts.

    Accepts dBm, W and mW; a bare number is rejected so a config cannot
    silently mix scales.
    """
    if isinstance(text, (int, float)):
        raise ValueError(f"power {text!r} is missing a unit (write e.g. '{text} dBm' or '{text} W')")
    m = _POWER_RE.match(text)
    if not m:
        raise ValueError(f"cannot parse power {text!r}; expected '<value> dBm|W|mW'")
    value = float(m.group(1))
    unit = m.group(2).lower()
    if unit == "dbm":
        return dbm_to_watts(value)
    if unit == "mw":
        return value * 1e-3
    return value


def parse_power_grid(text: str) -> tuple[float, ...]:
    """A power grid -> strictly increasing watts.

    Either 'start:stop:step <unit>' (inclusive of stop when it lands on the
    lattice) or a comma list '1,4,7 <unit>'.  The single trailing unit applies
    to every number.
    """
    if isinstance(text, (int, float)):
        raise ValueError(f"power grid {text!r} is missing a unit")
    parts = text.strip().rsplit(None, 1)
    if len(parts) != 2:
        raise ValueError(f"cannot parse power grid {text!r}; expected '<values> dBm|W|mW'")
    body, unit = parts
    if ":" in body:
        pieces = body.split(":")
        if len(pieces) != 3:
            raise ValueError(f"grid range {body!r} must be start:stop:step")
        start, stop, step = (float(p) for p in pieces)
        if step <= 0.0 or stop < start:
            raise ValueError(f"grid range {body!r} must have step > 0 and stop >= start")
        count = int(math.floor((stop - start) / step + 1e-9)) + 1
        values = [start + i * step for i in range(count)]
    else:
        values = [float(p) for p in body.split(",") if p.strip()]
        if not values:
            raise ValueError(f"empty power grid {text!r}")
    watts = tuple(parse_power(f"{v!r} {unit}") for v in values)
    if any(b <= a for a, b in zip(watts, watts[1:])):
        raise ValueError(f"power grid {text!r} is not strictly increasing")
    return watts


def _float_list(text: str) -> tuple[float, ...]:
    vals = tuple(float(p) for p in str(text).split(",") if p.strip())
    if not vals:
        raise ValueError(f"empty list {text!r}")
    return vals


def _int_list(text: str) -> tuple[int, ...]:
    return tuple(int(p) for p in str(text).split(",") if p.strip())


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class RunConfig:
    """Fully resolved experiment configuration (flags > file > defaults)."""

    kind: str
    a: float
    sigma_w2: float
    sigma_z2_w: float
    powers_w: tuple[float, ...]
    horizon: int
    replicas: int
    seed: int
    out: str
    h: float = 0.01
    channel_gains: tuple[float, ...] = (0.01, 0.02)
    sigma_h2: tuple[float, ...] = (1e-4, 4e-4)
    a_c: tuple[float, ...] = (0.6, 0.9, 1.01)
    x0: float = 5.0
    m0: tuple[int, ...] = (2, 5, 10)
    realizations: int = 10000
    mean_gain: float = 1e-4
    schemes: tuple[str, ...] = tuple(SCHEMES)
    g_common: Optional[float] = None
    k_common: Optional[float] = None

    def plant(self) -> PlantParams:
        return PlantParams(a=self.a, sigma_w2=self.sigma_w2)

    def spec(self) -> ExperimentSpec:
        return ExperimentSpec(
            plant=self.plant(),
            sigma_z2=self.sigma_z2_w,
            powers_w=self.powers_w,
            horizon=self.horizon,
            replicas=self.replicas,
            seed=self.seed,
        )


_GRID_DEFAULTS = {
    "trace": "20 dBm",  # single budget, not a grid
    "compare": "0:40:5 dBm",
    "multi-slow": "0:20:2 dBm",
    "multi-fast": "8:30:2 dBm",
    "select-sweep": "0:24:2 dBm",
}

_CONFIG_KEYS = {
    "a", "sigma_w2", "sigma_z2", "p0", "grid", "horizon", "replicas", "seed",
    "out", "h", "channels", "sigma_h2", "a_c", "x0", "m0", "realizations",
    "mean_gain", "schemes", "g_common", "k_common",
}


def _load_config_file(path: str) -> dict:
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
    unknown = sorted(set(raw) - _CONFIG_KEYS)
    if unknown:
        raise ValueError(f"config {path!r} has unknown field(s): {', '.join(unknown)}")
    return raw


def parse_config(kind: str, args: argparse.Namespace) -> RunConfig:
    """Merge built-in defaults, the optional config file and explicit flags."""
    file_cfg = _load_config_file(args.config) if args.config else {}

    def pick(flag_name: str, file_key: str, default):
        flag = getattr(args, flag_name, None)
        if flag is not None:
            return flag
        if file_key in file_cfg:
            return file_cfg[file_key]
        return default

    # the selection recipe defaults to a milder plant, per its usual usage
    default_a = 1.1 if kind == "select-sweep" else 1.5
    a = float(pick("a", "a", default_a))
    sigma_w2 = float(pick("sigma_w2", "sigma_w2", 0.1))
    sigma_z2_w = parse_power(pick("sigma_z2", "sigma_z2", "-40 dBm"))
    if kind == "trace":
        powers = (parse_power(pick("p0", "p0", _GRID_DEFAULTS[kind])),)
    else:
        powers = parse_power_grid(pick("grid", "grid", _GRID_DEFAULTS[kind]))
    schemes = pick("schemes", "schemes", tuple(SCHEMES))
    if isinstance(schemes, str):
        schemes = tuple(s.strip() for s in schemes.split(",") if s.strip())
    channels = pick("channel_gains", "channels", (0.01, 0.02))
    if isinstance(channels, str):
        channels = _float_list(channels)
    sigma_h2 = pick("sigma_h2", "sigma_h2", (1e-4, 4e-4))
    if isinstance(sigma_h2, str):
        sigma_h2 = _float_list(sigma_h2)
    a_c = pick("a_c", "a_c", (0.6, 0.9, 1.01))
    if isinstance(a_c, str):
        a_c = _float_list(a_c)
    m0 = pick("m0", "m0", (2, 5, 10))
    if isinstance(m0, str):
        m0 = _int_list(m0)
    g_common = pick("g_common", "g_common", None)
    k_common = pick("k_common", "k_common", None)
    config = RunConfig(
        kind=kind,
        a=a,
        sigma_w2=sigma_w2,
        sigma_z2_w=sigma_z2_w,
        powers_w=tuple(float(p) for p in powers),
        horizon=int(pick("horizon", "horizon", 500)),
        replicas=int(pick("replicas", "replicas", 1000)),
        seed=int(pick("seed", "seed", 0)),
        out=str(pick("out", "out", f"{kind}.csv")),
        h=float(pick("h", "h", 0.01)),
        channel_gains=tuple(float(v) for v in channels),
        sigma_h2=tuple(float(v) for v in sigma_h2),
        a_c=tuple(float(v) for v in a_c),
        x0=float(pick("x0", "x0", 5.0)),
        m0=tuple(int(v) for v in m0),
        realizations=int(pick("realizations", "realizations", 10000)),
        mean_gain=float(pick("mean_gain", "mean_gain", 1e-4)),
        schemes=tuple(schemes),
        g_common=None if g_common is None else float(g_common),
        k_common=None if k_common is None else float(k_common),
    )
    config.plant()  # validates |a| > 1 and sigma_w2 early
    config.spec()
    shared = (config.g_common, config.k_common)
    if not all(math.isfinite(v) for v in shared if v is not None):
        raise ValueError(f"shared gain factors must be finite (got {shared})")
    return config


# ---------------------------------------------------------------------------
# output
# ---------------------------------------------------------------------------


def _fmt(value: float) -> str:
    return repr(float(value))


def emit_csv(result: SweepResult, path: str, config: Optional[RunConfig] = None) -> None:
    """Write the result table as CSV plus a <path>.meta.json sidecar.

    Unbounded cells become the INF token.  The sidecar records the seed,
    replica count, resolved configuration and its hash, so a CSV can always
    be traced back to the exact run that produced it.
    """
    names = list(result.series)
    lines = [",".join([result.x_name, *names])]
    for i, xv in enumerate(result.x):
        cells = [_fmt(xv)]
        for name in names:
            ok = result.bounded[name][i]
            cells.append(_fmt(result.series[name][i]) if ok else INF_TOKEN)
        lines.append(",".join(cells))
    try:
        with open(path, "w", encoding="utf-8", newline="") as f:
            f.write("\n".join(lines) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path!r}: {exc}") from exc
    sidecar = {
        "package_version": __version__,
        "x_name": result.x_name,
        "series": names,
        "rows": len(result.x),
        "meta": result.meta,
    }
    if config is not None:
        cfg = asdict(config)
        canonical = json.dumps(cfg, sort_keys=True)
        sidecar["config"] = cfg
        sidecar["config_sha256"] = hashlib.sha256(canonical.encode()).hexdigest()
        sidecar["seed"] = config.seed
        sidecar["replicas"] = config.replicas
    try:
        with open(path + ".meta.json", "w", encoding="utf-8", newline="") as f:
            f.write(json.dumps(sidecar, indent=2, sort_keys=True) + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path + '.meta.json'!r}: {exc}") from exc


def _finish(result: SweepResult, config: RunConfig) -> int:
    emit_csv(result, config.out, config)
    print(f"wrote {config.out} ({len(result.x)} rows, {len(result.series)} series)")
    feasible = result.meta.get("feasible_points")
    if feasible == 0:
        print("no feasible grid point under the given budget", file=sys.stderr)
        return EXIT_INFEASIBLE
    return EXIT_OK


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_trace(config: RunConfig) -> int:
    result = run_trace(config.spec(), config.a_c, config.h, x0=config.x0)
    return _finish(result, config)


def cmd_compare(config: RunConfig) -> int:
    result = run_single_compare(config.spec(), config.h, schemes=config.schemes)
    return _finish(result, config)


def _shared_gain_series(config: RunConfig, result: SweepResult) -> SweepResult:
    """Augment a slow multi sweep with shared-actuator / shared-controller designs."""
    channels = tuple(enumerate(config.channel_gains, start=1))
    plant = config.plant()
    series = dict(result.series)
    bounded = dict(result.bounded)
    specs = []
    if config.g_common is not None:
        specs.append(("sharedG", config.g_common, True))
    if config.k_common is not None:
        specs.append(("sharedK", config.k_common, False))
    for prefix, value, is_actuator in specs:
        cols: dict[str, list[float]] = {}
        flags: dict[str, list[bool]] = {}
        for pid, _ in channels:
            gain_name = f"{prefix}_k{pid}" if is_actuator else f"{prefix}_g{pid}"
            cols[gain_name] = []
            flags[gain_name] = []
            cols[f"{prefix}_j{pid}"] = []
            flags[f"{prefix}_j{pid}"] = []
        cols[f"{prefix}_j_total"] = []
        flags[f"{prefix}_j_total"] = []

        for p0 in config.powers_w:
            noise = NoisePowers(sigma_z2=config.sigma_z2_w, p0=p0)
            design = None
            try:
                if is_actuator:
                    design = optimize_identical_actuator(channels, plant, noise, value)
                else:
                    candidate = optimize_identical_controller(channels, plant, noise, value)
                    design = candidate if candidate.feasible else None
            except ValueError:
                design = None
            for j, (pid, _) in enumerate(channels):
                gain_name = f"{prefix}_k{pid}" if is_actuator else f"{prefix}_g{pid}"
                if design is None:
                    cols[gain_name].append(math.inf)
                    flags[gain_name].append(False)
                    cols[f"{prefix}_j{pid}"].append(math.inf)
                    flags[f"{prefix}_j{pid}"].append(False)
                else:
                    gain = design.k[j] if is_actuator else design.g[j]
                    cols[gain_name].append(gain)
                    flags[gain_name].append(True)
                    cols[f"{prefix}_j{pid}"].append(design.predicted_costs[j])
                    flags[f"{prefix}_j{pid}"].append(True)
            cols[f"{prefix}_j_total"].append(math.inf if design is None else design.total_cost)
            flags[f"{prefix}_j_total"].append(design is not None)
        for name in cols:
            series[name] = tuple(cols[name])
            bounded[name] = tuple(flags[name])
    meta = dict(result.meta)
    meta["g_common"] = config.g_common
    meta["k_common"] = config.k_common
    return SweepResult(
        x_name=result.x_name, x=result.x, series=series, bounded=bounded, meta=meta
    )


def cmd_multi_slow(config: RunConfig) -> int:
    channels = tuple(enumerate(config.channel_gains, start=1))
    result = run_multi_sweep(config.spec(), channels, regime="slow")
    if config.g_common is not None or config.k_common is not None:
        result = _shared_gain_series(config, result)
    return _finish(result, config)


def cmd_multi_fast(config: RunConfig) -> int:
    channels = tuple(enumerate(config.sigma_h2, start=1))
    result = run_multi_sweep(config.spec(), channels, regime="fast")
    return _finish(result, config)


def cmd_select_sweep(config: RunConfig) -> int:
    result = run_selection_sweep(
        config.spec(),
        m0_values=config.m0,
        mean_power_gain=config.mean_gain,
        realizations=config.realizations,
    )
    return _finish(result, config)


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


def _check_slow_pair_sweep() -> tuple[bool, str]:
    channels = ((1, 0.01), (2, 0.02))
    _, design = allocate_multi_slow(channels, _VERIFY_PLANT, _VERIFY_NOISE)
    floors = [(_VERIFY_PLANT.a**2 - 1.0) / h**2 for _, h in channels]
    g0 = _VERIFY_NOISE.gamma0
    best = math.inf
    for g1 in np.linspace(floors[0], g0 - floors[1], 4000)[1:-1]:
        j = (
            optimize_single_slow(_VERIFY_PLANT, _VERIFY_NOISE, 0.01, gamma=g1).j_ave
            + optimize_single_slow(_VERIFY_PLANT, _VERIFY_NOISE, 0.02, gamma=g0 - g1).j_ave
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


def _check_fast_pair_sweep() -> tuple[bool, str]:
    channels = ((1, 1e-4), (2, 4e-4))
    _, design = allocate_multi_fast(channels, _VERIFY_PLANT, _VERIFY_NOISE)
    floors = [
        (_VERIFY_PLANT.a**2 - 1.0) / ((1.0 - ETA * _VERIFY_PLANT.a**2) * s)
        for _, s in channels
    ]
    g0 = _VERIFY_NOISE.gamma0
    best = math.inf
    for g1 in np.linspace(floors[0], g0 - floors[1], 4000)[1:-1]:
        j = (
            optimize_single_fast(_VERIFY_PLANT, _VERIFY_NOISE, 1e-4, gamma=g1).j_ave
            + optimize_single_fast(_VERIFY_PLANT, _VERIFY_NOISE, 4e-4, gamma=g0 - g1).j_ave
        )
        best = min(best, j)
    gap = abs(design.total_cost - best) / best
    if design.total_cost > best * (1.0 + 1e-9):
        return False, f"split sweep beat the allocation ({best} < {design.total_cost})"
    if gap > 1e-3:
        return False, f"allocation differs from sweep optimum by {gap:.2%}"
    return True, f"two-plant fast allocation within {gap:.2e} of a split sweep"


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
    for scheme in SCHEMES.values():
        k, n = scheme.k, scheme.n
        messages = ((np.arange(1 << k)[:, None] >> np.arange(k - 1, -1, -1)) & 1).astype(np.uint8)
        words = bch_encode(messages, scheme)
        for pos in range(n):
            corrupted = words.copy()
            corrupted[:, pos] ^= 1
            decoded, _ = bch_decode(corrupted, scheme)
            if not np.array_equal(decoded, messages):
                return False, f"{scheme.name}: flip at bit {pos} not corrected"
        # Gray labelling: axis-adjacent levels differ in exactly one bit
        m = scheme.bits_per_symbol // 2
        levels = 1 << m
        gray = np.arange(levels) ^ (np.arange(levels) >> 1)
        if not np.all([bin(a ^ b).count("1") == 1 for a, b in zip(gray, gray[1:])]):
            return False, f"{scheme.name}: Gray adjacency broken"
        bits = ((np.arange(1 << scheme.bits_per_symbol)[:, None]
                 >> np.arange(scheme.bits_per_symbol - 1, -1, -1)) & 1).astype(np.uint8)
        symbols = qam_modulate(bits, scheme.bits_per_symbol, 1.0)
        back = qam_detect(symbols, scheme.bits_per_symbol, 1.0, 1.0)
        if not np.array_equal(back, bits):
            return False, f"{scheme.name}: noiseless QAM round-trip failed"
    return True, "all codewords correct every single-bit error; QAM round-trips clean"


def _check_sim_vs_prediction() -> tuple[bool, str]:
    spec_slow = ExperimentSpec(
        plant=_VERIFY_PLANT, sigma_z2=1e-7, powers_w=(0.1,),
        horizon=500, replicas=1000, seed=0,
    )
    # the fast loop's per-symbol gain makes x^2 heavy-tailed (its fourth moment
    # diverges at these parameters), so the cost estimator converges slowly and
    # needs far more replicas for the same confidence
    spec_fast = ExperimentSpec(
        plant=_VERIFY_PLANT, sigma_z2=1e-7, powers_w=(0.1,),
        horizon=500, replicas=200000, seed=0,
    )
    gaps = []
    compare = run_single_compare(spec_slow, 0.01, schemes=())
    gaps.append(("slow single",
                 compare.series["analog_sim"][0] / compare.series["analog_pred"][0] - 1.0))
    slow2 = run_multi_sweep(spec_slow, ((1, 0.01), (2, 0.02)), regime="slow")
    gaps.append(("slow pair",
                 slow2.series["j_total_sim"][0] / slow2.series["j_total_pred"][0] - 1.0))
    fast1 = run_multi_sweep(spec_fast, ((1, 1e-4),), regime="fast")
    gaps.append(("fast single",
                 fast1.series["j_total_sim"][0] / fast1.series["j_total_pred"][0] - 1.0))
    fast2 = run_multi_sweep(spec_fast, ((1, 1e-4), (2, 4e-4)), regime="fast")
    gaps.append(("fast pair",
                 fast2.series["j_total_sim"][0] / fast2.series["j_total_pred"][0] - 1.0))
    worst = max(abs(g) for _, g in gaps)
    detail = ", ".join(f"{name} {gap:+.2%}" for name, gap in gaps)
    return worst <= 0.02, f"simulated vs predicted cost: {detail}"


def _check_thresholds() -> tuple[bool, str]:
    a2 = _VERIFY_PLANT.a**2
    single = (a2 - 1.0) / 0.01**2 * 1e-7
    pair_slow = ((a2 - 1.0) / 0.01**2 + (a2 - 1.0) / 0.02**2) * 1e-7
    pair_fast = sum(
        (a2 - 1.0) / ((1.0 - ETA * a2) * s) for s in (1e-4, 4e-4)
    ) * 1e-7
    got = tuple(watts_to_dbm(w) for w in (single, pair_slow, pair_fast))
    expected = (0.9691001, 1.9382003, 9.3280992)
    ok = all(abs(g - e) < 1e-3 for g, e in zip(got, expected))
    detail = (
        f"stabilizability thresholds: single {got[0]:.4f} dBm, "
        f"two-plant slow {got[1]:.4f} dBm, two-plant fast {got[2]:.4f} dBm"
    )
    return ok, detail


def cmd_verify(_config: Optional[RunConfig] = None) -> int:
    checks: list[tuple[str, Callable[[], tuple[bool, str]]]] = [
        ("slow single: closed form vs 2-D grid", _check_slow_single_grid),
        ("slow pair: allocation vs split sweep", _check_slow_pair_sweep),
        ("fast single: closed form vs product sweep", _check_fast_single_sweep),
        ("fast pair: allocation vs split sweep", _check_fast_pair_sweep),
        ("budget saturation", _check_budget_saturation),
        ("fast-fading stabilizability boundary", _check_fast_boundary),
        ("codec and constellation exhaustive checks", _check_codecs),
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
    """argparse exits with status 2 on bad usage; this toolkit reserves 2."""

    def error(self, message: str):  # noqa: D401 - argparse contract
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> _Parser:
    parser = _Parser(prog="wncs", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p: _Parser) -> None:
        p.add_argument("--config", help="YAML file with defaults for any flag")
        p.add_argument("--a", type=float, help="open-loop plant gain (|a| > 1)")
        p.add_argument("--sigma-w2", type=float, help="disturbance power, watts")
        p.add_argument("--sigma-z2", help="actuator noise power, e.g. '-40 dBm'")
        p.add_argument("--horizon", type=int, help="control symbols per process")
        p.add_argument("--replicas", type=int, help="Monte-Carlo replicas")
        p.add_argument("--seed", type=int, help="root seed for all substreams")
        p.add_argument("--out", help="output CSV path")

    p = sub.add_parser("trace", help="state and running-cost series at fixed closed-loop factors")
    common(p)
    p.add_argument("--p0", help="transmit power budget, e.g. '20 dBm'")
    p.add_argument("--h", type=float, help="block channel magnitude")
    p.add_argument("--a-c", dest="a_c", help="comma list of closed-loop factors")
    p.add_argument("--x0", type=float, help="initial plant state")

    p = sub.add_parser("compare", help="analog loop vs coded baselines over a power grid")
    common(p)
    p.add_argument("--grid", help="power grid, e.g. '0:40:5 dBm' or '1,10,100 mW'")
    p.add_argument("--h", type=float, help="block channel magnitude")
    p.add_argument("--schemes", help=f"comma list from: {', '.join(SCHEMES)}")

    p = sub.add_parser("multi-slow", help="two-plus-plant allocation sweep, block fading")
    common(p)
    p.add_argument("--grid", help="power grid with unit")
    p.add_argument("--h", dest="channel_gains", help="comma list of per-plant channel magnitudes")
    p.add_argument("--g-common", type=float, help="also design with one shared actuator factor")
    p.add_argument("--k-common", type=float, help="also design with one shared controller factor")

    p = sub.add_parser("multi-fast", help="two-plus-plant allocation sweep, per-symbol fading")
    common(p)
    p.add_argument("--grid", help="power grid with unit")
    p.add_argument("--sigma-h2", dest="sigma_h2", help="comma list of per-plant channel variances")

    p = sub.add_parser("select-sweep", help="average supportable plant count under Rayleigh draws")
    common(p)
    p.add_argument("--grid", help="power grid with unit")
    p.add_argument("--m0", help="comma list of candidate plant counts")
    p.add_argument("--realizations", type=int, help="channel realizations per M0")
    p.add_argument("--mean-gain", dest="mean_gain", type=float, help="Rayleigh mean power gain")

    p = sub.add_parser("verify", help="cross-check closed forms, codecs and simulators")

    return parser


_HANDLERS = {
    "trace": cmd_trace,
    "compare": cmd_compare,
    "multi-slow": cmd_multi_slow,
    "multi-fast": cmd_multi_fast,
    "select-sweep": cmd_select_sweep,
}


def main(argv: Optional[Sequence[str]] = None) -> int:
    args = build_parser().parse_args(argv)
    if args.command == "verify":
        return cmd_verify()
    try:
        config = parse_config(args.command, args)
    except ValueError as exc:
        print(f"wncs {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        return _HANDLERS[args.command](config)
    except ValueError as exc:
        print(f"wncs {args.command}: error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
