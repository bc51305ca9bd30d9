"""The benchmark's workloads: inputs made from a seed, one timed pass, checks.

``mc-wide``
    Two in-process ``wncs`` CLI calls at 50k replicas: ``multi-fast`` at
    20 dBm and ``multi-slow`` at 10 dBm, default plants, channels and
    horizon.  Each dense (50k x 500) float64 array is 200 MB, above the
    last-level cache, so this is the analog Monte-Carlo path where noise
    draws and the state recursion own the time.  Allocators and the coded
    baseline are idle.
``coded-compare``
    ``wncs compare`` at its defaults (9 powers x 4 coded schemes plus the
    analog series, 1000 x 500).  The BCH+QAM link stages and the per-symbol
    coded loop own the time; arrays are cache-resident (4 MB), replica
    blocks are small and control is epoch-structured, so a simulation kernel
    tuned only for wide runs shows here if it slows this path.
``design-sweep``
    Direct calls of ``allocate_multi_slow``, ``allocate_multi_fast`` and
    ``optimize_identical_actuator`` on seeded 16-loop realizations over a
    0-40 dBm grid, with no Monte Carlo.  The allocators and their bisection
    own the time.

The workload seed only chooses inputs (the ``wncs --seed`` of the CLI
workloads, the channel draws of the design sweep); the program sees nothing
but those inputs.  Every pass of a run repeats the same inputs, so the
outputs of all passes must hash the same.
"""
from __future__ import annotations

import csv
import hashlib
import math
import statistics
import time
import zlib
from array import array
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

# the CLI defaults every workload uses: plant, receiver noise (-40 dBm), horizon
PLANT_A = 1.5
SIGMA_W2 = 0.1
SIGMA_Z2 = 10.0 ** ((-40.0 - 30.0) / 10.0)
HORIZON = 500
ETA = 1.0 - 2.0 / math.pi

#: the existing sim-vs-prediction gate of ``wncs verify``
SIM_TOLERANCE = 0.02
#: upper gate where x^2 has infinite variance (E[A_c^4] >= 1): its power-law
#: tail puts a correct 50k-replica mean several percent above expectation on
#: some seeds, so only a gross excess is caught there
HEAVY_TAIL_TOLERANCE = 0.5
#: allocations: shares sum to the budget and designs spend it, to this relative error
BUDGET_RTOL = 1e-9

Call = Callable[..., object]


def plain_call(_name: str, fn, *args):
    return fn(*args)


def derive_seed(seed: int, tag: str) -> int:
    """A non-negative 32-bit seed for one workload, fixed by the benchmark seed."""
    sequence = np.random.SeedSequence([seed % 2**63, zlib.crc32(tag.encode())])
    return int(sequence.generate_state(1)[0])


def sha256_file(path: str) -> str:
    with open(path, "rb") as f:
        return hashlib.sha256(f.read()).hexdigest()


def horizon_mean(j_inf: float, rho: float, horizon: int = HORIZON) -> float:
    """Exact mean of E[x(t)^2] over t = 1..T for a loop started at x(0) = 0.

    With rho = E[A_c^2], E[x(t)^2] = j_inf (1 - rho^t); a T-step Monte-Carlo
    window from zero therefore sits below the steady-state j_inf by a known
    transient, which the simulation gate removes before applying its 2 %.
    """
    return j_inf * (1.0 - rho * (1.0 - rho**horizon) / (horizon * (1.0 - rho)))


def slow_floor(h: float) -> float:
    return (PLANT_A * PLANT_A - 1.0) / h**2


def fast_floor(sigma_h2: float) -> float:
    return (PLANT_A * PLANT_A - 1.0) / ((1.0 - ETA * PLANT_A * PLANT_A) * sigma_h2)


def slow_moments(h: float, u: float) -> tuple[float, float]:
    """E[A_c^2] and E[A_c^4] of the block-fading loop A_c = a + u h."""
    a_c = PLANT_A + u * h
    return a_c**2, a_c**4


def fast_moments(sigma_h2: float, u: float) -> tuple[float, float]:
    """E[A_c^2] and E[A_c^4] of A_c = a + u |h|, h ~ N(0, sigma_h2)."""
    a, sd = PLANT_A, math.sqrt(sigma_h2)
    m1, m3 = sd * math.sqrt(2.0 / math.pi), 2.0 * sd**3 * math.sqrt(2.0 / math.pi)  # E|h|, E|h|^3
    second = sigma_h2 * u * u + 2.0 * m1 * a * u + a * a
    fourth = a**4 + 4 * a**3 * u * m1 + 6 * a * a * u * u * sigma_h2 + 4 * a * u**3 * m3 + 3 * u**4 * sigma_h2**2
    return second, fourth


def sim_problem(where: str, sim: float, expected: float, heavy_tailed: bool) -> list[str]:
    """The simulation gate: within 2 % of the finite-horizon expectation.

    Where x^2 has infinite variance the estimator's right tail is a power
    law, so above the expectation only ``HEAVY_TAIL_TOLERANCE`` applies.
    """
    upper = HEAVY_TAIL_TOLERANCE if heavy_tailed else SIM_TOLERANCE
    if expected * (1.0 - SIM_TOLERANCE) <= sim <= expected * (1.0 + upper):
        return []
    return [f"{where}: simulated cost {sim!r} is outside [-{SIM_TOLERANCE:.0%}, +{upper:.0%}] "
            f"of its {HORIZON}-step expectation {expected!r}"]


def _rel(a: float, b: float) -> float:
    return abs(a / b - 1.0)


def check_shares(shares, floors, budget: float, where: str) -> list[str]:
    problems = []
    if any(s < f for s, f in zip(shares, floors)):
        problems.append(f"{where}: a share is below its stabilizability floor")
    if _rel(math.fsum(shares), budget) > BUDGET_RTOL:
        problems.append(f"{where}: shares sum to {math.fsum(shares)!r}, budget {budget!r}")
    return problems


@dataclass
class PassResult:
    attempted: int
    failed: int
    errors: list[str]
    hashes: dict[str, str]
    latencies: array  # seconds per operation, in input order; 8 bytes each

    @property
    def digest(self) -> str:
        joined = "\n".join(f"{k} {v}" for k, v in sorted(self.hashes.items()))
        return hashlib.sha256(joined.encode()).hexdigest()


@dataclass
class CheckResult:
    problems: list[str]
    work: int  # plant-steps or designs per pass
    sim_pred_gap: float  # largest |sim/pred - 1| over feasible analog cells; 0 if none


# ---------------------------------------------------------------------------
# CLI workloads
# ---------------------------------------------------------------------------


def _read_csv(path: str) -> list[dict[str, Optional[float]]]:
    with open(path, newline="", encoding="utf-8") as f:
        return [
            {k: (None if v == "INF" else float(v)) for k, v in row.items()}
            for row in csv.DictReader(f)
        ]


class CliWorkload:
    """A workload of in-process ``wncs.cli.main`` calls, each expected to exit 0."""

    name = ""
    replicas = 0
    recipes: tuple[tuple[str, tuple[str, ...]], ...] = ()

    def __init__(self, seed: int) -> None:
        self.wncs_seed = derive_seed(seed, self.name)

    @property
    def dense_bytes(self) -> int:
        """Computed size of one dense (replicas x horizon) float64 array."""
        return self.replicas * HORIZON * 8

    def prepare(self) -> None:
        pass

    def argv(self, kind: str, extra: tuple[str, ...]) -> list[str]:
        return [kind, *extra, "--replicas", str(self.replicas),
                "--seed", str(self.wncs_seed), "--out", f"{kind}.csv"]

    def run_pass(self, call: Call = plain_call) -> PassResult:
        import wncs.cli

        failed, errors, hashes, latencies = 0, [], {}, array("d")
        for kind, extra in self.recipes:
            start = time.perf_counter()
            try:
                code = call("cli.main", wncs.cli.main, self.argv(kind, extra))
            except Exception as exc:  # a crashed call is a failed operation
                code = f"{type(exc).__name__}: {exc}"
            latencies.append(time.perf_counter() - start)
            if code != 0:
                failed += 1
                errors.append(f"wncs {kind}: exit {code!r}, expected 0")
                continue
            for path in (f"{kind}.csv", f"{kind}.csv.meta.json"):
                hashes[path] = sha256_file(path)
        return PassResult(len(self.recipes), failed, errors, hashes, latencies)


class McWide(CliWorkload):
    name = "mc-wide"
    replicas = 50_000
    recipes = (
        ("multi-fast", ("--grid", "20 dBm")),
        ("multi-slow", ("--grid", "10 dBm")),
    )
    #: default per-plant channels of each recipe, and how they set E[A_c^2], E[A_c^4]
    channels = {
        "multi-fast": ((1, 1e-4), (2, 4e-4), fast_floor, fast_moments),
        "multi-slow": ((1, 0.01), (2, 0.02), slow_floor, slow_moments),
    }

    def check(self) -> CheckResult:
        problems: list[str] = []
        gaps: list[float] = []
        work = 0
        for kind, _ in self.recipes:
            *plants, floor_of, moments_of = self.channels[kind]
            for row in _read_csv(f"{kind}.csv"):
                gamma0 = row["p0_w"] / SIGMA_Z2
                if row["j_total_pred"] is None:
                    problems.append(f"{kind}: grid point {row['p0_w']!r} W is infeasible")
                    continue
                shares = [row[f"p{pid}_w"] / SIGMA_Z2 for pid, _ in plants]
                floors = [floor_of(c) for _, c in plants]
                problems += check_shares(shares, floors, gamma0, kind)
                expected, heavy_tailed = 0.0, False
                for (pid, c), share in zip(plants, shares):
                    k, g = row[f"k{pid}"], row[f"g{pid}"]
                    j_pred, j_sim = row[f"j{pid}_pred"], row[f"j{pid}_sim"]
                    if k is None or g is None or j_sim is None:
                        problems.append(f"{kind}: plant {pid} has no simulated design")
                        continue
                    work += self.replicas * HORIZON
                    u = g * k
                    rho, rho4 = moments_of(c, u)
                    heavy_tailed = heavy_tailed or rho4 >= 1.0
                    snr = (u * u + k * k * SIGMA_W2 / SIGMA_Z2) / (1.0 - rho)
                    if _rel(snr, share) > BUDGET_RTOL:
                        problems.append(f"{kind}: plant {pid} spends {snr!r}, share {share!r}")
                    j_inf = (g * g * SIGMA_Z2 + SIGMA_W2) / (1.0 - rho)
                    if _rel(j_inf, j_pred) > BUDGET_RTOL:
                        problems.append(f"{kind}: plant {pid} predicts {j_pred!r}, gains give {j_inf!r}")
                    expected += horizon_mean(j_pred, rho)
                    gaps.append(abs(j_sim / j_pred - 1.0))
                if row["j_total_sim"] is None:
                    problems.append(f"{kind}: total simulated cost diverged")
                    continue
                gaps.append(abs(row["j_total_sim"] / row["j_total_pred"] - 1.0))
                problems += sim_problem(f"{kind} total", row["j_total_sim"], expected, heavy_tailed)
        return CheckResult(problems, work, max(gaps, default=0.0))


class CodedCompare(CliWorkload):
    name = "coded-compare"
    replicas = 1000
    recipes = (("compare", ()),)
    h = 0.01  # the recipe's default block channel

    def argv(self, kind: str, extra: tuple[str, ...]) -> list[str]:
        # defaults throughout: replicas and horizon are not passed
        return [kind, "--seed", str(self.wncs_seed), "--out", f"{kind}.csv"]

    def check(self) -> CheckResult:
        problems: list[str] = []
        gaps: list[float] = []
        rows = _read_csv("compare.csv")
        work = 0
        for row in rows:
            schemes = len(row) - 3  # every column but p0_w, analog_pred, analog_sim
            work += schemes * self.replicas * HORIZON
            pred, sim = row["analog_pred"], row["analog_sim"]
            if pred is None:
                continue
            work += self.replicas * HORIZON
            if sim is None:
                problems.append(f"compare: analog loop diverged at {row['p0_w']!r} W")
                continue
            gamma0 = row["p0_w"] / SIGMA_Z2
            a_c = PLANT_A / (1.0 + self.h**2 * gamma0)
            expected = horizon_mean(pred, a_c * a_c)
            gaps.append(abs(sim / pred - 1.0))
            # a block-fading loop's state is Gaussian: every moment is finite
            problems += sim_problem(f"compare at {row['p0_w']!r} W", sim, expected, False)
        if not gaps:
            problems.append("compare: no feasible analog cell")
        return CheckResult(problems, work, max(gaps, default=0.0))


# ---------------------------------------------------------------------------
# design sweep
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DesignJob:
    kind: str  # "slow" | "fast" | "shared"
    channels: tuple[tuple[int, float], ...]
    floors: tuple[float, ...]
    p0: float
    budget: float  # gamma0, or the effective budget of the shared-actuator design


class DesignSweep:
    name = "design-sweep"
    realizations = 64
    loops = 16
    mean_gain = 1e-4  # E[h^2] of the Rayleigh magnitudes and mean of sigma_h2
    powers_dbm = tuple(range(0, 41, 2))
    # with SSR = sigma_w2/sigma_z2 = 1e6 this shared actuator factor halves the
    # effective budget, so both of its regimes (budget-tight bisection and
    # unconstrained) occur on the grid
    g_common = 1000.0

    def __init__(self, seed: int) -> None:
        self.seed = derive_seed(seed, self.name)
        self.jobs: list[DesignJob] = []
        self.results: Optional[list[object]] = None  # the first pass's, for check()

    @property
    def dense_bytes(self) -> int:
        return self.loops * 8

    def prepare(self) -> None:
        """Draw the realizations and admit, per power, the longest floor-sorted prefix."""
        rng = np.random.default_rng(self.seed)
        shape = (self.realizations, self.loops)
        mags = rng.rayleigh(scale=math.sqrt(self.mean_gain / 2.0), size=shape)
        powers = rng.exponential(self.mean_gain, size=shape)
        ssr = SIGMA_W2 / SIGMA_Z2
        shrink = self.g_common**2 / (self.g_common**2 + ssr)
        jobs = []
        for r in range(self.realizations):
            candidates = []
            for kind, values, floor_of in (
                ("slow", mags[r], slow_floor),
                ("fast", powers[r], fast_floor),
                ("shared", mags[r], slow_floor),
            ):
                floors = np.array([floor_of(float(v)) for v in values])
                order = np.argsort(floors, kind="stable")
                candidates.append((kind, values, floors, order, np.cumsum(floors[order])))
            for dbm in self.powers_dbm:
                p0 = 10.0 ** ((dbm - 30.0) / 10.0)
                gamma0 = p0 / SIGMA_Z2
                for kind, values, floors, order, cumulative in candidates:
                    budget = gamma0 * shrink if kind == "shared" else gamma0
                    n = int(np.searchsorted(cumulative, budget, side="right"))
                    if n == 0:
                        continue
                    chosen = order[:n]
                    jobs.append(DesignJob(
                        kind=kind,
                        channels=tuple((int(i) + 1, float(values[i])) for i in chosen),
                        floors=tuple(float(floors[i]) for i in chosen),
                        p0=p0,
                        budget=budget,
                    ))
        self.jobs = jobs

    def run_pass(self, call: Call = plain_call) -> PassResult:
        from wncs import fast_control, slow_control
        from wncs.model import NoisePowers, PlantParams

        plant = PlantParams(a=PLANT_A, sigma_w2=SIGMA_W2)
        # looked up per pass so a traced run sees the traced bindings
        functions = {
            "slow": slow_control.allocate_multi_slow,
            "fast": fast_control.allocate_multi_fast,
            "shared": slow_control.optimize_identical_actuator,
        }
        extra = {"slow": (), "fast": (), "shared": (self.g_common,)}
        latencies, results, errors = array("d"), [], []
        # only the first pass's results are checked; later passes are only hashed,
        # so memory does not grow with the number of passes
        keep = self.results is None
        digest = hashlib.sha256()
        for job in self.jobs:
            args = (job.channels, plant, NoisePowers(sigma_z2=SIGMA_Z2, p0=job.p0), *extra[job.kind])
            fn = functions[job.kind]
            start = time.perf_counter()
            try:
                result = fn(*args)
            except Exception as exc:  # a failed design is counted, not fatal
                result = exc
            latencies.append(time.perf_counter() - start)
            if isinstance(result, Exception):
                errors.append(f"{job.kind} design raised {type(result).__name__}: {result}")
            if keep:
                results.append(result)
            digest.update(repr(result).encode())
        if keep:
            self.results = results
        return PassResult(len(self.jobs), len(errors), errors, {"designs": digest.hexdigest()}, latencies)

    def check(self) -> CheckResult:
        problems: list[str] = []
        for i, (job, result) in enumerate(zip(self.jobs, self.results)):
            if isinstance(result, Exception):
                continue  # already counted as a failed operation
            where = f"design {i} ({job.kind}, {len(job.channels)} loops, {job.p0!r} W)"
            if job.kind == "shared":
                problems += self._check_shared(job, result, where)
            else:
                problems += self._check_allocation(job, result, where)
        return CheckResult(problems[:20], len(self.jobs), 0.0)

    @staticmethod
    def _check_allocation(job: DesignJob, result, where: str) -> list[str]:
        allocation, design = result
        problems = check_shares(allocation.gamma, job.floors, job.budget, where)
        moments_of = slow_moments if job.kind == "slow" else fast_moments
        ssr = SIGMA_W2 / SIGMA_Z2
        for (pid, c), share, gains in zip(job.channels, allocation.gamma, design.gains):
            if gains is None:  # a share exactly on its floor has only a limiting design
                continue
            u = gains.g * gains.k
            snr = (u * u + gains.k**2 * ssr) / (1.0 - moments_of(c, u)[0])
            if _rel(snr, share) > BUDGET_RTOL:
                problems.append(f"{where}: loop {pid} spends {snr!r} of its share {share!r}")
        return problems

    def _check_shared(self, job: DesignJob, design, where: str) -> list[str]:
        problems = []
        if _rel(design.gamma_tilde, job.budget) > BUDGET_RTOL:
            problems.append(f"{where}: effective budget {design.gamma_tilde!r}, expected {job.budget!r}")
        hs = np.array([h for _, h in job.channels])
        k_tilde = np.array(design.k_tilde)
        a_c = PLANT_A + hs * k_tilde
        if np.any(np.abs(a_c) >= 1.0):
            problems.append(f"{where}: a closed loop is not stable")
            return problems
        snr = math.fsum(k_tilde**2 / (1.0 - a_c**2))
        if design.regime == "budget" and _rel(snr, job.budget) > BUDGET_RTOL:
            problems.append(f"{where}: spends {snr!r} of the effective budget {job.budget!r}")
        if design.regime != "budget" and snr > job.budget * (1.0 + BUDGET_RTOL):
            problems.append(f"{where}: spends {snr!r}, over the effective budget {job.budget!r}")
        return problems


WORKLOADS = {w.name: w for w in (McWide, CodedCompare, DesignSweep)}


def median_pass_s(per_pass: list[array]) -> float:
    """Time to solution: the sum over a pass's operations of each one's median time.

    Every pass runs the same operations, so this is a pass assembled from
    each operation's median across passes.  It shrugs off a burst of host
    contention that slows part of one pass, which a median of whole-pass
    times does not.
    """
    return math.fsum(statistics.median(op) for op in zip(*per_pass))


def latency_summary(per_pass: list[array]) -> dict[str, float]:
    """p50 and p99 of per-operation latencies in ms, with the operation count."""
    latencies = np.concatenate([np.frombuffer(one_pass) for one_pass in per_pass]) * 1e3
    p50, p99 = np.percentile(latencies, [50, 99]) if latencies.size else (0.0, 0.0)
    return {"calls": int(latencies.size), "p50_ms": float(p50), "p99_ms": float(p99)}
