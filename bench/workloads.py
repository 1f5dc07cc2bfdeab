"""The four seeded verification workloads and their correctness gate.

Every workload turns (seed, case index) into inputs with its own numpy
generator, so the lab sees only the generated profiles, points and start
vectors.  A case runs the lab and checks the answer against the lab's
own oracles; `run_case` returns a CaseResult whose checks say which
oracle each number was held to.  Check kinds:

  exact  deterministic oracle (closed form, exact norm, search bounds);
         a miss means a wrong answer.
  stat   3-sigma Monte Carlo band; a correct program misses it at a small
         nominal rate (heavier for the k = 4 shell weights), so a miss is
         counted as failed but only a run of them marks the run incorrect.

Input sizes are fixed here and stated in bench/DESIGN.md.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from statistics import NormalDist

import numpy as np

from strichartz_lab import constants as C
from strichartz_lab import functionals as FN
from strichartz_lab import profiles as P
from strichartz_lab import propagators as PR
from strichartz_lab import search as SR
from strichartz_lab import shells as SH
from strichartz_lab.geometry import ConePoint


@dataclass
class CaseResult:
    values: list = field(default_factory=list)   # numbers that enter the digest
    checks: list = field(default_factory=list)   # (name, passed, kind)
    best: dict = field(default_factory=dict)     # input to run-level checks

    def check(self, name: str, passed: bool, kind: str = "exact"):
        self.checks.append((name, bool(passed), kind))

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)

    @property
    def exact_miss(self) -> bool:
        return any(not passed for _, passed, kind in self.checks if kind == "exact")

    @property
    def stat_checks(self) -> int:
        return sum(kind == "stat" for _, _, kind in self.checks)


def case_rng(seed: int, index: int) -> np.random.Generator:
    return np.random.default_rng([seed, index])


class Workload:
    """One closed-loop workload: a case stream and its oracle checks.

    cycle: cases per complete stratum cycle; timed runs stop only at a
    cycle boundary so every stratum is equally represented.
    n_trace: fixed case count of the traced run (its counts repeat).
    """

    name = ""
    cycle = 1
    n_trace = 1

    def inputs(self, seed: int, index: int):
        raise NotImplementedError

    def run_case(self, inp) -> CaseResult:
        raise NotImplementedError

    def warmup(self) -> CaseResult:
        """A fixed, small case of the same kind, run once before timing."""
        raise NotImplementedError

    def run_checks(self, results) -> list:
        """(name, passed) checks over all completed cases of a run."""
        return []


# ---------------------------------------------------------------------------
# bilinear_sweep: criterion 07 traffic


class BilinearSweep(Workload):
    """One case is one sweep step: a random tuple at every (d, k), checked
    against ratio <= 1 + band, on criterion 07's window (tail_factor 20)
    and tolerance (rel_tol 3e-4).  The warm-up case is criterion 07's
    extremal step (shared a = -1, distinct c_j, default window and
    tolerance), checked against |ratio - 1| <= band.

    Random tuples follow criterion 07 except that the decay rates of a
    tuple are stratified: sigma_j = s exp(0.4 z_j) with s = exp(N(0, 0.4))
    and z_j the k normal quantiles at (j + 1/2)/k in seeded order.  The
    cost of a tuple grows with max sigma / min sigma (window length over
    ridge width), so fixing that spread at its typical value keeps the
    run-to-run spread of the timings a measure of the program rather
    than of the draw.
    """

    name = "bilinear_sweep"
    DK = [(3, 2), (5, 2), (4, 2), (2, 3)]
    TAIL_FACTOR = 20.0      # criterion 07: window t_max = 20 x the linear core
    REL_TOL = 3e-4
    RANDOM_SAMPLES = 5 * 10 ** 4
    EXTREMAL_SAMPLES = 2 * 10 ** 5
    EXTREMAL_SEED = 2024    # criterion 07's extremal Monte Carlo seeds: 2024 + 10 d + k
    n_trace = 3

    def inputs(self, seed, index):
        rng = case_rng(seed, index)
        tuples = []
        for d, k in self.DK:
            scale = math.exp(rng.normal(scale=0.4))
            z = rng.permutation([NormalDist().inv_cdf((j + 0.5) / k) for j in range(k)])
            profs = [
                P.wave_profile(d, complex(-scale * math.exp(0.4 * zj), 0.35 * rng.normal()),
                               c=complex(0.3 * rng.normal(), math.pi * rng.random()))
                for zj in z
            ]
            tuples.append((d, k, profs, int(rng.integers(2 ** 31))))
        return tuples

    def run_tuple(self, res, d, k, profs, mc_seed, extremal):
        evs = [PR.RadialEvaluator(p) for p in profs]
        if extremal:
            lhs, lerr = FN.product_l2_sq(evs)
        else:
            win = FN.default_window(evs, tail_factor=self.TAIL_FACTOR)
            lhs, lerr = FN.product_l2_sq(evs, window=win, rel_tol=self.REL_TOL)
        n = self.EXTREMAL_SAMPLES if extremal else self.RANDOM_SAMPLES
        rhs = FN.multilinear_rhs(profs, n_samples=n, seed=mc_seed)
        band = 3.0 * (rhs.stderr / rhs.mean + lerr / lhs)
        ratio = lhs / (C.wave_sharp_constant(d, k) * rhs.mean)
        if extremal:
            res.check(f"extremal_d{d}k{k}", abs(ratio - 1.0) <= band, "stat")
        else:
            res.check(f"random_d{d}k{k}", ratio <= 1.0 + band, "stat")
        res.values += [lhs, lerr, rhs.mean, rhs.stderr]

    def run_case(self, tuples):
        res = CaseResult()
        for d, k, profs, mc_seed in tuples:
            self.run_tuple(res, d, k, profs, mc_seed, False)
        return res

    def warmup(self):
        res = CaseResult()
        for d, k in self.DK:
            profs = [P.wave_profile(d, -1.0, c=0.15j * j + 0.1 * j) for j in range(k)]
            self.run_tuple(res, d, k, profs, self.EXTREMAL_SEED + 10 * d + k, True)
        return res


# ---------------------------------------------------------------------------
# shell_mc: criterion 02 and the `shells` suite


class ShellMonteCarlo(Workload):
    """One case is one interior cone point, checked three ways.

    Points are drawn as in criterion 02; strata cycle through
    d in {2,3,4,5} x k in {2,3,4}.
    """

    name = "shell_mc"
    STRATA = [(d, k) for d in (2, 3, 4, 5) for k in (2, 3, 4)]
    SAMPLES = 4 * 2 ** 17   # four 2^17-sample chunks per Monte Carlo run
    EPSILON = 1e-3
    cycle = len(STRATA)
    n_trace = len(STRATA)

    def inputs(self, seed, index):
        rng = case_rng(seed, index)
        d, k = self.STRATA[index % len(self.STRATA)]
        w = rng.normal(size=d)
        w /= np.linalg.norm(w)
        q = 0.3 + 0.9 * rng.random()
        tau = q * (1.0 + 9.0 * rng.random())
        return d, k, ConePoint(tau, q * w), int(rng.integers(2 ** 31))

    def run_case(self, inp):
        d, k, pt, mc_seed = inp
        res = CaseResult()
        closed = SH.itilde_closed(d, k, pt).value
        rec = SH.itilde_recursive(d, k, pt, tol=1e-10).value
        mc = SH.itilde_montecarlo(d, k, pt, epsilon=self.EPSILON,
                                  n_samples=self.SAMPLES, seed=mc_seed)
        res.check("recursion_1e-8", abs(rec - closed) <= 1e-8 * closed)
        res.check("montecarlo_3sigma", abs(mc.value - closed) <= 3.0 * mc.stderr, "stat")
        res.values += [closed, rec, mc.value, mc.stderr]
        return res

    def warmup(self):
        return self.run_case((3, 2, ConePoint(1.0, np.zeros(3)), 1))


# ---------------------------------------------------------------------------
# extremizer_search: criterion 11 and the `search` suite


class ExtremizerSearch(Workload):
    """One case is one fixed-budget Nelder-Mead restart of each objective:
    the d = 4 Schrodinger and the d = 5 wave fiber quotients.

    Every restart must keep a monotone trace and never exceed 1 + 5e-3.
    As in criterion 11, the 0.99 target applies to the best restart: per
    objective, over all cases of the run (a single 12-evaluation restart
    from a rough start may legitimately end below it).
    """

    name = "extremizer_search"
    CASES = [(4, 2, C.SCHRODINGER), (5, 2, C.WAVE)]
    BUDGET = 12
    M = 6
    n_trace = 3

    def inputs(self, seed, index):
        rng = case_rng(seed, index)
        starts = []
        for _ in self.CASES:
            x0 = np.empty(self.M)
            x0[0] = rng.normal(scale=0.5)
            x0[1:] = rng.normal(scale=0.35, size=self.M - 1)
            starts.append((x0, int(rng.integers(2 ** 31))))
        return starts

    def run_restart(self, res, d, k, family, x0, seed, budget):
        cfg = SR.SearchConfig(budget=budget, seed=seed, restarts=1, m=self.M)
        _, trace, diag = SR.search(d, k, family, config=cfg, x0=x0)
        qs = trace.quotients
        tag = f"{family}_d{d}"
        res.best[tag] = diag["best_quotient"]
        res.check(f"{tag}_monotone", all(qs[i] <= qs[i + 1] + 1e-12 for i in range(len(qs) - 1)))
        res.check(f"{tag}_not_supersharp", max(qs) <= 1.0 + 5e-3)
        res.values += [diag["best_quotient"], diag["evaluations"], len(qs)]

    def run_case(self, inp):
        res = CaseResult()
        for (d, k, family), (x0, seed) in zip(self.CASES, inp):
            self.run_restart(res, d, k, family, x0, seed, self.BUDGET)
        return res

    def warmup(self):
        res = CaseResult()
        for d, k, family in self.CASES:
            self.run_restart(res, d, k, family, np.zeros(self.M), 1, 2)
        return res

    def run_checks(self, results):
        best = {}
        for res in results:
            for tag, q in res.best.items():
                best[tag] = max(q, best.get(tag, q))
        return [(f"{tag}_best_0.99", q >= 0.99) for tag, q in sorted(best.items())]


# ---------------------------------------------------------------------------
# nested_quadrature: criterion 05 and the Schrodinger propagator route


class NestedQuadrature(Workload):
    """One case is one space-time L^4 norm of a chirped Gaussian
    Schrodinger field evaluated by the oscillatory radial quadrature
    (method='quadrature') and integrated by the rect driver.

    Oracles: the exact norm gaussian_l4_norm (criterion 05's 5e-3), and
    the closed-form kernel through the same driver on the same window
    (the quadrature route must agree to 1e-6 there).
    """

    name = "nested_quadrature"
    DIMS = (3, 4, 5)
    QUAD = PR.QuadSpec(rel_tol=1e-5, abs_tol=1e-9)
    CORE = 4.0
    TAIL_FACTOR = 1.5
    REL_TOL = 1e-3
    MAX_LEVELS = 2
    cycle = len(DIMS)
    n_trace = len(DIMS)

    def inputs(self, seed, index):
        rng = case_rng(seed, index)
        d = self.DIMS[index % len(self.DIMS)]
        sigma = math.exp(rng.uniform(-0.25, 0.25))
        chirp = rng.uniform(-0.5, 0.5)
        c = complex(0.3 * rng.normal(), math.pi * rng.random())
        return P.schrodinger_profile(d, complex(-sigma, chirp), c=c)

    def norm(self, ev, win):
        return FN.lp_norm_radial(ev, 4, window=win, rel_tol=self.REL_TOL, mode="rect",
                                 max_levels=self.MAX_LEVELS, check_window=False)

    def run_case(self, prof):
        res = CaseResult()
        evq = PR.RadialEvaluator(prof, method="quadrature", quad=self.QUAD)
        win = FN.default_window([evq], tail_factor=self.TAIL_FACTOR, core=self.CORE)
        val, err = self.norm(evq, win)
        exact = FN.gaussian_l4_norm(prof)
        same_window, _ = self.norm(PR.RadialEvaluator(prof), win)
        res.check("exact_5e-3", abs(val - exact) <= 5e-3 * exact)
        res.check("closed_route_1e-6", abs(val - same_window) <= 1e-6 * same_window)
        res.values += [val, err, exact, same_window]
        return res

    def warmup(self):
        prof = P.schrodinger_profile(3, -1.0)
        t, r = np.linspace(-2.0, 2.0, 8), np.linspace(0.0, 4.0, 8)
        vals = PR.RadialEvaluator(prof, method="quadrature", quad=self.QUAD).eval_grid(t, r)
        res = CaseResult()
        res.check("grid_vs_closed", np.allclose(vals, PR.RadialEvaluator(prof).eval_grid(t, r),
                                                rtol=1e-6, atol=1e-12))
        return res


WORKLOADS = {w.name: w for w in (BilinearSweep(), ShellMonteCarlo(),
                                 ExtremizerSearch(), NestedQuadrature())}
