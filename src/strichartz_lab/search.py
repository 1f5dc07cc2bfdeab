"""Direct maximisation of sharp quotients over radial ansatz data.

The ansatz fixes the family's symmetry directions by construction: the
log-profile is a guaranteed-decay term plus bounded Chebyshev
corrections in a logarithmic radial coordinate,

    log g(r) = -exp(theta_0) r^pow + sum_{i>=1} theta_i T_{i-1}(z(log r)),

with pow = 1 for the wave family (exponential extremizers) and pow = 2
for the Schrodinger family (Gaussian extremizers).  Scale and phase are
quotiented out by the objective itself; translations and tilts are not
parameterised at all.  The optimiser is Nelder-Mead with seeded random
restarts (the objective is quadrature-backed and mildly noisy, so
derivative-free is the right tool), scipy's adaptive Nelder-Mead written
out here step for step.  The objective scores each case with
the report builder the verification routines use (functionals.onefn_report
or functionals.mixed_norm_report).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .constants import WAVE, SCHRODINGER, check_case, whole
from . import functionals as FN
from .mc import chunk_generator
from .profiles import symmetry_apply
from .propagators import QuadSpec, RadialEvaluator
from .quadrules import QuadratureError

_Z_LO, _Z_HI = math.log(0.05), math.log(20.0)
_SIMPLEX_TOL = 1e-5   # Nelder-Mead convergence tolerance on -Q
_INIT_SPREAD = 0.35   # scale of the random Chebyshev start coefficients
_MAX_M = 12           # most ansatz coefficients


def _chebval_in_place(x: np.ndarray, c: list) -> np.ndarray:
    """numpy's chebval(x, c) for Python-float coefficients c, overwriting x.

    The Clenshaw recurrence performs chebval's operations in its order,
    its 1- and 2-coefficient branches included (one coefficient gives
    c0 + 0 * x, which can differ from c0 in the sign of a zero), so the
    result is bit for bit chebval's.
    """
    if len(c) < 3:
        c0, c1 = c[0], (c[1] if len(c) == 2 else 0.0)
    else:
        x2 = x * 2.0
        c0, c1 = c[-3] - c[-1], x2 * c[-1]
        c1 += c[-2]
        for ci in c[-4::-1]:
            c0_next = ci - c1
            c1 *= x2
            c1 += c0
            c0 = c0_next
    x *= c1
    x += c0
    return x


@dataclass
class AnsatzProfile:
    """Radial log-profile coefficients; g(r) = exp(sum theta_i phi_i(r))."""

    theta: np.ndarray
    d: int
    family: str

    def __post_init__(self):
        self.theta = np.asarray(self.theta, dtype=float)
        if self.theta.ndim != 1 or not 1 <= self.theta.size <= _MAX_M:
            raise ValueError(f"ansatz needs a 1..{_MAX_M}-entry vector, got shape {self.theta.shape}")
        if not np.all(np.isfinite(self.theta)):
            raise ValueError("ansatz coefficients must be finite")
        check_case(self.family, self.d)

    @property
    def decay_power(self) -> int:
        return 1 if self.family == WAVE else 2

    @property
    def decay_rate(self) -> float:
        """Coefficient of the guaranteed-decay direction, always > 0."""
        return math.exp(self.theta[0])

    def _log_profile_array(self, r) -> np.ndarray:
        """log g(r) as a fresh array of r's shape (0-d for a scalar r),
        built in place in arrays allocated here (r is only read); its bits
        equal -decay_rate * r**pow + chebval(clip(z), theta[1:])."""
        r = np.asarray(r, dtype=float)
        out = np.empty_like(r)
        if self.decay_power == 2:
            np.multiply(r, r, out=out)
            out *= -self.decay_rate
        else:
            np.multiply(r, -self.decay_rate, out=out)
        if self.theta.size > 1:
            z = np.maximum(r, 1e-12, out=np.empty_like(r))
            np.log(z, out=z)
            z -= _Z_LO
            z *= 2.0
            z /= _Z_HI - _Z_LO
            z -= 1.0
            np.clip(z, -1.0, 1.0, out=z)
            out += _chebval_in_place(z, self.theta[1:].tolist())
        return out

    def log_profile(self, r):
        return self._log_profile_array(r)[()]

    def radial_fn(self):
        def g(r):
            out = self._log_profile_array(r)
            return np.exp(out, out=out)[()]
        return g

    def amp_bound(self) -> float:
        """max over r of g(r) e^{+decay_rate r^pow} (the correction sup)."""
        return math.exp(float(np.sum(np.abs(self.theta[1:]))))


@dataclass
class SearchTrace:
    iterates: list = field(default_factory=list)  # (theta tuple, quotient)
    terminated_by: str = "budget"

    @property
    def quotients(self):
        return [q for _, q in self.iterates]


def _wave_fiber_lhs(p: AnsatzProfile, g):
    return FN.wave_bilinear_lhs_fiber(g, g, p.d, p.decay_rate) ** 0.25, math.nan


def _schro_fiber_lhs(p: AnsatzProfile, g):
    return FN.schro_quartic_norm4(g, p.d, p.decay_rate) ** 0.25, math.nan


def _sextic_lhs(p: AnsatzProfile, g):
    # The d = 3 sextic by the propagator route (slowest case).
    ev = RadialEvaluator(radial_fn=g, decay=p.decay_rate, amp_bound=p.amp_bound(), d=p.d,
                         family=WAVE, quad=QuadSpec(rel_tol=1e-4, abs_tol=1e-10))
    win = FN.default_window([ev], tail_factor=6.0)
    return FN.lp_norm_radial(ev, 6, window=win, rel_tol=8e-4, max_levels=3, ext_factor=1.4)


# (d, k, family) -> (LHS route giving (lhs, lhs_err), orders s of the two data
# norms ||f||_{H^s}^2, report builder).  The fiber routes run at one resolution
# and so report no error (nan): their ~1e-5 quadrature level is far below any
# feature of the simplex landscape.  Routes and norms read FN at call time, so
# a wrapper swapped into FN sees every call.
_CASES = {
    (5, 2, WAVE): (_wave_fiber_lhs, (0.5, 1.0), partial(FN.onefn_report, 5)),
    (3, 3, WAVE): (_sextic_lhs, (0.5, 1.0), partial(FN.onefn_report, 3)),
    (4, 2, SCHRODINGER): (_schro_fiber_lhs, (0.0, 1.0), FN.mixed_norm_report),
}
SUPPORTED_CASES = _CASES.keys()


def quotient_objective(d: int, k: int, family: str):
    """Quotient evaluator for one supported case: the ratio of its report, 1 at the sharp family."""
    case = (d, k, family)
    if case not in SUPPORTED_CASES:
        raise ValueError(f"unsupported search case {case}, expected one of "
                         f"{sorted(SUPPORTED_CASES)}")
    lhs_route, orders, build = _CASES[case]

    def evaluate(profile: AnsatzProfile) -> float:
        g = profile.radial_fn()
        norm_sq = FN.wave_radial_norm_sq if family == WAVE else FN.schro_radial_norm_sq
        norms = (norm_sq(g, d, s, profile.decay_rate) for s in orders)
        return build(*lhs_route(profile, g), *norms).ratio

    return evaluate


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 400        # objective evaluations per restart
    seed: int = 0
    m: int = 6               # number of ansatz coefficients
    restarts: int = 1

    def __post_init__(self):
        for name, value in (("budget", self.budget), ("restarts", self.restarts), ("m", self.m)):
            if not whole(value):
                raise ValueError(f"need an integer {name}, got {value!r}")
        if self.budget < 1:
            raise ValueError(f"need budget >= 1, got {self.budget}")
        if self.restarts < 1:
            raise ValueError(f"need restarts >= 1, got {self.restarts}")
        if not 1 <= self.m <= _MAX_M:
            raise ValueError(f"need m in 1..{_MAX_M}, got {self.m}")


class _BudgetSpent(Exception):
    """The evaluation budget ran out in the middle of a simplex step."""


def _nelder_mead(f, x0, maxfev: int, tol: float) -> bool:
    """scipy 1.17's minimize(f, x0, method="Nelder-Mead", options={"maxfev":
    maxfev, "xatol": tol, "fatol": tol, "adaptive": True}) step for step (Gao
    & Han's adaptive Nelder-Mead), so f sees the same x bytes in the same
    order; returns its `success`: True when the simplex met tol in time."""
    n = len(x0)
    chi, psi, sigma = 1 + 2 / n, 0.75 - 1 / (2 * n), 1 - 1 / n
    calls = 0

    def call(x):
        nonlocal calls
        if calls >= maxfev:
            raise _BudgetSpent
        calls += 1
        return f(np.copy(x))

    sim = np.tile(x0, (n + 1, 1))
    for k in range(n):
        sim[k + 1, k] = 1.05 * x0[k] if x0[k] != 0 else 0.00025
    fsim = np.full(n + 1, np.inf)
    try:
        for k in range(n + 1):
            fsim[k] = call(sim[k])
    except _BudgetSpent:
        pass
    for _ in range(2):
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    while calls < maxfev:
        try:
            if (np.abs(sim[1:] - sim[0]).max() <= tol
                    and np.abs(fsim[0] - fsim[1:]).max() <= tol):
                return True
            xbar = sim[:-1].sum(0) / n
            xr = 2 * xbar - sim[-1]
            fxr = call(xr)
            if fxr < fsim[0]:
                xe = (1 + chi) * xbar - chi * sim[-1]
                fxe = call(xe)
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
            elif fxr < fsim[-2]:
                sim[-1], fsim[-1] = xr, fxr
            else:
                if fxr < fsim[-1]:  # outside contraction
                    xc = (1 + psi) * xbar - psi * sim[-1]
                    fxc = call(xc)
                    shrink = not fxc <= fxr
                else:  # inside contraction
                    xc = (1 - psi) * xbar + psi * sim[-1]
                    fxc = call(xc)
                    shrink = not fxc < fsim[-1]
                if shrink:
                    for j in range(1, n + 1):
                        sim[j] = sim[0] + sigma * (sim[j] - sim[0])
                        fsim[j] = call(sim[j])
                else:
                    sim[-1], fsim[-1] = xc, fxc
        except _BudgetSpent:
            pass
        ind = np.argsort(fsim)
        sim, fsim = np.take(sim, ind, 0), np.take(fsim, ind, 0)
    return False


def search(d: int, k: int, family: str, config: SearchConfig = SearchConfig(),
           x0=None):
    """Nelder-Mead ascent with restarts; returns (best profile, trace, diag).

    The recorded trace holds every evaluation that beats the running
    maximum of all restarts so far, so its quotient sequence is
    increasing by construction; identical (seed, config) reruns produce
    bit-identical traces.  terminated_by is 'tolerance' only when every
    restart met the simplex tolerance, else 'budget' (partial result).
    An evaluation whose quadrature fails scores quotient 0 and is counted
    in diag['failed_evals']; any other error propagates.  An explicit x0
    must be a finite vector of config.m entries (ValueError otherwise).
    """
    objective = quotient_objective(d, k, family)
    if x0 is not None:
        x0 = np.asarray(x0, dtype=float)
        if x0.shape != (config.m,) or not np.all(np.isfinite(x0)):
            raise ValueError(f"x0 must be a finite vector of m = {config.m} entries")
    rng = chunk_generator(config.seed, 0)
    trace = SearchTrace(terminated_by="tolerance")
    best_q = -math.inf
    evals_used = failed_evals = 0

    def neg_q(theta):
        nonlocal best_q, evals_used, failed_evals
        evals_used += 1
        if np.any(np.abs(theta) > 12.0):
            return 0.0
        try:
            q = objective(AnsatzProfile(theta, d, family))
        except QuadratureError:
            failed_evals += 1
            return 0.0
        if q > best_q:
            best_q = q
            trace.iterates.append((tuple(theta), q))
        return -q

    for restart in range(config.restarts):
        if x0 is not None and restart == 0:
            start = x0
        else:
            start = np.zeros(config.m)
            start[0] = rng.normal(scale=0.5)
            start[1:] = rng.normal(scale=_INIT_SPREAD, size=config.m - 1)
        if not _nelder_mead(neg_q, start, config.budget, _SIMPLEX_TOL):
            trace.terminated_by = "budget"

    if not trace.iterates:
        raise RuntimeError("every objective evaluation failed; no usable iterate")
    profile = AnsatzProfile(np.asarray(trace.iterates[-1][0]), d, family)
    diag = exponential_fit_diagnostic(profile)
    diag["best_quotient"] = best_q
    diag["evaluations"] = evals_used
    diag["failed_evals"] = failed_evals
    return profile, trace, diag


def exponential_fit_diagnostic(profile: AnsatzProfile) -> dict:
    """Least-squares fit of log g against -a r^pow + const on the decay range.

    Returns the fitted rate and the RMS residual (absolute, in log
    units); small residuals certify the family-correct decay shape
    (exponential for wave, Gaussian for Schrodinger).
    """
    r = np.linspace(0.5, 4.0, 60)
    y = profile.log_profile(r)
    X = np.stack([-(r ** profile.decay_power), np.ones_like(r)], axis=1)
    coef, *_ = np.linalg.lstsq(X, y, rcond=None)
    resid = y - X @ coef
    # RMS in absolute log units: the family-correct shape leaves ~0 while
    # a wrong decay power (exp vs Gaussian) leaves O(1) on this range.
    return {
        "fit_rate": float(coef[0]),
        "fit_const": float(coef[1]),
        "fit_residual": float(np.sqrt(np.mean(resid ** 2))),
    }


def trace_to_csv(trace: SearchTrace, path):
    with open(path, "w") as fh:
        if trace.iterates:
            m = len(trace.iterates[0][0])
            fh.write("iterate,quotient," + ",".join(f"theta{i}" for i in range(m)) + "\n")
            for i, (theta, q) in enumerate(trace.iterates):
                fh.write("%d,%.15g," % (i, q) + ",".join("%.15g" % t for t in theta) + "\n")


# ---------------------------------------------------------------------------
# Symmetry invariance audit


def symmetry_invariance_audit(profile, elements, quotient_fn) -> dict:
    """Max relative quotient change over sampled group elements.

    quotient_fn maps a profile to its quotient; elements are parameter
    group actions from the profiles module.  For symmetries of the
    functional the change is quadrature-level noise; for the Galilean
    boost on the mixed-norm quotient it is genuinely nonzero.
    """
    q0 = quotient_fn(profile)
    changes = {}
    for name, g in elements.items():
        q1 = quotient_fn(symmetry_apply(g, profile))
        changes[name] = abs(q1 - q0) / abs(q0)
    return {"base": q0, "changes": changes, "max_change": max(changes.values())}
