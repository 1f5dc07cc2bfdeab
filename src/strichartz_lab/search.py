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
derivative-free is the right tool).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import optimize

from .constants import WAVE, SCHRODINGER, check_case, wave_onefn_constant
from . import functionals as FN
from .mc import chunk_generator
from .profiles import symmetry_apply
from .propagators import QuadSpec, RadialEvaluator
from .quadrules import QuadratureError

SUPPORTED_CASES = {
    (5, 2, WAVE): "wave d=5 quartic",
    (3, 3, WAVE): "wave d=3 sextic",
    (4, 2, SCHRODINGER): "schrodinger d=4 quartic",
}

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
        if not 1 <= self.theta.size <= _MAX_M:
            raise ValueError(f"ansatz needs 1..{_MAX_M} coefficients")
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


def quotient_objective(d: int, k: int, family: str):
    """Quotient evaluator for one supported case; Q = 1 at the sharp family."""
    case = (d, k, family)
    if case not in SUPPORTED_CASES:
        raise ValueError(f"unsupported search case {case}")

    def evaluate(profile: AnsatzProfile) -> float:
        g = profile.radial_fn()
        sigma = profile.decay_rate
        if case == (4, 2, SCHRODINGER):
            # Single-resolution fiber integral: the ~1e-5 quadrature level
            # is far below any feature of the simplex landscape.
            lhs4 = FN.schro_quartic_norm4(g, 4, sigma)
            l2 = FN.schro_radial_norm_sq(g, 4, 0.0, sigma)
            h1 = FN.schro_radial_norm_sq(g, 4, 1.0, sigma)
            return lhs4 ** 0.25 / (FN.SCHRO_D4_CONSTANT * (l2 * h1) ** 0.25)
        if case == (5, 2, WAVE):
            lhs4 = FN.wave_bilinear_lhs_fiber(g, g, 5, sigma)
            E = FN.wave_radial_norm_sq(g, 5, 1.0, sigma)
            return lhs4 ** 0.25 / ((wave_onefn_constant(5) * E * E) ** 0.25)
        # (3, 3, WAVE): sextic via the propagator route (slowest case).
        ev = RadialEvaluator(
            radial_fn=g, decay=sigma, amp_bound=profile.amp_bound(), d=3,
            family=WAVE, quad=QuadSpec(rel_tol=1e-4, abs_tol=1e-10),
        )
        win = FN.default_window([ev], tail_factor=6.0)
        lhs, _ = FN.lp_norm_radial(ev, 6, window=win, rel_tol=8e-4, max_levels=3,
                                   ext_factor=1.4)
        H = FN.wave_radial_norm_sq(g, 3, 0.5, sigma)
        E = FN.wave_radial_norm_sq(g, 3, 1.0, sigma)
        rhs = (H * E * E) ** (1.0 / 6.0)
        return lhs / (wave_onefn_constant(3) ** (1.0 / 6.0) * rhs)

    return evaluate


@dataclass(frozen=True)
class SearchConfig:
    budget: int = 400        # objective evaluations per restart
    seed: int = 0
    m: int = 6               # number of ansatz coefficients
    restarts: int = 1

    def __post_init__(self):
        if self.budget < 1:
            raise ValueError(f"search needs budget >= 1, got {self.budget}")
        if self.restarts < 1:
            raise ValueError(f"search needs restarts >= 1, got {self.restarts}")
        if not 1 <= self.m <= _MAX_M:
            raise ValueError(f"search needs m in 1..{_MAX_M}, got {self.m}")


def search(d: int, k: int, family: str, config: SearchConfig = SearchConfig(),
           x0=None):
    """Nelder-Mead ascent with restarts; returns (best profile, trace, diag).

    The recorded trace holds every evaluation that beats the running
    maximum of all restarts so far, so its quotient sequence is
    increasing by construction; identical (seed, config) reruns produce
    bit-identical traces.  Exhausting the budget without meeting the
    simplex tolerance leaves terminated_by = 'budget' (partial result).
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
    trace = SearchTrace()
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
        res = optimize.minimize(
            neg_q,
            start,
            method="Nelder-Mead",
            options={
                "maxfev": config.budget,
                "xatol": _SIMPLEX_TOL,
                "fatol": _SIMPLEX_TOL,
                "adaptive": True,
            },
        )
        if res.success:
            trace.terminated_by = "tolerance"

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
