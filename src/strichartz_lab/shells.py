"""Delta-shell convolutions on the light cone and the paraboloid.

The k-fold self-convolution of the cone measure mu = |xi|^{-1} delta(tau - |xi|),

    Itilde_k(tau, xi) = int prod_j |eta_j|^{-1}
                          delta(tau - sum |eta_j|) delta(xi - sum eta_j) d eta,

is evaluated three independent ways: the closed form (Lorentz reduction
to (1,0) plus homogeneity), the one-dimensional recursion peeling off
one frequency at a time (each level's radial integral by a Gauss-Legendre
rule that is exact for it), and smoothed importance-sampled Monte Carlo
on the literal definition.  The paraboloid analogue for the Schrodinger
k-shell is closed-form only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import NamedTuple

import numpy as np

from .constants import (SCHRODINGER, WAVE, alpha_exponent, beta_exponent, check_case,
                        check_length, log_beta_fn, log_cone_c0, log_sphere_area, sphere_area)
from .geometry import ConePoint, minkowski_form
from .mc import blockwise, mc_mean, row_norm, row_sum, unit_directions
from .profiles import checked_positive
from .quadrules import QuadratureError, gauss_nodes

CLOSED_FORM = "closed_form"
RECURSION = "recursion"
MONTE_CARLO = "monte_carlo"
MIN_MC_SAMPLES = 10**4


@dataclass(frozen=True)
class ShellResult:
    value: float
    method: str
    stderr: float = 0.0

    def __post_init__(self):
        if self.method == MONTE_CARLO:
            if self.stderr < 0:
                raise ValueError("monte_carlo results need stderr >= 0")
        elif self.stderr != 0.0:
            raise ValueError("deterministic methods carry stderr = 0")


def check_point(d: int, k: int, p: ConePoint) -> None:
    """check_case(WAVE, d, k), then ValueError unless p is d-dimensional and
    interior (ConePoint.check_interior)."""
    check_case(WAVE, d, k)
    check_length("xi", p.xi, d)
    p.check_interior()


def check_montecarlo(d: int, k: int, p: ConePoint, epsilon: float, n_samples: int) -> None:
    """The Monte Carlo route's input rule: check_point, then ValueError unless
    epsilon is finite and > 0 and n_samples >= MIN_MC_SAMPLES."""
    check_point(d, k, p)
    checked_positive(epsilon, "epsilon")
    if n_samples < MIN_MC_SAMPLES:
        raise ValueError(f"n_samples must be >= {MIN_MC_SAMPLES}, got {n_samples}")


def log_itilde_unit(d: int, k: int) -> float:
    """log Itilde_k(1, 0) for every k >= 2 (k = 2: the recursion base |S^{d-1}| / 2^{d-2}):

        |S^{d-1}|^{k-1} / 2^{2 alpha(k)+1} * prod_{j=2}^{k-1} B(d-1, alpha(j)+1)
    """
    alpha_k = alpha_exponent(d, k)
    logv = (k - 1) * log_sphere_area(d) - (2.0 * float(alpha_k) + 1.0) * math.log(2.0)
    for j in range(2, k):
        logv += log_beta_fn(d - 1, float(alpha_exponent(d, j)) + 1.0)
    return logv


def itilde_closed(d: int, k: int, p: ConePoint) -> ShellResult:
    """Closed form Itilde_k(tau, xi) = rho^{alpha(k)} Itilde_k(1, 0)."""
    check_point(d, k, p)
    alpha_k = float(alpha_exponent(d, k))
    value = math.exp(log_itilde_unit(d, k) + alpha_k * math.log(minkowski_form(p)))
    return ShellResult(value, CLOSED_FORM)


def i_weighted(d: int, k: int, p: ConePoint) -> ShellResult:
    """Weighted shell constant I_k = 2^{alpha} rho^{-alpha} Itilde_k.

    Point-independent: 2^{-(d-1)/2}|S^{d-1}| at k = 2 and
    2^{-(alpha(k)+1)}|S^{d-1}|^{k-1} prod B(d-1, alpha(j)+1) for k >= 3.
    """
    itilde = itilde_closed(d, k, p).value
    alpha_k = float(alpha_exponent(d, k))
    value = 2.0 ** alpha_k * minkowski_form(p) ** (-alpha_k) * itilde
    return ShellResult(value, CLOSED_FORM)


def _radial_recursion_integral(d: int, alpha: Fraction, tol: float) -> float:
    """int_0^{1/2} (1 - 2r)^{alpha} r^{d-2} dr by Gauss-Legendre quadrature.

    With v^2 = 1 - 2r it is int_0^1 v^{2 alpha + 1} ((1 - v^2)/2)^{d-2} dv,
    a polynomial of degree m = 2 alpha + 1 + 2(d - 2) whenever 2 alpha + 1
    is a whole number >= 0, as 2 alpha(d, j) + 1 = (d - 1)(j - 1) - 1 is at
    every level of the recursion.  Gauss-Legendre rules of n and n + 1
    points with 2n > m are both exact up to rounding: the value is the
    (n + 1)-point rule's, the error its distance from the n-point rule's.
    """
    power = 2 * alpha + 1
    if power.denominator != 1 or power < 0:
        raise ValueError(f"2 alpha + 1 must be a whole number >= 0, got alpha = {alpha}")

    def gauss(n):
        v, w = gauss_nodes(n, 0.0, 1.0)
        return float(w @ (v ** int(power) * ((1.0 - v * v) / 2.0) ** (d - 2)))

    n = int(power) // 2 + d - 1
    value = gauss(n + 1)
    err = abs(value - gauss(n))
    if err > 10.0 * tol * value:
        raise QuadratureError(
            f"recursion quadrature stalled at relative error {err / value:.2e}",
            best=value,
            error=err,
        )
    return value


def itilde_recursive(d: int, k: int, p: ConePoint, tol: float = 1e-10) -> ShellResult:
    """Evaluate Itilde_k by the peel-one-frequency recursion.

    Itilde_k(1,0) = |S^{d-1}| int_0^{1/2} (1-2r)^{alpha(k-1)} r^{d-2} dr
                    * Itilde_{k-1}(1,0),

    iterated down to the k = 2 base |S^{d-1}|/2^{d-2}; each level's
    radial integral is Gauss-Legendre quadrature, never the Beta closed form.
    """
    check_point(d, k, p)
    log_unit = log_sphere_area(d) - (d - 2) * math.log(2.0)
    for j in range(3, k + 1):
        radial = _radial_recursion_integral(d, alpha_exponent(d, j - 1), tol)
        log_unit += log_sphere_area(d) + math.log(radial)
    alpha_k = float(alpha_exponent(d, k))
    value = math.exp(log_unit + alpha_k * math.log(minkowski_form(p)))
    return ShellResult(value, RECURSION)


def itilde_montecarlo(
    d: int,
    k: int,
    p: ConePoint,
    epsilon: float = 1e-3,
    n_samples: int = 10**6,
    seed: int = 0,
) -> ShellResult:
    """Smoothed Monte Carlo on the literal delta-shell integral.

    eta_k is integrated out against the spatial delta, the remaining
    scalar delta is mollified by a Gaussian of width epsilon (O(eps^2)
    bias, smooth weights), and the (k-1)d free variables are importance
    sampled: directions uniform on S^{d-1}, radii from the exponential
    shell proposal q(r) ~ r^{d-2} e^{-lambda r} with rate
    lambda = k(d-1)/tau.  The polynomial factor matches the measure
    r^{d-2} dr of the integrand exactly (so it cancels from the weights)
    and the rate centers sum |eta_j| on the shell at tau.
    """
    check_montecarlo(d, k, p, epsilon, n_samples)
    tau, xi = p.tau, np.asarray(p.xi, dtype=float)
    rate = k * (d - 1) / tau
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * epsilon)
    # Per-factor weight constant: C0 / rate^{d-1}, the proposal's normaliser.
    log_const = (k - 1) * (log_cone_c0(d) - (d - 1) * math.log(rate))

    def block_weights(radii, dirs):
        # eta_k = xi - sum_j r_j u_j, one coordinate column at a time; the
        # terms are added in index order, as numpy's sum over the j axis does
        eta_k = np.empty((len(radii), d))
        for c in range(d):
            col = radii[:, 0] * dirs[:, 0, c]
            for j in range(1, k - 1):
                col += radii[:, j] * dirs[:, j, c]
            eta_k[:, c] = xi[c] - col
        nk = row_norm(eta_k)
        total = row_sum(radii)
        s = tau - total - nk
        # |eta_k| = 0 (a null set) gives w = inf, which the isfinite filter drops.
        with np.errstate(divide="ignore"):
            w = np.exp(rate * total - np.log(nk) + log_const - 0.5 * (s / epsilon) ** 2) * norm
        return np.where(np.isfinite(w), w, 0.0)

    def sample_weights(rng, m):
        radii = rng.gamma(shape=d - 1, scale=1.0 / rate, size=(m, k - 1))
        return blockwise(m, lambda n: unit_directions(rng, n, k - 1, d), block_weights, radii)

    est = mc_mean(sample_weights, n_samples, seed)
    return ShellResult(est.mean, MONTE_CARLO, est.stderr)


class SchroShell(NamedTuple):
    itilde: ShellResult
    weighted: float


def schro_shell(d: int, k: int, tau: float, xi) -> SchroShell:
    """Paraboloid k-shell pair (Itilde_k(tau, xi), I_k) for k tau > |xi|^2.

    Itilde_k(tau, xi) = int delta(tau - sum |eta_j|^2) delta(xi - sum eta_j) d eta.
    Centre of mass: eta_j = xi/k + zeta_j with sum zeta_j = 0 puts the
    fiber on the sphere |zeta| = R, R^2 = tau - |xi|^2/k, of the
    (k-1)d-dimensional plane, whose coordinates eta_1..eta_{k-1} carry
    k^{-d/2} times its surface measure:

        Itilde_k = 1/2 k^{-d/2} |S^{(k-1)d-1}| R^{(k-1)d-2}.

    The weighted constant I_k = Itilde_k / (k tau - |xi|^2)^{beta(d,k)} is
    taken through the point; it is point-independent, and at k = 2 equals
    2^{-d} |S^{d-1}|.
    """
    check_case(SCHRODINGER, d, k)
    xi = np.atleast_1d(np.asarray(xi, dtype=float))
    check_length("xi", xi, d)
    gap = k * tau - float(np.dot(xi, xi))
    if gap <= 0.0:
        raise ValueError("paraboloid shell needs k tau > |xi|^2")
    n = (k - 1) * d
    value = 0.5 * k ** (-0.5 * d) * sphere_area(n) * (gap / k) ** (0.5 * n - 1.0)
    weighted = value / gap ** float(beta_exponent(d, k))
    return SchroShell(ShellResult(value, CLOSED_FORM), weighted)
