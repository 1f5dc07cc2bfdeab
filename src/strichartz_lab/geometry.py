"""Minkowski form, Lorentz boosts, Galilean maps, and interaction weights.

The change-of-variables toolbox behind the shell-convolution closed
forms: the quadratic form rho(tau, xi) = tau^2 - |xi|^2, the pure boost
T_v normalising interior cone points to (sqrt(rho), 0), the affine
frequency map preserving the paraboloid, and the two interaction
weights K(eta) whose square collapses to rho on the delta supports.
The scalar weights are the test oracles; the Monte Carlo right-hand
sides read the batches, the wave one in the polar form (radii and unit
directions) in which its samples are drawn.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import check_length

# Below this speed the (gamma-1)/|v|^2 block is evaluated by series;
# the limit coefficient is 1/2 and the v^2 correction is 3|v|^2/8.
_SMALL_V = 1e-8


@dataclass
class ConePoint:
    """Space-time frequency point (tau, xi); ValueError unless tau and xi are finite."""

    tau: float
    xi: np.ndarray

    def __post_init__(self):
        self.xi = np.atleast_1d(np.asarray(self.xi, dtype=float))
        self.tau = float(self.tau)
        if not (math.isfinite(self.tau) and np.all(np.isfinite(self.xi))):
            raise ValueError(f"a cone point needs a finite tau and xi, "
                             f"got tau = {self.tau!r}, xi = {self.xi.tolist()}")

    @property
    def d(self) -> int:
        return self.xi.size

    @property
    def interior(self) -> bool:
        """Strictly inside the forward light cone (tau > |xi|)."""
        return self.tau > float(np.linalg.norm(self.xi))

    def check_interior(self) -> None:
        """ValueError unless the point is interior (tau > |xi|)."""
        if not self.interior:
            raise ValueError(f"a cone point must lie strictly inside the forward cone "
                             f"(tau > |xi|), got tau = {self.tau!r}, "
                             f"|xi| = {float(np.linalg.norm(self.xi))!r}")


def minkowski_form(p: ConePoint) -> float:
    """rho(tau, xi) = tau^2 - |xi|^2."""
    return p.tau * p.tau - float(np.dot(p.xi, p.xi))


def boost_matrix(v) -> np.ndarray:
    """The (d+1)x(d+1) pure Lorentz boost T_v for |v| < 1.

    Row/column 0 is the tau direction:

        [ gamma       -gamma v^T              ]
        [ -gamma v    I + (gamma-1)/|v|^2 vv^T]
    """
    v = np.atleast_1d(np.asarray(v, dtype=float))
    v2 = float(np.dot(v, v))
    if v2 >= 1.0:
        raise ValueError(f"boost speed |v| = {math.sqrt(v2):.6g} must be < 1")
    d = v.size
    T = np.eye(d + 1)
    if v2 == 0.0:
        return T
    gamma = 1.0 / math.sqrt(1.0 - v2)
    if math.sqrt(v2) < _SMALL_V:
        coeff = 0.5 + 0.375 * v2
    else:
        coeff = (gamma - 1.0) / v2
    T[0, 0] = gamma
    T[0, 1:] = -gamma * v
    T[1:, 0] = -gamma * v
    T[1:, 1:] += coeff * np.outer(v, v)
    return T


def lorentz_boost(v, p: ConePoint) -> ConePoint:
    """Apply T_v to a cone point."""
    check_length("v", np.atleast_1d(v), p.d)
    vec = boost_matrix(v) @ np.concatenate(([p.tau], p.xi))
    return ConePoint(vec[0], vec[1:])


def normalizing_boost(p: ConePoint) -> np.ndarray:
    """Velocity v = -xi/tau whose boost sends (sqrt(rho), 0) to (tau, xi)."""
    p.check_interior()
    return -p.xi / p.tau


def galilean_map(v, p: ConePoint) -> ConePoint:
    """(tau, xi) -> (tau + 2 xi.v + |v|^2, xi + v); preserves tau = |xi|^2."""
    v = np.atleast_1d(np.asarray(v, dtype=float))
    check_length("v", v, p.d)
    return ConePoint(p.tau + 2.0 * float(np.dot(p.xi, v)) + float(np.dot(v, v)), p.xi + v)


def boost_defects(rng, n: int):
    """Worst (Minkowski-form change, |det T_v| - 1, T_{-v} T_v round trip)
    over n random boosts of random points for each d in (2, 3, 5)."""
    worst_form, worst_det, worst_group = 0.0, 0.0, 0.0
    for d in (2, 3, 5):
        for _ in range(n):
            v = rng.normal(size=d)
            v *= rng.random() ** 0.5 * 0.95 / max(np.linalg.norm(v), 1e-12)
            p = ConePoint(rng.normal() * 3.0, rng.normal(size=d))
            q = lorentz_boost(v, p)
            rho0, rho1 = minkowski_form(p), minkowski_form(q)
            worst_form = max(worst_form, abs(rho1 - rho0) / max(abs(rho0), 1e-12))
            worst_det = max(worst_det, abs(abs(np.linalg.det(boost_matrix(v))) - 1.0))
            back = lorentz_boost(-v, q)
            worst_group = max(
                worst_group,
                abs(back.tau - p.tau) + float(np.max(np.abs(back.xi - p.xi))),
            )
    return worst_form, worst_det, worst_group


def paraboloid_defect(rng, n: int) -> float:
    """Worst |tau' - |xi'|^2| over n random Galilean maps of paraboloid points, d = 3."""
    worst = 0.0
    for _ in range(n):
        xi = rng.normal(size=3)
        img = galilean_map(rng.normal(size=3), ConePoint(float(np.dot(xi, xi)), xi))
        worst = max(worst, abs(img.tau - float(np.dot(img.xi, img.xi))))
    return worst


def _pair_term(a, b) -> float:
    """|a||b| - a.b without cancellation.

    For nearly parallel vectors the direct difference loses all digits;
    the Lagrange identity |a|^2|b|^2 - (a.b)^2 = sum_{m<n}(a_m b_n - a_n b_m)^2
    provides a nonnegative numerator, and the division is by
    |a||b| + a.b >= a.b > 0.
    """
    na = math.sqrt(float(np.dot(a, a)))
    nb = math.sqrt(float(np.dot(b, b)))
    dot = float(np.dot(a, b))
    if dot <= 0.0:
        return na * nb - dot
    cross = np.outer(a, b) - np.outer(b, a)
    gram = 0.5 * float(np.sum(cross * cross))
    return gram / (na * nb + dot)


def wave_weight(eta) -> float:
    """K(eta) = sqrt( sum_{i<j} (|eta_i||eta_j| - eta_i . eta_j) ).

    Pairwise terms are clamped at zero from below: rounding can push the
    stable form a few ulp negative for exactly parallel frequencies.
    """
    eta = np.asarray(eta, dtype=float)
    k = eta.shape[0]
    terms = []
    for i in range(k):
        for j in range(i + 1, k):
            terms.append(max(_pair_term(eta[i], eta[j]), 0.0))
    return math.sqrt(math.fsum(terms))


def schro_weight(eta) -> float:
    """K(eta) = sqrt( sum_{i<j} |eta_i - eta_j|^2 ); |eta_1 - eta_2| at k=2."""
    eta = np.asarray(eta, dtype=float)
    k = eta.shape[0]
    terms = []
    for i in range(k):
        for j in range(i + 1, k):
            diff = eta[i] - eta[j]
            terms.append(float(np.dot(diff, diff)))
    return math.sqrt(math.fsum(terms))


def wave_weight_sq_batch(radii: np.ndarray, dirs: np.ndarray) -> np.ndarray:
    """Wave K^2 of a batch of tuples eta_j = r_j w_j given as drawn: radii of
    shape (n, k) and unit directions of shape (n, k, d) -> (n,).

    For unit w, |eta_i||eta_j| - eta_i.eta_j = r_i r_j |w_i - w_j|^2 / 2, a
    sum of nonnegative terms in which nearby directions subtract exactly, so
    no Lagrange form and no clamp.  Drawn directions are unit only to
    rounding, so a pair differs from the eta form of the same floats by
    r_i r_j (|w_i| - |w_j|)^2 / 2, about 1e-32 r_i r_j: the error floor of
    pairs closer than about 1e-8 radians.
    """
    n, k = radii.shape
    total = np.zeros(n)
    for i in range(k):
        for j in range(i + 1, k):
            diff = dirs[:, i, :] - dirs[:, j, :]
            total += radii[:, i] * radii[:, j] * np.einsum("nd,nd->n", diff, diff)
    return 0.5 * total


def schro_weight_sq_batch(eta: np.ndarray) -> np.ndarray:
    """Schrodinger K^2 for a batch, shape (n, k, d) -> (n,)."""
    eta = np.asarray(eta, dtype=float)
    n, k, _ = eta.shape
    total = np.zeros(n)
    for i in range(k):
        for j in range(i + 1, k):
            diff = eta[:, i, :] - eta[:, j, :]
            total += np.einsum("nd,nd->n", diff, diff)
    return total
