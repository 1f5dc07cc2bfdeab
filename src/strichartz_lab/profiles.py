"""Extremizer families, their Sobolev norms, data splitting, symmetries.

Wave family:        |xi| fhat(xi) = exp(a|xi| + b.xi + c)
Schrodinger family:      fhat(xi) = exp(a|xi|^2 + b.xi + c)

with complex a, c and complex vector b.  Re(a) < 0 always; the wave
family additionally needs |Re(b)| < -Re(a) for its weighted integrals
to converge (the admissibility predicate below).  Imaginary parts of b
are spatial translations and are folded into the evaluators' base point
rather than the quadrature paths.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, replace

import numpy as np

from .constants import WAVE, SCHRODINGER, check_case, check_length, sphere_area, whole
from .quadrules import angular_nodes, gauss_nodes

# Angular Gauss nodes of the tilted-norm quadratures (8x as many radial).
_N_QUAD = 200


def checked_positive(value: float, name: str) -> float:
    """value if it is finite and > 0, else ValueError naming it: the one rule for
    decays, amp_bound, the tolerances, the Scaling factors and the MC width."""
    if not (math.isfinite(value) and value > 0.0):
        raise ValueError(f"{name} must be finite and > 0, got {value!r}")
    return value


@dataclass
class ExtremalProfile:
    family: str
    d: int
    a: complex
    b: np.ndarray = None
    c: complex = 0.0
    sign: int = 1  # +1 rides exp(+it sqrt(-Lap)); -1 the opposite sheet

    def __post_init__(self):
        check_case(self.family, self.d)
        if self.b is None:
            self.b = np.zeros(self.d, dtype=complex)
        self.b = np.atleast_1d(np.asarray(self.b, dtype=complex))
        check_length("b", self.b, self.d)
        self.a = complex(self.a)
        self.c = complex(self.c)
        if not whole(self.sign) or self.sign not in (1, -1):
            raise ValueError("propagator sign must be +1 or -1")
        params = [("Im a", self.a.imag)]
        params += [(f"b[{i}]", complex(v)) for i, v in enumerate(self.b)]
        for name, value in params + [("c", self.c)]:
            if not cmath.isfinite(value):
                raise ValueError(f"{name} must be finite, got {value!r}")
        checked_positive(-self.a.real, "decay")

    @property
    def decay(self) -> float:
        """sigma = -Re(a) > 0."""
        return -self.a.real

    @property
    def tilt(self) -> float:
        """|Re(b)|, the genuine (non-translation) tilt magnitude."""
        return float(np.linalg.norm(self.b.real))

    @property
    def admissible(self) -> bool:
        """Finiteness of the weighted right-hand sides.

        Wave profiles need |Re(b)| < -Re(a); Gaussian profiles are always
        admissible once Re(a) < 0.
        """
        if self.family == SCHRODINGER:
            return True
        return self.tilt < self.decay

    @property
    def center(self) -> np.ndarray:
        """Spatial center -Im(b) induced by the imaginary tilt."""
        return -self.b.imag

    def freq_amplitude(self, rho):
        """Radial frequency amplitude with the translation stripped.

        Wave: exp(a rho + c) (this is |xi| fhat); Schrodinger:
        exp(a rho^2 + c) (this is fhat).  Real tilts are not radial and
        are handled by the norm/RHS integrators, never here.
        """
        if self.tilt != 0.0:
            raise ValueError("radial amplitude undefined for Re(b) != 0")
        rho = np.asarray(rho, dtype=float)
        if self.family == WAVE:
            return np.exp(self.a * rho + self.c)
        return np.exp(self.a * rho * rho + self.c)


def wave_profile(d, a, b=None, c=0.0, sign=1) -> ExtremalProfile:
    return ExtremalProfile(WAVE, d, a, b, c, sign)


def schrodinger_profile(d, a, b=None, c=0.0) -> ExtremalProfile:
    return ExtremalProfile(SCHRODINGER, d, a, b, c)


# ---------------------------------------------------------------------------
# Sobolev norms


def wave_moment(p: ExtremalProfile, q: float, odd: bool = False) -> float:
    """Tilted polar moment int |xi|^{q-d} (xi.e/|xi|)^j |xi fhat|^2 dxi of an
    admissible wave profile, e = Re(b)/|Re(b)|, j = 1 if odd else 0: the radial
    Gamma integral against the _N_QUAD-node angular rule in u = cos(theta),

        |S^{d-2}| Gamma(q) int_{-1}^{1} (1-u^2)^{(d-3)/2} u^j (2(sigma - beta u))^{-q} du,

    sigma = -Re(a), beta = |Re(b)|; at beta = 0, |S^{d-1}| Gamma(q) (2 sigma)^{-q} or 0.
    """
    sigma, beta, d = p.decay, p.tilt, p.d
    amp = math.exp(2.0 * p.c.real)
    if beta == 0.0:
        return 0.0 if odd else amp * sphere_area(d) * math.exp(
            math.lgamma(q) - q * math.log(2.0 * sigma))
    u, w = angular_nodes(d, _N_QUAD)
    vals = (u if odd else 1.0) * (2.0 * (sigma - beta * u)) ** (-float(q))
    return amp * sphere_area(d - 1) * math.gamma(q) * float(np.dot(w, vals))


def sobolev_norm_sq(p: ExtremalProfile, s: float) -> float:
    """Squared homogeneous Sobolev norm (2pi)^{-d} int |xi|^{2s} |fhat|^2.

    Wave family: (2pi)^{-d} wave_moment(p, m + 1), m = 2s + d - 3.  Divergent
    profiles (beta >= sigma) return math.inf as a deliberate tag -- the
    admissibility predicate, not an overflow.
    """
    if p.family == WAVE:
        if s < 0.5:
            raise ValueError("wave-family norms need s >= 1/2")
        if not p.admissible:
            return math.inf
        m = 2.0 * s + p.d - 3.0
        return wave_moment(p, m + 1.0) / (2.0 * math.pi) ** p.d

    # Gaussian family: finite for every s >= 0.
    if s < 0:
        raise ValueError("need s >= 0")
    sigma, beta = p.decay, p.tilt
    d = p.d
    amp = math.exp(2.0 * p.c.real)
    if s not in (0.0, 1.0):
        return _schro_norm_quad(p, s)
    val = (math.pi / (2.0 * sigma)) ** (d / 2.0) * math.exp(beta * beta / (2.0 * sigma))
    if s == 1.0:
        mlen = beta / (2.0 * sigma)
        val = val * (d / (4.0 * sigma) + mlen * mlen)
    return amp * val / (2.0 * math.pi) ** d


def _schro_norm_quad(p, s):
    sigma, beta, d = p.decay, p.tilt, p.d
    amp = math.exp(2.0 * p.c.real)
    rmax = math.sqrt((50.0 + beta * beta / sigma) / (2.0 * sigma)) + beta / sigma + 5.0
    r, wr = gauss_nodes(8 * _N_QUAD, 0.0, rmax)
    if d == 1:
        radial = r ** (2.0 * s) * np.exp(-2.0 * sigma * r * r) * (
            np.exp(2.0 * beta * r) + np.exp(-2.0 * beta * r)
        )
        return amp * float(np.dot(wr, radial)) / (2.0 * math.pi)
    u, wu = angular_nodes(d, _N_QUAD)
    ang = np.exp(2.0 * beta * np.outer(r, u))
    radial = r ** (2.0 * s + d - 1.0) * np.exp(-2.0 * sigma * r * r)
    total = float(np.dot(radial * wr, ang @ wu))
    return amp * sphere_area(d - 1) * total / (2.0 * math.pi) ** d


# ---------------------------------------------------------------------------
# Cauchy data and the f_+/f_- split


@dataclass
class CauchyData:
    """Radial wave Cauchy data on the Fourier side.

    u0_hat and udot0_hat map a radial grid |xi| -> complex values.
    """

    u0_hat: callable
    udot0_hat: callable
    d: int


def data_split(cd: CauchyData):
    """fhat_{+/-} = (u0_hat -/+ i udot0_hat/|xi|) / 2.

    Inverse of u(0) = f_+ + f_-, d/dt u(0) = i sqrt(-Lap)(f_+ - f_-);
    reconstruction from the returned handles is exact.
    """

    def f_plus(rho):
        rho = np.asarray(rho, dtype=float)
        return 0.5 * (cd.u0_hat(rho) - 1j * cd.udot0_hat(rho) / rho)

    def f_minus(rho):
        rho = np.asarray(rho, dtype=float)
        return 0.5 * (cd.u0_hat(rho) + 1j * cd.udot0_hat(rho) / rho)

    return f_plus, f_minus


def reconstruct(f_plus, f_minus, d: int) -> CauchyData:
    """Rebuild (u0_hat, udot0_hat) from the split handles."""

    def u0(rho):
        return f_plus(rho) + f_minus(rho)

    def udot0(rho):
        rho = np.asarray(rho, dtype=float)
        return 1j * rho * (f_plus(rho) - f_minus(rho))

    return CauchyData(u0, udot0, d)


def canonical_energy_pair(d: int = 5, c0: float = 1.0):
    """Extremal split pair of the data (0, (1+|x|^2)^{-(d+1)/2}).

    On the Fourier side the data are (0, c0 exp(-|xi|)), whence
    |xi| fhat_{+/-} = +/- c0 exp(-|xi|)/(2i).  c0 is an opaque positive
    normalisation (tests use 1; the quotient is invariant).
    """
    cplus = complex(math.log(c0 / 2.0), -math.pi / 2.0)
    cminus = complex(math.log(c0 / 2.0), math.pi / 2.0)
    fp = ExtremalProfile(WAVE, d, -1.0, None, cplus, sign=1)
    fm = ExtremalProfile(WAVE, d, -1.0, None, cminus, sign=-1)
    return fp, fm


# ---------------------------------------------------------------------------
# Symmetry group actions, parameter level


@dataclass(frozen=True)
class Translate:
    """Space-time translation u(t,x) -> u(t + t0, x + x0)."""

    t0: float = 0.0
    x0: tuple = ()


@dataclass(frozen=True)
class Scaling:
    """Rescaling u -> lam1 u(lam2 t, lam2 x) (wave) / u(lam2^2 t, lam2 x)."""

    lam1: float = 1.0
    lam2: float = 1.0


@dataclass(frozen=True)
class Phase:
    """Phase rotation of one propagator component by exp(i theta)."""

    theta: float = 0.0


@dataclass(frozen=True)
class GalileanBoost:
    """Galilean boost u(t,x) -> exp(-i(x.v + |v|^2 t)) u(t, x + 2vt)."""

    v: tuple = ()


def compose(g1, g2):
    """Group law for two elements of the same one-parameter family."""
    if type(g1) is not type(g2):
        raise ValueError("can only compose elements of the same family")
    if isinstance(g1, Translate):
        d = max(len(g1.x0), len(g2.x0))  # an empty x0 is the zero vector
        x1, x2 = (np.asarray(g.x0, dtype=float) if len(g.x0) else np.zeros(d) for g in (g1, g2))
        check_length("x0", x2, len(x1))
        return Translate(g1.t0 + g2.t0, tuple(x1 + x2))
    if isinstance(g1, Scaling):
        return Scaling(g1.lam1 * g2.lam1, g1.lam2 * g2.lam2)
    if isinstance(g1, Phase):
        return Phase(g1.theta + g2.theta)
    if isinstance(g1, GalileanBoost):
        check_length("v", g2.v, len(g1.v))
        return GalileanBoost(tuple(np.asarray(g1.v) + np.asarray(g2.v)))
    raise ValueError(f"unsupported group element {g1!r}")


def symmetry_apply(g, p: ExtremalProfile) -> ExtremalProfile:
    """Closed-form action on profile parameters.

    Derived once from the Fourier-side transformation rules: translation
    sends fhat_{+/-} to exp(+/- i t0 |xi| + i x0 . xi) fhat_{+/-},
    rescaling to lam1 lam2^{-d} fhat(xi/lam2), a phase to
    exp(i theta) fhat.
    """
    d = p.d
    if isinstance(g, Translate):
        x0 = np.zeros(d) if len(g.x0) == 0 else np.asarray(g.x0, dtype=float)
        check_length("x0", x0, d)
        if p.family == WAVE:
            return replace(p, a=p.a + 1j * p.sign * g.t0, b=p.b + 1j * x0)
        return replace(p, a=p.a - 1j * g.t0, b=p.b + 1j * x0)
    if isinstance(g, Scaling):
        checked_positive(g.lam1, "lam1")
        checked_positive(g.lam2, "lam2")
        if p.family == WAVE:
            # |xi| fhat'(xi) = lam1 lam2^{1-d} exp(a|xi|/lam2 + b.xi/lam2 + c)
            c = p.c + math.log(g.lam1) + (1 - d) * math.log(g.lam2)
            return replace(p, a=p.a / g.lam2, b=p.b / g.lam2, c=c)
        c = p.c + math.log(g.lam1) - d * math.log(g.lam2)
        return replace(p, a=p.a / g.lam2 ** 2, b=p.b / g.lam2, c=c)
    if isinstance(g, Phase):
        return replace(p, c=p.c + 1j * g.theta)
    if isinstance(g, GalileanBoost):
        check_case(p.family, d, serves=(SCHRODINGER,))
        v = np.asarray(g.v, dtype=float)
        check_length("v", v, d)
        c = p.c + p.a * float(np.dot(v, v)) + complex(np.dot(p.b, v))
        return replace(p, b=p.b + 2.0 * p.a * v, c=c)
    raise ValueError(f"unsupported group element {g!r}")


# ---------------------------------------------------------------------------
# Flat-record (de)serialisation


def profile_to_record(p: ExtremalProfile) -> str:
    """One-line key=value record (family, d, a, b, c, sign)."""
    def vec(v):
        return ",".join("%.17g" % x for x in v)

    return " ".join(
        [
            f"family={p.family}",
            f"d={p.d}",
            "a_re=%.17g" % p.a.real,
            "a_im=%.17g" % p.a.imag,
            f"b_re={vec(p.b.real)}",
            f"b_im={vec(p.b.imag)}",
            "c_re=%.17g" % p.c.real,
            "c_im=%.17g" % p.c.imag,
            f"sign={p.sign}",
        ]
    )


def profile_from_record(line: str) -> ExtremalProfile:
    fields = dict(item.split("=", 1) for item in line.split())
    d = int(fields["d"])
    b_re = np.array([float(x) for x in fields["b_re"].split(",")])
    b_im = np.array([float(x) for x in fields["b_im"].split(",")])
    return ExtremalProfile(
        family=fields["family"],
        d=d,
        a=complex(float(fields["a_re"]), float(fields["a_im"])),
        b=b_re + 1j * b_im,
        c=complex(float(fields["c_re"]), float(fields["c_im"])),
        sign=int(fields.get("sign", 1)),
    )
