"""Closed-form scalars of the sharp space-time estimates.

Everything that admits an exact formula lives here: unit-sphere areas,
the cone constant C0 = Gamma(d-1)|S^{d-1}|, the interaction exponents
alpha(d,k) and beta(d,k), the sharp bilinear / multilinear constants
W(d,k) (wave) and S(d,k) (Schrodinger), and the collapsed one-function
constants of the alpha=1 / beta=1 cases.

Constants are assembled in log space (log-gamma throughout) and
exponentiated once: magnitudes like (2*pi)**-14 are far from underflow
in doubles, but the log route keeps every factor O(1) and makes the
catalog trivially exportable with its log10 column.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from numbers import Integral

WAVE = "wave"
SCHRODINGER = "schrodinger"
# Lowest dimension of each family's sharp estimates (every k >= 2 holds).
DIM_FLOOR = {WAVE: 2, SCHRODINGER: 1}
FAMILIES = tuple(DIM_FLOOR)

LOG_2PI = math.log(2.0 * math.pi)
LOG_2 = math.log(2.0)


def log_sphere_area(d: int) -> float:
    """log |S^{d-1}| = log 2 + (d/2) log pi - lgamma(d/2)."""
    if d < 1:
        raise ValueError(f"sphere dimension must satisfy d >= 1, got {d}")
    return LOG_2 + 0.5 * d * math.log(math.pi) - math.lgamma(0.5 * d)


def sphere_area(d: int) -> float:
    """Surface measure of the unit sphere S^{d-1} in R^d (|S^1| = 2*pi)."""
    return math.exp(log_sphere_area(d))


def log_cone_c0(d: int) -> float:
    """log C0, C0 = Gamma(d-1) |S^{d-1}| = int_{R^d} |eta|^{-1} e^{-|eta|} d eta."""
    return math.lgamma(d - 1) + log_sphere_area(d)


def whole(value) -> bool:
    """The whole-number rule: an integer, numpy's included, and not a bool."""
    return isinstance(value, Integral) and not isinstance(value, bool)


def check_case(family: str, d: int, k: int = 2, serves=FAMILIES) -> None:
    """The one rule for which case the lab accepts: ValueError naming the bad value
    unless family is known and served, d a whole number >= its DIM_FLOOR, k one >= 2."""
    if family not in DIM_FLOOR:
        raise ValueError(f"unknown family {family!r}, expected one of {FAMILIES}")
    if family not in serves:
        raise ValueError(f"this routine serves the {' and '.join(serves)} family, got {family!r}")
    for name, value, floor in (("d", d, DIM_FLOOR[family]), ("k", k, 2)):
        if not (whole(value) and value >= floor):
            raise ValueError(f"the {family} estimates need an integer {name} >= {floor}, "
                             f"got {name} = {value!r}")


def case_of(items, serves=FAMILIES):
    """(family, d) shared by every profile or field of items, checked by
    check_case; ValueError when items is empty or naming the first pair that differs."""
    cases = [(item.family, item.d) for item in items]
    if not cases:
        raise ValueError("a case needs at least one profile or field")
    case, *rest = cases
    for other in rest:
        if other != case:
            raise ValueError(f"the fields of one case share (family, d), got {case} and {other}")
    check_case(*case, serves=serves)
    return case


def check_length(name: str, vec, d: int) -> None:
    """ValueError unless vec has d coordinates, one per dimension of the case."""
    if len(vec) != d:
        raise ValueError(f"{name} has {len(vec)} coordinates, the case has d = {d}")


def alpha_exponent(d: int, k: int) -> Fraction:
    """Wave interaction exponent (d-1)(k-1)/2 - 1 as an exact rational."""
    check_case(WAVE, d, k)
    return Fraction((d - 1) * (k - 1), 2) - 1


def beta_exponent(d: int, k: int) -> Fraction:
    """Schrodinger interaction exponent d(k-1)/2 - 1 as an exact rational."""
    check_case(SCHRODINGER, d, k)
    return Fraction(d * (k - 1), 2) - 1


def rhs_finite(family: str, d: int, k: int) -> bool:
    """Whether the k-linear right-hand side is finite for data of full support.

    Only a negative exponent e makes the weight K^{2e} singular, and that
    happens at k = 2 alone, where K^2 vanishes quadratically on coincident
    directions (wave: K^2 ~ r1 r2 theta^2 / 2, codimension d - 1) or on
    coincident frequencies (Schrodinger: K^2 = |eta_1 - eta_2|^2,
    codimension d).  K^{2e} is integrable there iff 2e + codimension > 0,
    which fails at wave (2, 2) and Schrodinger (1, 2), both e = -1/2.
    """
    check_case(family, d, k)
    if family == WAVE:
        return 2 * alpha_exponent(d, k) + d - 1 > 0
    return 2 * beta_exponent(d, k) + d > 0


def check_rhs_finite(family: str, d: int, k: int) -> None:
    """ValueError unless (family, d, k) is a case whose k-linear right-hand side
    is finite (rhs_finite)."""
    if not rhs_finite(family, d, k):
        raise ValueError(f"the {family} (d, k) = ({d}, {k}) right-hand side diverges: "
                         "its weight is not integrable at coincident frequencies")


def log_beta_fn(x: float, y: float) -> float:
    if x <= 0 or y <= 0:
        raise ValueError(f"beta function needs positive arguments, got ({x}, {y})")
    return math.lgamma(x) + math.lgamma(y) - math.lgamma(x + y)


def beta_fn(x: float, y: float) -> float:
    """Euler beta B(x, y) = Gamma(x)Gamma(y)/Gamma(x+y) for x, y > 0."""
    return math.exp(log_beta_fn(x, y))


def log_wave_sharp_constant(d: int, k: int) -> float:
    """log W(d,k).

    k = 2:   W = 2^{-(d-1)/2} (2pi)^{-3d+1} |S^{d-1}|
    k >= 3:  W = 2^{-(d-1)(k-1)/2} (2pi)^{-d(2k-1)+1} |S^{d-1}|^{k-1}
                 * prod_{j=2}^{k-1} B(d-1, alpha(j)+1)

    The k = 2 case coincides with the general formula (empty product).
    """
    check_case(WAVE, d, k)
    logv = (
        -0.5 * (d - 1) * (k - 1) * LOG_2
        + (1 - d * (2 * k - 1)) * LOG_2PI
        + (k - 1) * log_sphere_area(d)
    )
    for j in range(2, k):
        logv += log_beta_fn(d - 1, float(alpha_exponent(d, j)) + 1.0)
    return logv


def wave_sharp_constant(d: int, k: int) -> float:
    """Sharp constant W(d,k) of the k-linear one-sided wave estimate.

    At (d,k) = (2,2) the formula value is returned; attainment fails
    there (see EstimateScale.attained), but the inequality itself holds.
    """
    return math.exp(log_wave_sharp_constant(d, k))


def log_schrodinger_sharp_constant(d: int, k: int) -> float:
    """log S(d,k).

    k = 2:   S = 2^{-d} (2pi)^{-3d+1} |S^{d-1}|        (d >= 1)
    general: S = pi (2pi)^{-d(2k-1)} k^{-dk/2+1} |S^{(k-1)d-1}|

    Both expressions agree at k = 2; the bilinear form is used there.
    """
    check_case(SCHRODINGER, d, k)
    if k == 2:
        return -d * LOG_2 + (1 - 3 * d) * LOG_2PI + log_sphere_area(d)
    return log_schrodinger_sharp_constant_klinear(d, k)


def log_schrodinger_sharp_constant_klinear(d: int, k: int) -> float:
    """The general k-linear S(d,k) formula evaluated verbatim (any k >= 2)."""
    check_case(SCHRODINGER, d, k)
    return (
        math.log(math.pi)
        + (-d * (2 * k - 1)) * LOG_2PI
        + (1.0 - 0.5 * d * k) * math.log(k)
        + log_sphere_area((k - 1) * d)
    )


def schrodinger_sharp_constant(d: int, k: int) -> float:
    """Sharp constant S(d,k) of the k-linear Schrodinger estimate."""
    return math.exp(log_schrodinger_sharp_constant(d, k))


def schro_identity_constant() -> float:
    """Constant 1/(2 (2pi)^2) of the d=1 separated-support identity.

    S(1,2) is exactly twice this value: the interaction weight is too
    singular for coincident data, and the factor two is the bilinear
    estimate's loss against the identity.
    """
    return 1.0 / (2.0 * (2.0 * math.pi) ** 2)


# (d, k) pairs with alpha(k) = 1, i.e. the wave one-function L^{2k} cases.
WAVE_ALPHA1_DEGREE = {2: 5, 3: 3, 5: 2}


def onefn_degree(family: str, d: int) -> int:
    """The one lookup of the collapsed one-sided L^{2k} cases: the wave k with
    alpha(d, k) = 1, else ValueError naming family and d (the Schrodinger
    beta = 1 collapse is the d = 4 mixed norm, schro_onefn_constant)."""
    if family != WAVE or d not in WAVE_ALPHA1_DEGREE:
        raise ValueError(f"the one-function case needs the wave family and d in "
                         f"{sorted(WAVE_ALPHA1_DEGREE)}, got {family!r} d = {d!r}")
    return WAVE_ALPHA1_DEGREE[d]


def wave_onefn_constant(d: int) -> float:
    """Collapsed constant C(d) with ||u||_{2k}^{2k} <= C * H^{2(k-2)} E^2.

    Here H = ||f||_{H^{1/2}}^2, E = ||f||_{H^1}^2, k = onefn_degree(WAVE, d),
    and C = k(k-1)/2 * (2pi)^{kd} * W(d,k).  Exact values: C(2) = 5/(12 pi^3),
    C(3) = 3/(16 pi^3), C(5) = 1/(24 pi^2).
    """
    k = onefn_degree(WAVE, d)
    logv = (
        math.log(k * (k - 1) / 2.0)
        + k * d * LOG_2PI
        + log_wave_sharp_constant(d, k)
    )
    return math.exp(logv)


def schro_onefn_constant(d: int = 4) -> float:
    """Collapsed constant of the beta=1 Schrodinger case (d = 4).

    ||u||_4^4 <= 2 (2pi)^{2d} S(d,2) ||f||_2^2 ||grad f||_2^2; at d = 4 the
    constant is 1/(32 pi).
    """
    if beta_exponent(d, 2) != 1:
        raise ValueError(f"beta(2) = 1 requires d = 4, got d = {d}")
    return math.exp(math.log(2.0) + 2 * d * LOG_2PI + log_schrodinger_sharp_constant(d, 2))


@dataclass(frozen=True)
class EstimateScale:
    """A (d, k, family) triple naming one sharp estimate."""

    d: int
    k: int
    family: str

    def __post_init__(self):
        check_case(self.family, self.d, self.k)

    @property
    def exponent(self) -> Fraction:
        if self.family == WAVE:
            return alpha_exponent(self.d, self.k)
        return beta_exponent(self.d, self.k)

    @property
    def log_sharp_constant(self) -> float:
        """log W(d,k) or log S(d,k), whichever the family names."""
        if self.family == WAVE:
            return log_wave_sharp_constant(self.d, self.k)
        return log_schrodinger_sharp_constant(self.d, self.k)

    @property
    def sharp_constant(self) -> float:
        return math.exp(self.log_sharp_constant)

    @property
    def attained(self) -> bool:
        """False only for the (2,2) wave case: the constant is not attained
        there (the right-hand side diverges for coincident extremal-type
        data), though the inequality itself holds."""
        return not (self.family == WAVE and (self.d, self.k) == (2, 2))


def constants_rows(ds, ks, families=FAMILIES):
    """Catalog rows for the CSV export, one per valid (family, d, k)."""
    rows = []
    for family in families:
        for d in ds:
            for k in ks:
                try:
                    scale = EstimateScale(d, k, family)
                except ValueError:
                    continue
                logc = scale.log_sharp_constant
                rows.append(
                    {
                        "family": family,
                        "d": d,
                        "k": k,
                        "exponent": float(scale.exponent),
                        "constant": math.exp(logc),
                        "log10_constant": logc / math.log(10.0),
                    }
                )
    return rows


def write_constants_csv(path, rows):
    """Write catalog rows (from constants_rows) with 15 significant digits."""
    with open(path, "w") as fh:
        fh.write("family,d,k,exponent,constant,log10_constant\n")
        for row in rows:
            fh.write(
                "%s,%d,%d,%.15g,%.15g,%.15g\n"
                % (
                    row["family"],
                    row["d"],
                    row["k"],
                    row["exponent"],
                    row["constant"],
                    row["log10_constant"],
                )
            )
