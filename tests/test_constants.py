"""Closed-form constants against independent high-precision evaluation."""

import math
from fractions import Fraction

import mpmath
import numpy as np
import pytest

from strichartz_lab import constants as C


def test_sphere_areas_known_values():
    assert C.sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert C.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert C.sphere_area(5) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-12)


def test_sphere_area_high_precision_sweep():
    mpmath.mp.dps = 40
    for d in range(1, 13):
        want = 2 * mpmath.pi ** (d / 2.0) / mpmath.gamma(d / 2.0)
        assert abs(C.sphere_area(d) - float(want)) <= 1e-13 * float(want)


def test_sphere_area_domain_error():
    with pytest.raises(ValueError):
        C.sphere_area(0)
    with pytest.raises(ValueError):
        C.log_sphere_area(-3)


def test_alpha_exponent_catalog():
    assert C.alpha_exponent(3, 2) == 0
    assert C.alpha_exponent(2, 3) == 0
    assert C.alpha_exponent(5, 2) == 1
    assert C.alpha_exponent(3, 3) == 1
    assert C.alpha_exponent(2, 5) == 1
    assert C.alpha_exponent(2, 2) == Fraction(-1, 2)


def test_beta_exponent_values():
    assert C.beta_exponent(2, 2) == 0
    assert C.beta_exponent(1, 2) == Fraction(-1, 2)
    assert C.beta_exponent(4, 2) == 1


def test_rhs_is_finite_except_at_the_two_negative_exponents():
    for family, d_min in ((C.WAVE, 2), (C.SCHRODINGER, 1)):
        for d in range(d_min, 7):
            for k in range(2, 6):
                divergent = (family, d, k) in ((C.WAVE, 2, 2), (C.SCHRODINGER, 1, 2))
                assert C.rhs_finite(family, d, k) is not divergent
                assert divergent == (C.EstimateScale(d, k, family).exponent < 0)


def test_exponent_validation():
    with pytest.raises(ValueError):
        C.alpha_exponent(0, 2)
    with pytest.raises(ValueError):
        C.beta_exponent(3, 1)


def test_wave_constants_exact_cases():
    assert C.wave_sharp_constant(3, 2) == pytest.approx((2 * math.pi) ** -7, rel=1e-13)
    assert C.wave_sharp_constant(2, 3) == pytest.approx((2 * math.pi) ** -7, rel=1e-13)
    want52 = 2 ** -2 * (2 * math.pi) ** -14 * (8 * math.pi ** 2 / 3)
    assert C.wave_sharp_constant(5, 2) == pytest.approx(want52, rel=1e-13)


def test_schrodinger_constants_exact_cases():
    assert C.schrodinger_sharp_constant(1, 2) == pytest.approx((2 * math.pi) ** -2, rel=1e-14)
    assert C.schrodinger_sharp_constant(2, 2) == pytest.approx(1 / (64 * math.pi ** 4), rel=1e-13)
    want42 = 2 ** -4 * (2 * math.pi) ** -11 * (2 * math.pi ** 2)
    assert C.schrodinger_sharp_constant(4, 2) == pytest.approx(want42, rel=1e-13)


def test_schro_identity_constant_is_half_s12():
    assert C.schrodinger_sharp_constant(1, 2) == pytest.approx(
        2.0 * C.schro_identity_constant(), rel=1e-15
    )


def test_wave_formula_consistency_k2():
    # The k-linear formula with an empty beta product at k = 2 must agree
    # with the bilinear formula for all 2 <= d <= 12.
    for d in range(2, 13):
        general = math.exp(
            -0.5 * (d - 1) * math.log(2)
            + (1 - 3 * d) * C.LOG_2PI
            + C.log_sphere_area(d)
        )
        assert C.wave_sharp_constant(d, 2) == pytest.approx(general, rel=1e-12)


def test_schrodinger_formula_consistency_k2():
    for d in range(1, 13):
        via_klinear = math.exp(C.log_schrodinger_sharp_constant_klinear(d, 2))
        assert C.schrodinger_sharp_constant(d, 2) == pytest.approx(via_klinear, rel=1e-12)


def _mp_wave_constant(d, k):
    mpmath.mp.dps = 50
    if k == 2:
        return 2 ** mpmath.mpf(-(d - 1) / 2.0) * (2 * mpmath.pi) ** (-3 * d + 1) * (
            2 * mpmath.pi ** (d / 2.0) / mpmath.gamma(d / 2.0)
        )
    area = 2 * mpmath.pi ** (d / 2.0) / mpmath.gamma(d / 2.0)
    val = (
        mpmath.mpf(2) ** (-mpmath.mpf((d - 1) * (k - 1)) / 2)
        * (2 * mpmath.pi) ** (-d * (2 * k - 1) + 1)
        * area ** (k - 1)
    )
    for j in range(2, k):
        alpha_j = mpmath.mpf((d - 1) * (j - 1)) / 2 - 1
        val *= mpmath.beta(d - 1, alpha_j + 1)
    return val


def _mp_schro_constant(d, k):
    mpmath.mp.dps = 50
    if k == 2:
        area = 2 * mpmath.pi ** (d / 2.0) / mpmath.gamma(d / 2.0)
        return mpmath.mpf(2) ** (-d) * (2 * mpmath.pi) ** (-3 * d + 1) * area
    area = 2 * mpmath.pi ** ((k - 1) * d / 2.0) / mpmath.gamma((k - 1) * d / 2.0)
    return (
        mpmath.pi
        * (2 * mpmath.pi) ** (-d * (2 * k - 1))
        * mpmath.mpf(k) ** (-mpmath.mpf(d * k) / 2 + 1)
        * area
    )


def test_constants_vs_direct_product_path():
    # Log-gamma path vs direct high-precision product path, 1e-12 relative.
    for d in range(2, 7):
        for k in range(2, 5):
            want = float(_mp_wave_constant(d, k))
            assert abs(C.wave_sharp_constant(d, k) - want) <= 1e-12 * want
            want_s = float(_mp_schro_constant(d, k))
            assert abs(C.schrodinger_sharp_constant(d, k) - want_s) <= 1e-12 * want_s


def test_onefn_constants():
    assert C.wave_onefn_constant(5) == pytest.approx(1 / (24 * math.pi ** 2), rel=1e-13)
    assert C.wave_onefn_constant(3) == pytest.approx(3 / (16 * math.pi ** 3), rel=1e-13)
    assert C.wave_onefn_constant(2) == pytest.approx(5 / (12 * math.pi ** 3), rel=1e-13)
    assert C.schro_onefn_constant(4) == pytest.approx(1 / (32 * math.pi), rel=1e-13)
    with pytest.raises(ValueError):
        C.wave_onefn_constant(4)
    with pytest.raises(ValueError):
        C.schro_onefn_constant(3)


def test_beta_fn_against_quadrature():
    # B(x, y) vs direct quadrature of the defining integral on a grid of
    # (x, y) in [1/2, 6]^2; the s = sin^2(theta) substitution removes the
    # endpoint singularities for x, y >= 1/2.
    from scipy import integrate

    for x in np.linspace(0.5, 6.0, 6):
        for y in np.linspace(0.5, 6.0, 6):
            fn = lambda th: 2.0 * math.sin(th) ** (2 * x - 1) * math.cos(th) ** (2 * y - 1)
            val, _ = integrate.quad(fn, 0.0, math.pi / 2, epsabs=1e-13, epsrel=1e-12)
            assert abs(C.beta_fn(x, y) - val) <= 1e-9 * abs(val)


def test_beta_fn_domain():
    with pytest.raises(ValueError):
        C.beta_fn(0.0, 1.0)


def test_estimate_scale_flags_and_validation():
    assert not C.EstimateScale(2, 2, C.WAVE).attained
    assert C.EstimateScale(3, 2, C.WAVE).attained
    assert C.EstimateScale(1, 2, C.SCHRODINGER).attained
    assert C.EstimateScale(5, 2, C.WAVE).exponent == 1
    with pytest.raises(ValueError):
        C.EstimateScale(1, 2, C.WAVE)  # wave needs d >= 2
    with pytest.raises(ValueError):
        C.EstimateScale(3, 1, C.WAVE)
    with pytest.raises(ValueError):
        C.EstimateScale(3, 2, "heat")


def test_constants_csv_export(tmp_path):
    path = tmp_path / "constants.csv"
    rows = C.constants_rows(range(2, 7), range(2, 5))
    C.write_constants_csv(path, rows)
    text = path.read_text().splitlines()
    assert text[0] == "family,d,k,exponent,constant,log10_constant"
    assert len(text) == len(rows) + 1
    # 15 significant digits survive a round trip.
    sample = text[1].split(",")
    assert float(sample[4]) == pytest.approx(rows[0]["constant"], rel=1e-14)
    # wave d >= 2 only, schrodinger from d = 2 here per default range
    assert all(r["family"] in C.FAMILIES for r in rows)
