"""Closed-form constants against independent high-precision evaluation."""

import ast
import math
from fractions import Fraction
from pathlib import Path

import mpmath
import numpy as np
import pytest

from strichartz_lab import constants as C
from strichartz_lab import functionals as FN
from strichartz_lab import geometry as G
from strichartz_lab import mc as MC
from strichartz_lab import profiles as P
from strichartz_lab import propagators as PR
from strichartz_lab import shells as SH
from strichartz_lab.geometry import ConePoint
from strichartz_lab.search import AnsatzProfile


def test_sphere_areas_known_values():
    assert C.sphere_area(2) == pytest.approx(2 * math.pi, rel=1e-14)
    assert C.sphere_area(3) == pytest.approx(4 * math.pi, rel=1e-14)
    assert C.sphere_area(5) == pytest.approx(8 * math.pi ** 2 / 3, rel=1e-12)


@pytest.mark.parametrize("d", range(2, 10))
def test_closed_form_kappa_is_the_cone_constant_over_2pi_to_the_d(d):
    # kappa_d = Gamma((d+1)/2) / ((d-1) pi^{(d+1)/2}) = C0 / (2pi)^d by the
    # duplication formula; C0 = Gamma(d-1)|S^{d-1}| against mpmath too.
    c0 = math.exp(C.log_cone_c0(d))
    assert PR.closed_form_kappa(d) * (2.0 * math.pi) ** d == pytest.approx(c0, rel=2e-15, abs=0.0)
    with mpmath.workdps(30):
        half = mpmath.mpf(d) / 2
        want = mpmath.gamma(d - 1) * 2 * mpmath.pi ** half / mpmath.gamma(half)
    assert c0 == pytest.approx(float(want), rel=1e-14, abs=0.0)


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


def test_rhs_finite_is_the_time_integrability_rule_of_the_lhs():
    # ||prod_{j<=k} u_j||_2^2 has slices decaying like |t|^{-(d-1)(k-1)} (wave)
    # or |t|^{-d(k-1)} (Schrodinger); lp_norm_radial wrote that exponent rule
    # out before it read rhs_finite.  The two agree on every accepted case.
    for d in range(1, 10):
        for k in range(2, 7):
            if d >= 2:
                assert C.rhs_finite(C.WAVE, d, k) == ((d - 1) * (k - 1) > 1)
            assert C.rhs_finite(C.SCHRODINGER, d, k) == (d * (k - 1) > 1)


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


def _floor_comparisons(tree):
    """Lines comparing a dimension d (a name or a .d attribute) with 1 or 2
    by <, <=, > or >=: a dimension floor written out."""
    ordered = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
    for node in ast.walk(tree):
        if not isinstance(node, ast.Compare):
            continue
        operands = [node.left, *node.comparators]
        names = {getattr(n, "id", getattr(n, "attr", None)) for n in operands}
        floors = {n.value for n in operands if isinstance(n, ast.Constant)} & {1, 2}
        if "d" in names and floors and any(isinstance(op, ordered) for op in node.ops):
            yield node.lineno


def test_case_rule_is_written_only_in_constants():
    # One owner decides which (family, d, k) is a case: no other module
    # names an unknown family or writes a dimension floor of its own.
    src = Path(C.__file__).parent
    owners = sorted(p.name for p in src.glob("*.py") if "unknown family" in p.read_text())
    assert owners == ["constants.py"]
    floors = {p.name: list(_floor_comparisons(ast.parse(p.read_text())))
              for p in src.glob("*.py") if p.name != "constants.py"}
    assert not {name: lines for name, lines in floors.items() if lines}
    assert not [p.name for p in src.glob("*.py")
                if "minimum_d" in p.read_text() or "_check_scale" in p.read_text()]
    assert C.FAMILIES == tuple(C.DIM_FLOOR) == (C.WAVE, C.SCHRODINGER)


def _radial(r):
    return np.exp(-np.asarray(r) ** 2)


@pytest.mark.parametrize("build, bad", [
    (lambda: P.ExtremalProfile(C.WAVE, 0, -1.0), "d = 0"),
    (lambda: P.ExtremalProfile(C.WAVE, 1, -1.0), "d = 1"),
    (lambda: P.ExtremalProfile(C.SCHRODINGER, 0, -1.0), "d = 0"),
    (lambda: AnsatzProfile([0.0], 1, C.WAVE), "d = 1"),
    (lambda: PR.RadialEvaluator(radial_fn=_radial, decay=1.0, d=3, family="heat"), "'heat'"),
    (lambda: SH.itilde_montecarlo(3, 1, ConePoint(1.0, np.zeros(3))), "k = 1"),
    (lambda: FN.onesided_quotient(P.schrodinger_profile(3, -1.0)), "'schrodinger'"),
    (lambda: FN.multilinear_rhs([P.wave_profile(3, -1.0)]), "k = 1"),
], ids=["wave_d0", "wave_d1", "schro_d0", "ansatz_wave_d1", "evaluator_heat",
        "montecarlo_k1", "onesided_schro", "multilinear_rhs_k1"])
def test_out_of_domain_inputs_raise_naming_the_bad_value(build, bad):
    # Each of these once returned a plausible number (or an IndexError).
    with pytest.raises(ValueError, match=bad):
        build()


def test_one_lookup_decides_the_one_function_case():
    assert [C.onefn_degree(C.WAVE, d) for d in (2, 3, 5)] == [5, 3, 2]
    messages = set()
    for call in (lambda: C.wave_onefn_constant(4),
                 lambda: FN.term_II(P.wave_profile(4, -1.0)),
                 lambda: FN.onesided_quotient(P.wave_profile(4, -1.0))):
        with pytest.raises(ValueError) as err:
            call()
        messages.add(str(err.value))
    with pytest.raises(ValueError) as want:
        C.onefn_degree(C.WAVE, 4)
    assert messages == {str(want.value)}


_W3, _W5 = P.wave_profile(3, -1.0), P.wave_profile(5, -1.0)
_U3, _U5 = PR.RadialEvaluator(_W3), PR.RadialEvaluator(_W5)
_S5_PAIR = (P.ExtremalProfile(C.SCHRODINGER, 5, -1.0, sign=1),
            P.ExtremalProfile(C.SCHRODINGER, 5, -1.0, sign=-1))
_MIXED = r"share \(family, d\), got "
_SERVES_WAVE = "serves the wave family, got 'schrodinger'"
_EMPTY = "a case needs at least one profile or field"


@pytest.mark.parametrize("call, bad", [
    (lambda: FN.product_l2_sq([_U3, _U5]), _MIXED + r"\('wave', 3\) and \('wave', 5\)"),
    (lambda: FN.product_l2_sq([_U5, _U3]), _MIXED + r"\('wave', 5\) and \('wave', 3\)"),
    (lambda: FN.product_l2_sq([_U5, PR.RadialEvaluator(P.schrodinger_profile(5, -1.0))]),
     _MIXED + r"\('wave', 5\) and \('schrodinger', 5\)"),
    (lambda: FN.MappedEvaluator(np.add, _U3, _U5), _MIXED + r"\('wave', 3\) and \('wave', 5\)"),
    (lambda: FN.orthogonal_split_check(_W3, P.wave_profile(5, -1.0, sign=-1)),
     _MIXED + r"\('wave', 3\) and \('wave', 5\)"),
    (lambda: FN.orthogonal_split_check(*_S5_PAIR), _SERVES_WAVE),
    (lambda: FN.energy_quotient(*_S5_PAIR), _SERVES_WAVE),
    (lambda: PR.wave_center_value(P.schrodinger_profile(5, -1.0), 0.3), _SERVES_WAVE),
    (lambda: PR.lambda_amplitude(P.wave_profile(5, -1.0, b=(0, 0.3j, 0, 0, 0)), 0.0, [1.0]),
     "x has 1 coordinates, the case has d = 5"),
    (lambda: P.compose(P.Translate(0.0, (1.0,)), P.Translate(0.0, (1.0, 2.0, 3.0))),
     "x0 has 3 coordinates, the case has d = 1"),
    (lambda: P.compose(P.GalileanBoost((0.1,)), P.GalileanBoost((0.1, 0.2, 0.3, 0.4))),
     "v has 4 coordinates, the case has d = 1"),
    (lambda: G.galilean_map([0.5], ConePoint(1.0, [0.0, 0.0, 0.0])),
     "v has 1 coordinates, the case has d = 3"),
    (lambda: FN.multilinear_rhs([_W3, _W5], n_samples=10 ** 4),
     _MIXED + r"\('wave', 3\) and \('wave', 5\)"),
    (lambda: FN.product_l2_sq([]), _EMPTY),
    (lambda: FN.spacetime_integral(lambda t, r: t * r, []), _EMPTY),
    (lambda: FN.MappedEvaluator(np.add), _EMPTY),
], ids=["product_d3_d5", "product_d5_d3", "product_wave_schro", "mapped_d3_d5",
        "split_check_d3_d5", "split_check_schro", "energy_quotient_schro",
        "center_value_schro", "lambda_amplitude_short_x", "compose_translate",
        "compose_galilean", "galilean_map", "multilinear_rhs_d3_d5", "product_empty",
        "spacetime_integral_empty", "mapped_empty"])
def test_every_routine_that_takes_a_case_applies_the_case_rule(call, bad):
    # Each of these once returned a number (a d = 3 field read as d = 5, a
    # Schrodinger pair scored against the wave constant), a sum of vectors
    # of two lengths, a numpy shape error or another message; an empty case
    # failed with a bare unpacking error.
    with pytest.raises(ValueError, match=bad):
        call()


@pytest.mark.parametrize("call, bad", [
    (lambda: P.ExtremalProfile(C.WAVE, 3, -1.0, b=np.zeros(2)),
     "b has 2 coordinates, the case has d = 3"),
    (lambda: P.symmetry_apply(P.Translate(0.0, (1.0,)), _W3),
     "x0 has 1 coordinates, the case has d = 3"),
    (lambda: P.symmetry_apply(P.GalileanBoost((0.1,) * 3), _W3),
     "serves the schrodinger family, got 'wave'"),
    (lambda: P.symmetry_apply(P.GalileanBoost((0.1,)), P.schrodinger_profile(3, -1.0)),
     "v has 1 coordinates, the case has d = 3"),
    (lambda: PR.schro_gaussian_eval(_W3, 0.0, np.zeros(3)),
     "serves the schrodinger family, got 'wave'"),
    (lambda: PR.schro_gaussian_eval(P.schrodinger_profile(3, -1.0), 0.0, np.zeros(2)),
     "x has 2 coordinates, the case has d = 3"),
    (lambda: PR.lambda_diagnostics(P.schrodinger_profile(5, -1.0)), _SERVES_WAVE),
    (lambda: FN.gaussian_l4_norm(_W3), "serves the schrodinger family, got 'wave'"),
    (lambda: FN.radial_pair_rhs(*_S5_PAIR), _SERVES_WAVE),
    (lambda: FN.radial_pair_rhs(_W3, _W5), _MIXED + r"\('wave', 3\) and \('wave', 5\)"),
    (lambda: G.lorentz_boost([0.1, 0.2], ConePoint(1.0, np.zeros(3))),
     "v has 2 coordinates, the case has d = 3"),
], ids=["profile_b", "translate", "galilean_wave", "galilean_short_v", "gaussian_wave",
        "gaussian_short_x", "diagnostics_schro", "l4_norm_wave", "pair_rhs_schro",
        "pair_rhs_d3_d5", "lorentz_boost"])
def test_replaced_checks_raise_the_rule_messages(call, bad):
    with pytest.raises(ValueError, match=bad):
        call()


# The messages the case rule replaced, one per ad-hoc check that wrote it.
_REPLACED = ["tilt vector b must have length d", "translation vector has wrong dimension",
             "Galilean boosts act on the Schrodinger family only",
             "boost vector has wrong dimension", "needs a Schrodinger-family profile",
             "point dimension mismatch", "diagnostics implemented for d = 5 wave profiles",
             "needs a Schrodinger profile", "profiles must share dimension and family",
             "the closed form needs two wave profiles of one d",
             "boost velocity and point dimension mismatch"]


def _length_comparisons(tree):
    """Lines comparing a len(), .size or .shape with a bare d or a .d attribute:
    a vector-length rule written out."""
    def sized(n):
        if isinstance(n, ast.Subscript):
            n = n.value
        return ((isinstance(n, ast.Call) and getattr(n.func, "id", None) == "len")
                or (isinstance(n, ast.Attribute) and n.attr in ("size", "shape")))

    def dim(n):
        return getattr(n, "id", getattr(n, "attr", None)) == "d"

    for node in ast.walk(tree):
        if isinstance(node, ast.Compare):
            operands = [node.left, *node.comparators]
            if any(map(sized, operands)) and any(map(dim, operands)):
                yield node.lineno


@pytest.mark.parametrize("call, bad", [
    (lambda: C.check_case(C.SCHRODINGER, True), "integer d >= 1, got d = True"),
    (lambda: P.schrodinger_profile(True, -1.0), "integer d >= 1, got d = True"),
    (lambda: MC.mc_mean(lambda rng, m: np.ones(m), True, 0), "samples >= 1, got True"),
    (lambda: FN.spacetime_integral(lambda t, r: t * r, [_U5], max_levels=2.5),
     "integer >= 1, got 2.5"),
    (lambda: FN.spacetime_integral(lambda t, r: t * r, [_U5], max_levels=True),
     "integer >= 1, got True"),
    (lambda: MC.chunk_generator(1.5, 0), "whole number, got seed = 1.5"),
    (lambda: MC.chunk_generator(True, 0), "whole number, got seed = True"),
    (lambda: PR.check_grid_size(4096.0), "power of two >= 256, got 4096.0"),
    (lambda: FN.schro_identity_check(n=4096.0), "power of two >= 256, got 4096.0"),
    (lambda: PR.Grid1D(256.0, 1.0), "power of two >= 256, got 256.0"),
    (lambda: P.wave_profile(3, -1.0, sign=True), r"sign must be \+1 or -1"),
    (lambda: P.wave_profile(3, -1.0, sign=1.0), r"sign must be \+1 or -1"),
], ids=["check_case_d", "schrodinger_profile_d", "mc_mean_n", "max_levels_float",
        "max_levels_bool", "seed_float", "seed_bool", "grid_size_float",
        "schro_identity_check_n_float", "grid1d_n_float", "sign_bool", "sign_float"])
def test_counts_and_cases_reject_bools_and_non_integers(call, bad):
    # A bool is an Integral: d = True once passed as a Schrodinger d = 1 and
    # failed later in np.zeros, n = True ran one sample with an infinite
    # stderr, max_levels = True ran one level and 2.5 failed inside range.
    # seed = True ran seed 1 and 1.5 failed in &, a float grid size failed
    # in &, and sign = True or 1.0 wrote a record profile_from_record refused.
    with pytest.raises(ValueError, match=bad):
        call()


def test_served_family_shared_case_and_vector_length_are_written_only_in_constants():
    src = Path(C.__file__).parent
    texts = {p.name: p.read_text() for p in src.glob("*.py")}
    for message in ("this routine serves the", "the fields of one case share",
                    "coordinates, the case has d ="):
        assert [name for name, text in texts.items() if message in text] == ["constants.py"]
    assert not [(name, m) for name, text in texts.items() for m in _REPLACED if m in text]
    lengths = {name: list(_length_comparisons(ast.parse(text)))
               for name, text in texts.items() if name != "constants.py"}
    assert not {name: lines for name, lines in lengths.items() if lines}
