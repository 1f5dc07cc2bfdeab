"""Extremal profiles: norms, admissibility, splitting, symmetries."""

import ast
import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

import strichartz_lab
from strichartz_lab import profiles as P
from strichartz_lab import propagators as PR
from strichartz_lab.constants import WAVE, SCHRODINGER, sphere_area
from strichartz_lab.quadrules import angular_nodes


def test_profile_validation():
    with pytest.raises(ValueError):
        P.wave_profile(3, 0.5)  # Re(a) must be negative
    with pytest.raises(ValueError):
        P.ExtremalProfile("heat", 3, -1.0)
    with pytest.raises(ValueError):
        P.ExtremalProfile(WAVE, 3, -1.0, b=np.zeros(2))
    p = P.wave_profile(3, -1.0 + 2.0j)
    assert p.decay == 1.0 and p.admissible


def test_decay_rule_is_written_only_in_profiles():
    src = Path(strichartz_lab.__file__).parent
    owners = sorted(p.name for p in src.glob("*.py")
                    if "must be finite and > 0" in p.read_text())
    assert owners == ["profiles.py"]
    assert not [p.name for p in src.glob("*.py") if "def checked_decay" in p.read_text()]


def test_cone_constant_and_wave_moment_have_one_owner():
    # C0 = Gamma(d-1)|S^{d-1}| is written in constants (log_cone_c0), and the
    # tilted angular integrand of the wave polar moment in profiles (wave_moment).
    src = Path(strichartz_lab.__file__).parent
    for pattern, owner in ((r"lgamma\(d - 1\)", "constants.py"),
                           (r"\(sigma - beta \* u\)", "profiles.py")):
        writers = sorted(p.name for p in src.glob("*.py") if re.search(pattern, p.read_text()))
        assert writers == [owner], pattern


@pytest.mark.parametrize("d", [3, 5])
@pytest.mark.parametrize("ratio", [0.3, 0.9, 0.99])
def test_wave_moment_angular_rule_matches_a_finer_rule(d, ratio):
    # V = int |fhat|^2 |xi| xi.e dxi on the shared 200-node angular rule
    # against the same integral on 800 nodes.
    sigma = 1.3
    p = P.wave_profile(d, -sigma, b=[ratio * sigma] + [0.0] * (d - 1), c=0.2)
    u, w = angular_nodes(d, 800)
    ang = np.dot(w, u * (2.0 * (sigma - ratio * sigma * u)) ** (-float(d)))
    want = math.exp(0.4) * sphere_area(d - 1) * math.gamma(d) * ang
    assert P.wave_moment(p, d, odd=True) == pytest.approx(want, rel=1e-13, abs=0.0)


_GOOD_RECORD = P.profile_to_record(P.wave_profile(3, -1.0))


@pytest.mark.parametrize("build, name", [
    (lambda: P.wave_profile(3, complex(-1.0, math.nan)), "Im a"),
    (lambda: P.wave_profile(3, -1.0, c=math.inf), "c"),
    (lambda: P.wave_profile(3, -1.0, c=complex(0.0, math.nan)), "c"),
    (lambda: P.wave_profile(3, -1.0, b=[math.nan, 0.0, 0.0]), "b[0]"),
    (lambda: P.schrodinger_profile(3, -1.0, b=[0.0, 0.0, complex(0.0, math.inf)]), "b[2]"),
    (lambda: P.profile_from_record(_GOOD_RECORD.replace("c_re=0", "c_re=nan")), "c"),
    (lambda: P.symmetry_apply(P.Phase(math.inf), P.wave_profile(3, -1.0)), "c"),
    (lambda: P.symmetry_apply(P.Translate(t0=math.nan), P.wave_profile(3, -1.0)), "Im a"),
], ids=["im_a", "c_inf", "c_nan", "b_nan", "b_inf_schro", "record", "phase", "translate"])
def test_non_finite_parameters_are_rejected_by_name(build, name):
    with pytest.raises(ValueError, match="^" + re.escape(name) + " must be finite"):
        build()


@pytest.mark.parametrize("name", ["lam1", "lam2"])
@pytest.mark.parametrize("bad", [0.0, -1.0, math.inf, math.nan])
def test_scaling_rejects_a_factor_that_is_not_finite_and_positive(name, bad):
    with pytest.raises(ValueError, match=name):
        P.symmetry_apply(P.Scaling(**{name: bad}), P.wave_profile(3, -1.0))


def test_no_module_imports_inside_a_function():
    # Imports sit at module top, so the import graph is the one the
    # module headers show: profiles does not reach back into propagators.
    src = Path(strichartz_lab.__file__).parent
    local = set()
    for path in sorted(src.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                local |= {f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                          if isinstance(node, (ast.Import, ast.ImportFrom))}
    assert sorted(local) == []


def test_admissibility_boundary():
    assert P.wave_profile(5, -1.0, b=np.array([0.99, 0, 0, 0, 0])).admissible
    assert not P.wave_profile(5, -1.0, b=np.array([1.0, 0, 0, 0, 0])).admissible
    assert P.schrodinger_profile(3, -0.2, b=np.array([9.0, 0, 0])).admissible


def test_sobolev_wave_closed_values():
    p5 = P.wave_profile(5, -1.0)
    assert P.sobolev_norm_sq(p5, 1.0) == pytest.approx(1 / (16 * math.pi ** 3), rel=1e-12)
    p3 = P.wave_profile(3, -1.0)
    assert P.sobolev_norm_sq(p3, 0.5) == pytest.approx(1 / (8 * math.pi ** 2), rel=1e-12)


def test_sobolev_wave_quadrature_oracle():
    # Independent oracle: adaptive 1-D quadrature of the radial reduction.
    p = P.wave_profile(5, -1.3, c=0.2)
    for s in (0.5, 1.0, 1.7):
        fn = lambda r: math.exp(-2 * 1.3 * r + 0.4) * r ** (2 * s + 2)
        val, _ = integrate.quad(fn, 0, 80, epsabs=1e-14, epsrel=1e-12)
        want = sphere_area(5) * val / (2 * math.pi) ** 5
        assert P.sobolev_norm_sq(p, s) == pytest.approx(want, rel=1e-10)


def test_sobolev_tilted_wave_2d_oracle():
    # 2-D (r, u) quadrature of the polar reduction, tilt along an axis.
    beta, sigma, d, s = 0.45, 1.0, 5, 1.0
    p = P.wave_profile(d, -sigma, b=np.array([beta, 0, 0, 0, 0]))

    def inner(u):
        fn = lambda r: math.exp(2 * (-sigma + beta * u) * r) * r ** (2 * s + d - 3)
        val, _ = integrate.quad(fn, 0, 200, epsabs=1e-14, epsrel=1e-12)
        return val * (1 - u * u) ** ((d - 3) / 2)

    val, _ = integrate.quad(inner, -1, 1, epsabs=1e-13, epsrel=1e-11)
    want = sphere_area(d - 1) * val / (2 * math.pi) ** d
    assert P.sobolev_norm_sq(p, s) == pytest.approx(want, rel=1e-9)


def test_sobolev_divergence_flag():
    p = P.wave_profile(5, -1.0, b=np.array([1.0, 0, 0, 0, 0]))
    assert math.isinf(P.sobolev_norm_sq(p, 1.0))
    worse = P.wave_profile(5, -1.0, b=np.array([1.2, 0, 0, 0, 0]))
    assert math.isinf(P.sobolev_norm_sq(worse, 0.5))


def test_sobolev_admissibility_monotonicity():
    rng = np.random.default_rng(17)
    for _ in range(25):
        sigma = 0.5 + rng.random()
        beta = rng.random() * 1.5 * sigma
        b = np.zeros(5)
        b[0] = beta
        p = P.wave_profile(5, -sigma, b=b)
        finite = [not math.isinf(P.sobolev_norm_sq(p, s)) for s in (0.5, 1.0, 2.0)]
        if beta < sigma:
            assert all(finite)
        else:
            assert not any(finite)


def test_sobolev_schrodinger_values():
    p = P.schrodinger_profile(4, -1.0)
    assert P.sobolev_norm_sq(p, 0.0) == pytest.approx(1 / (64 * math.pi ** 2), rel=1e-12)
    assert P.sobolev_norm_sq(p, 1.0) == pytest.approx(1 / (64 * math.pi ** 2), rel=1e-12)
    # General-s quadrature path against the Gamma closed form at b = 0:
    # (2pi)^{-d} |S^{d-1}| Gamma(s + d/2) / (2 (2 sigma)^{s + d/2}).
    for s in (0.5, 1.5):
        want = (
            sphere_area(4)
            * math.gamma(s + 2.0) / (2.0 * 2.0 ** (s + 2.0))
            / (2 * math.pi) ** 4
        )
        assert P.sobolev_norm_sq(p, s) == pytest.approx(want, rel=1e-9)


@pytest.mark.parametrize("s", [0.5, 1.5])
def test_sobolev_schrodinger_d1_quadrature_path(s):
    # d = 1 has no angular factor: at b = 0 the radial quadrature equals
    # e^{2 Re c} Gamma(s + 1/2) / (2 sigma)^{s + 1/2} / (2 pi).
    sigma, c = 0.7, 0.3
    p = P.schrodinger_profile(1, -sigma, c=c)
    want = math.exp(2.0 * c) * math.gamma(s + 0.5) / (2.0 * sigma) ** (s + 0.5) / (2 * math.pi)
    assert P.sobolev_norm_sq(p, s) == pytest.approx(want, rel=1e-12)
    # A real tilt makes the two half-lines unequal: check against the
    # line integral (2 pi)^{-1} int |xi|^{2s} e^{-2 sigma xi^2 + 2 beta xi}.
    beta = 0.9
    tilted = P.schrodinger_profile(1, -sigma, b=np.array([beta]), c=c)
    f = lambda x: abs(x) ** (2 * s) * math.exp(-2 * sigma * x * x + 2 * beta * x)
    line = integrate.quad(f, -np.inf, 0.0)[0] + integrate.quad(f, 0.0, np.inf)[0]
    want_t = math.exp(2.0 * c) * line / (2 * math.pi)
    assert P.sobolev_norm_sq(tilted, s) == pytest.approx(want_t, rel=1e-10)


def test_sobolev_wave_precondition():
    with pytest.raises(ValueError):
        P.sobolev_norm_sq(P.wave_profile(3, -1.0), 0.3)


def test_data_split_examples():
    u0 = lambda r: np.exp(-r)
    zero = lambda r: np.zeros_like(np.asarray(r, dtype=float))
    fp, fm = P.data_split(P.CauchyData(u0, zero, 3))
    r = np.linspace(0.1, 5, 40)
    assert np.allclose(fp(r), 0.5 * np.exp(-r))
    assert np.allclose(fm(r), 0.5 * np.exp(-r))
    # (0, c0 e^{-|xi|}): |xi| fhat_pm = +/- c0 e^{-|xi|} / (2i)
    c0 = 1.7
    vel = lambda rr: c0 * np.exp(-rr)
    fp2, fm2 = P.data_split(P.CauchyData(zero, vel, 3))
    want = c0 * np.exp(-r) / (2.0 * 1j)
    assert np.allclose(r * fp2(r), want, atol=1e-14)
    assert np.allclose(r * fm2(r), -want, atol=1e-14)


def test_data_split_round_trip():
    rng = np.random.default_rng(23)
    coeffs = rng.normal(size=6) + 1j * rng.normal(size=6)

    def u0(r):
        return sum(c * np.exp(-(j + 1) * r) for j, c in enumerate(coeffs[:3]))

    def udot(r):
        return sum(c * r * np.exp(-(j + 1) * r) for j, c in enumerate(coeffs[3:]))

    fp, fm = P.data_split(P.CauchyData(u0, udot, 5))
    rec = P.reconstruct(fp, fm, 5)
    r = np.linspace(0.05, 8, 111)
    assert np.max(np.abs(rec.u0_hat(r) - u0(r))) < 1e-12
    assert np.max(np.abs(rec.udot0_hat(r) - udot(r))) < 1e-12


def test_parallelogram_law():
    # ||grad f_+||^2 + ||grad f_-||^2 = (||grad u0||^2 + ||du0||^2) / 2
    # on random radial data, norms by radial quadrature.
    rng = np.random.default_rng(29)
    d = 5
    a1, a2 = 1.0 + rng.random(), 1.0 + rng.random()

    def u0(r):
        return np.exp(-a1 * r) * (1 + 0.3 * r)

    def udot(r):
        return r * np.exp(-a2 * r)

    fp, fm = P.data_split(P.CauchyData(u0, udot, d))

    def grad_sq(fhat):
        fn = lambda r: abs(fhat(np.array([r]))[0]) ** 2 * r ** (d + 1)
        val, _ = integrate.quad(fn, 0, 60, epsabs=1e-14, epsrel=1e-11)
        return sphere_area(d) * val / (2 * math.pi) ** d

    def plain_sq(handle, weight):
        fn = lambda r: abs(handle(np.array([r]))[0]) ** 2 * r ** weight
        val, _ = integrate.quad(fn, 0, 60, epsabs=1e-14, epsrel=1e-11)
        return sphere_area(d) * val / (2 * math.pi) ** d

    lhs = grad_sq(fp) + grad_sq(fm)
    rhs = 0.5 * (plain_sq(lambda r: u0(r), d + 1) + plain_sq(lambda r: udot(r), d - 1))
    assert lhs == pytest.approx(rhs, rel=1e-9)


def test_symmetry_identity_and_examples():
    p = P.wave_profile(5, -1.0 + 0.2j, c=0.3 - 0.1j)
    same = P.symmetry_apply(P.Translate(), p)
    assert same.a == p.a and same.c == p.c
    # Phase theta = pi: modulus of the data unchanged
    ph = P.symmetry_apply(P.Phase(math.pi), p)
    assert ph.c == p.c + 1j * math.pi
    rho = np.linspace(0.1, 3, 17)
    assert np.allclose(np.abs(ph.freq_amplitude(rho)), np.abs(p.freq_amplitude(rho)))
    # Time translation t0 = 1 on the + component: a -> a + i
    tr = P.symmetry_apply(P.Translate(t0=1.0), p)
    assert tr.a == p.a + 1j
    minus = P.symmetry_apply(P.Translate(t0=1.0), P.wave_profile(5, -1.0, sign=-1))
    assert minus.a == -1.0 - 1j


def test_symmetry_group_law():
    rng = np.random.default_rng(31)
    p = P.wave_profile(5, -1.2 + 0.4j, b=1j * rng.normal(size=5), c=0.2j)
    pairs = [
        (P.Translate(0.3, tuple(rng.normal(size=5))), P.Translate(-1.1, tuple(rng.normal(size=5)))),
        (P.Scaling(1.4, 0.7), P.Scaling(0.5, 2.2)),
        (P.Phase(0.9), P.Phase(-2.4)),
    ]
    for g1, g2 in pairs:
        seq = P.symmetry_apply(g2, P.symmetry_apply(g1, p))
        joint = P.symmetry_apply(P.compose(g2, g1), p)
        assert abs(seq.a - joint.a) < 1e-12
        assert np.max(np.abs(seq.b - joint.b)) < 1e-12
        assert abs(seq.c - joint.c) < 1e-12
    s = P.schrodinger_profile(4, -0.8, b=np.array([0.1, 0, 0, 0.2]))
    g1, g2 = P.GalileanBoost((0.2, 0.0, 0.1, 0.0)), P.GalileanBoost((-0.4, 0.3, 0.0, 0.0))
    seq = P.symmetry_apply(g2, P.symmetry_apply(g1, s))
    joint = P.symmetry_apply(P.compose(g2, g1), s)
    assert np.max(np.abs(seq.b - joint.b)) < 1e-12
    # c differs by tracking order only through exact arithmetic identities:
    # a(v1^2 + v2^2) + b.(v1+v2) + 2a v1.v2 both ways.
    assert abs(seq.c - joint.c) < 1e-12


def test_composed_time_translations_act_in_every_dimension():
    # Two translations without x0 once composed to x0 = (0.0,), which a
    # d = 3 profile rejected as a vector of the wrong length.
    joint = P.compose(P.Translate(0.5), P.Translate(0.25))
    assert joint == P.Translate(0.75)
    p = P.wave_profile(3, -1.0)
    assert P.profile_to_record(P.symmetry_apply(joint, p)) == P.profile_to_record(
        P.symmetry_apply(P.Translate(0.75), p))


def test_symmetry_schrodinger_galilean_action():
    s = P.schrodinger_profile(4, -1.0, b=np.array([0.3, 0, 0, 0]))
    v = np.array([0.5, 0.0, -0.2, 0.0])
    out = P.symmetry_apply(P.GalileanBoost(tuple(v)), s)
    assert np.allclose(out.b, s.b + 2.0 * s.a * v)
    with pytest.raises(ValueError):
        P.symmetry_apply(P.GalileanBoost((0.1,) * 5), P.wave_profile(5, -1.0))
    with pytest.raises(ValueError):
        P.symmetry_apply("rotate", s)


def test_lambda_amplitude_and_diagnostics():
    p = P.wave_profile(5, -1.0)
    val = PR.lambda_amplitude(p, 0.0, np.zeros(5))
    want = 6 * sphere_area(5) / (2 * math.pi) ** 5
    assert val == pytest.approx(want, rel=1e-10)
    diag = PR.lambda_diagnostics(P.wave_profile(5, -1.2 + 0.6j, b=1j * np.array([0.4, 0, 0, 0, 0]), c=0.3))
    assert diag["argmax_t"] == pytest.approx(diag["expected_argmax_t"], abs=0.11)
    assert np.allclose(diag["argmax_x"], diag["expected_argmax_x"], atol=0.11)
    assert diag["lead_coeff"] == pytest.approx(1.0, rel=1e-6)
    assert diag["const_term"] == pytest.approx(diag["expected_const_term"], rel=1e-6)


def test_lambda_diagnostics_centre_on_the_field_peak_of_either_sheet():
    # On the - sheet the centre-line peak sits at t = +Im a, where the
    # quartic in shifted time has constant term Re(a)^4.
    diag = PR.lambda_diagnostics(P.wave_profile(5, -1.0 + 0.7j, sign=-1))
    assert diag["expected_argmax_t"] == pytest.approx(0.7, abs=1e-15)
    assert diag["argmax_t"] == pytest.approx(0.7, abs=1e-12)
    assert diag["const_term"] == pytest.approx(1.0, abs=1e-6)


def test_lambda_diagnostics_separate_profiles():
    # The diagnostic triple (argmax, lead coeff, const term) distinguishes
    # two random admissible profiles with different (a, b, Re c).
    d1 = PR.lambda_diagnostics(P.wave_profile(5, -1.0 + 0.5j, c=0.2))
    d2 = PR.lambda_diagnostics(P.wave_profile(5, -1.5 - 0.4j, b=1j * np.array([0.8, 0, 0, 0, 0]), c=-0.3))
    assert abs(d1["argmax_t"] - d2["argmax_t"]) > 0.2
    assert abs(d1["const_term"] - d2["const_term"]) > 1e-2


def test_canonical_energy_pair_matches_velocity_split():
    fp, fm = P.canonical_energy_pair(c0=1.0)
    r = np.linspace(0.2, 4, 9)
    want = np.exp(-r) / (2.0 * 1j)
    assert np.allclose(fp.freq_amplitude(r), want, atol=1e-14)
    assert np.allclose(fm.freq_amplitude(r), -want, atol=1e-14)
    assert fp.sign == 1 and fm.sign == -1


def test_profile_serialization_round_trip():
    p = P.ExtremalProfile(
        SCHRODINGER, 3, -1.25 + 0.5j, b=np.array([0.1 - 0.2j, 0.0, 1.5j]), c=2.0 - 3.0j
    )
    rec = P.profile_to_record(p)
    q = P.profile_from_record(rec)
    assert q.family == p.family and q.d == p.d and q.sign == p.sign
    assert q.a == p.a and q.c == p.c
    assert np.all(q.b == p.b)
    assert "family=schrodinger" in rec and "a_re=" in rec


_SMALL = st.floats(-2.0, 2.0)


@st.composite
def _profiles(draw, families=(WAVE, SCHRODINGER)):
    d = draw(st.integers(2, 5))
    cplx = st.builds(complex, _SMALL, _SMALL)
    return P.ExtremalProfile(
        draw(st.sampled_from(families)), d, complex(draw(st.floats(-3.0, -0.2)), draw(_SMALL)),
        b=np.array(draw(st.lists(cplx, min_size=d, max_size=d))), c=draw(cplx),
        sign=draw(st.sampled_from([1, -1])),
    )


@st.composite
def _elements(draw, kind, d):
    vec = st.lists(_SMALL, min_size=d, max_size=d).map(tuple)
    if kind == "translate":
        return P.Translate(draw(_SMALL), draw(vec))
    if kind == "scaling":
        return P.Scaling(draw(st.floats(0.5, 2.0)), draw(st.floats(0.5, 2.0)))
    if kind == "phase":
        return P.Phase(draw(st.floats(-4.0, 4.0)))
    return P.GalileanBoost(draw(vec))


@settings(max_examples=50, deadline=None, derandomize=True)
@given(data=st.data(), kind=st.sampled_from(["translate", "scaling", "phase", "galilean"]))
def test_symmetry_compose_is_sequential_application(data, kind):
    p = data.draw(_profiles((SCHRODINGER,) if kind == "galilean" else (WAVE, SCHRODINGER)))
    g1, g2 = data.draw(_elements(kind, p.d)), data.draw(_elements(kind, p.d))
    joint = P.symmetry_apply(P.compose(g1, g2), p)
    seq = P.symmetry_apply(g1, P.symmetry_apply(g2, p))
    assert abs(joint.a - seq.a) < 1e-12
    assert np.max(np.abs(joint.b - seq.b)) < 1e-12
    assert abs(joint.c - seq.c) < 1e-12


@settings(max_examples=50, deadline=None, derandomize=True)
@given(p=_profiles())
def test_profile_record_round_trip_is_exact(p):
    q = P.profile_from_record(P.profile_to_record(p))
    assert (q.family, q.d, q.a, q.c, q.sign) == (p.family, p.d, p.a, p.c, p.sign)
    assert np.array_equal(q.b, p.b)
