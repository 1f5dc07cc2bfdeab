"""Space-time norms, multilinear right-hand sides, quotients, residuals."""

import inspect
import math
import re
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from strichartz_lab import constants as C
from strichartz_lab import functionals as FN
from strichartz_lab import geometry as G
from strichartz_lab import mc as MC
from strichartz_lab import profiles as P
from strichartz_lab import propagators as PR
from strichartz_lab.constants import SCHRODINGER, WAVE, sphere_area
from strichartz_lab.functionals import radial_pair_rhs
from strichartz_lab.quadrules import QuadratureError, angular_nodes, gauss_nodes, panel_nodes
from strichartz_lab.search import AnsatzProfile, symmetry_invariance_audit

QUARTIC_D5 = 1.0 / (6144.0 * math.pi ** 8)


@pytest.fixture(scope="module")
def ev5():
    return PR.RadialEvaluator(P.wave_profile(5, -1.0))


def test_lp_norm_frozen_values(ev5):
    val, err = FN.product_l2_sq([ev5, ev5], rel_tol=1e-8)
    assert val == pytest.approx(QUARTIC_D5, rel=1e-7)
    assert abs(val - QUARTIC_D5) <= max(err, 1e-7 * QUARTIC_D5)
    ev3 = PR.RadialEvaluator(P.wave_profile(3, -1.0))
    n6, _ = FN.lp_norm_radial(ev3, 6)
    assert n6 ** 6 == pytest.approx(3.0 / (8192.0 * math.pi ** 9), rel=1e-7)
    ev2 = PR.RadialEvaluator(P.wave_profile(2, -1.0))
    n10, _ = FN.lp_norm_radial(ev2, 10)
    assert n10 ** 10 == pytest.approx(5.0 / (49152.0 * math.pi ** 8), rel=1e-6)
    with pytest.raises(ValueError):
        FN.lp_norm_radial(ev3, 5)


@pytest.mark.parametrize("p", [6.0, np.float64(4.0), True, "4"])
def test_lp_norm_needs_an_integer_exponent(ev5, p):
    with pytest.raises(ValueError, match=re.escape(f"got {p!r}")):
        FN.lp_norm_radial(ev5, p)


def test_lp_norm_insufficient_decay_guard(ev5):
    # Below the admissible exponent the space-time norm diverges: L^4 of a
    # single wave field in d = 2, and L^2 of anything.
    ev2 = PR.RadialEvaluator(P.wave_profile(2, -1.0))
    with pytest.raises(ValueError):
        FN.lp_norm_radial(ev2, 4)
    with pytest.raises(ValueError):
        FN.lp_norm_radial(ev5, 2)


@pytest.mark.parametrize("tail_factor", [1.0, 0.5])
def test_default_window_needs_tails_beyond_the_core(ev5, tail_factor):
    # At tail_factor <= 1 the geometric tails would run backwards.
    with pytest.raises(ValueError, match="tail_factor"):
        FN.default_window([ev5], tail_factor=tail_factor)


@pytest.mark.parametrize("name, value", [
    ("core", -5.0), ("core", 0.0), ("core", math.nan), ("core", math.inf),
    ("tail_factor", math.nan), ("tail_factor", math.inf),
])
def test_default_window_rejects_a_scale_by_name(ev5, name, value):
    # core = -5 once gave product_l2_sq a negative squared norm, core = 0 a
    # ZeroDivisionError and a nan a "cannot convert float NaN" message.
    with pytest.raises(ValueError, match=name):
        FN.default_window([ev5], **{name: value})


@pytest.mark.parametrize("name, value", [
    ("ext_factor", 1.0), ("ext_factor", 0.5), ("ext_factor", math.nan),
    ("ext_factor", math.inf), ("ridge_width", 0.0), ("ridge_width", -0.4),
    ("ridge_width", math.nan),
])
def test_spacetime_driver_rejects_a_scale_by_name(ev5, name, value):
    # ext_factor = 0.5 once returned the value of a shrunken window and 1 a
    # ZeroDivisionError; ridge_width = 0 an OverflowError.
    with pytest.raises(ValueError, match=name):
        FN.product_l2_sq([ev5, ev5], **{name: value})


@pytest.mark.parametrize("rel_tol", [0.0, -1.0, math.nan])
def test_spacetime_driver_rejects_rel_tol_before_its_first_pass(ev5, rel_tol):
    # These once ran every level and then raised QuadratureError.
    def field(t, r):
        raise AssertionError("a pass ran")

    with pytest.raises(ValueError, match="rel_tol"):
        FN.spacetime_integral(field, [ev5], rel_tol=rel_tol)


def test_driver_defaults_live_only_in_spacetime_integral():
    for fn in (FN.lp_norm_radial, FN.product_l2_sq, FN.spacetime_inner):
        assert not {"window", "rel_tol", "mode"} & set(inspect.signature(fn).parameters)


def test_d3_sextic_equals_sobolev_product():
    # ||u||_6^6 = (3/(16 pi^3)) H E^2 with H, E the data norms.
    p = P.wave_profile(3, -1.3, c=0.2)
    ev = PR.RadialEvaluator(p)
    n6, _ = FN.lp_norm_radial(ev, 6)
    H = P.sobolev_norm_sq(p, 0.5)
    E = P.sobolev_norm_sq(p, 1.0)
    assert n6 ** 6 == pytest.approx(3.0 / (16.0 * math.pi ** 3) * H * E * E, rel=1e-6)


def test_quadrature_method_matches_closed_kernel_route(ev5, nested_quartic_d5):
    win = FN.default_window([ev5], tail_factor=4.0)
    ref, _ = FN.product_l2_sq([ev5, ev5], window=win, rel_tol=1e-8,
                              mode="cone", check_window=False)
    got, err = nested_quartic_d5
    assert got == pytest.approx(ref, rel=2e-4)


def test_scaling_leaves_quotient_unchanged(ev5):
    rep0 = FN.onesided_quotient(P.wave_profile(5, -1.0))
    rep1 = FN.onesided_quotient(P.symmetry_apply(P.Scaling(2.0, 2.0), P.wave_profile(5, -1.0)))
    assert rep1.ratio == pytest.approx(rep0.ratio, rel=1e-6)


def test_onesided_quotient_extremal_all_dims():
    for d in (2, 3, 5):
        rep = FN.onesided_quotient(P.wave_profile(d, -1.0))
        assert abs(rep.deficit) < 5e-3


def test_wave_fiber_route_cross_validation():
    ga = lambda rho: np.exp((-1.0 + 0.4j) * rho + 0.3)
    gb = lambda rho: np.exp(-1.6 * rho - 0.2)
    pa = P.wave_profile(5, -1.0 + 0.4j, c=0.3)
    pb = P.wave_profile(5, -1.6, c=-0.2)
    fiber = FN.wave_bilinear_lhs_fiber(ga, gb, 5, 1.0)
    tr, _ = FN.product_l2_sq([PR.RadialEvaluator(pa), PR.RadialEvaluator(pb)],
                             rel_tol=1e-7)
    assert fiber == pytest.approx(tr, rel=1e-4)


def test_schro_fiber_route_cross_validation():
    g = lambda rho: np.exp(-rho ** 2)
    want4 = 1.0 / (131072.0 * math.pi ** 5)
    assert FN.schro_quartic_norm4(g, 4, 1.0, n_q=120, n_u=64) == pytest.approx(
        want4, rel=1e-5
    )


def _schro_quartic_norm4_whole(radial_fn, d, decay, n_q=80, n_u=48):
    # Reference: schro_quartic_norm4 on the whole tensor at once.
    span = math.sqrt(70.0 / (2.0 * decay))
    q, wq = gauss_nodes(n_q, 0.0, 2.0 * span)
    R, wR = gauss_nodes(n_q, 0.0, 2.0 * span)
    u, wu = angular_nodes(d, n_u)
    Q, RR, U = np.meshgrid(q, R, u, indexing="ij")
    A = 0.25 * Q * Q + RR * RR
    B = Q * RR
    vals = np.asarray(radial_fn(np.sqrt(A + B * U))) * np.asarray(
        radial_fn(np.sqrt(A - B * U))
    )
    phi = 0.25 * RR[:, :, 0] ** (d - 2) * sphere_area(d - 1) * (vals @ wu)
    inner = np.abs(phi) ** 2 * 4.0 * R[None, :]
    total = float(np.einsum("i,ij,j->", wq * q ** (d - 1), inner, wR))
    return (2.0 * math.pi) ** (1 - 3 * d) * sphere_area(d) * total


def _wave_bilinear_lhs_fiber_whole(g1, g2, d, decay):
    # Reference: wave_bilinear_lhs_fiber on the whole tensor at once.
    span = 80.0 / decay
    tau, wt = gauss_nodes(100, 0.0, span)
    x, wx = gauss_nodes(100, 0.0, 1.0)
    u, wu = angular_nodes(d, 48)
    T = tau[:, None, None]
    Q = T * x[None, :, None]
    U = u[None, None, :]
    rstar = (T * T - Q * Q) / (2.0 * (T - Q * U))
    vals = (
        np.asarray(g1(rstar))
        * np.asarray(g2(T - rstar))
        * rstar ** (d - 2)
        / (T - Q * U)
    )
    phi = sphere_area(d - 1) * (vals @ wu)
    qweight = (tau[:, None] * x[None, :]) ** (d - 1) * tau[:, None]
    total = float(np.einsum("i,ij,j->", wt, np.abs(phi) ** 2 * qweight, wx))
    return (2.0 * math.pi) ** (1 - 3 * d) * sphere_area(d) * total


def test_fiber_row_blocks_are_bit_identical_to_whole_tensors():
    rng = np.random.default_rng(31)
    for _ in range(3):
        theta = rng.normal(scale=0.35, size=6)
        theta[0] = rng.normal(scale=0.5)
        schro = AnsatzProfile(theta, 4, C.SCHRODINGER)
        g, sigma = schro.radial_fn(), schro.decay_rate
        for grid in ({}, {"n_q": 120, "n_u": 64}, {"n_q": 81}):
            assert FN.schro_quartic_norm4(g, 4, sigma, **grid) == _schro_quartic_norm4_whole(
                g, 4, sigma, **grid)
        wave = AnsatzProfile(theta, 5, C.WAVE)
        g, sigma = wave.radial_fn(), wave.decay_rate
        assert FN.wave_bilinear_lhs_fiber(g, g, 5, sigma) == _wave_bilinear_lhs_fiber_whole(
            g, g, 5, sigma)
    ga = lambda rho: np.exp((-1.0 + 0.4j) * rho + 0.3)
    gb = lambda rho: np.exp(-1.6 * rho - 0.2)
    assert FN.wave_bilinear_lhs_fiber(ga, gb, 5, 1.0) == _wave_bilinear_lhs_fiber_whole(
        ga, gb, 5, 1.0)
    assert FN.schro_quartic_norm4(ga, 4, 1.0, n_q=81) == _schro_quartic_norm4_whole(
        ga, 4, 1.0, n_q=81)

    # A fiber route may scale only arrays it allocated itself: never the
    # argument it passed to g, nor an array g returned.
    def echo(rho):
        return rho

    def frozen(rho):
        out = np.exp(-rho)
        out.flags.writeable = False
        return out

    for g in (echo, frozen):
        assert FN.wave_bilinear_lhs_fiber(g, g, 5, 1.0) == _wave_bilinear_lhs_fiber_whole(
            g, g, 5, 1.0)
        assert FN.schro_quartic_norm4(g, 4, 1.0) == _schro_quartic_norm4_whole(g, 4, 1.0)


def test_fiber_prefactor_is_written_only_in_the_fiber_integral():
    # Both fiber routes end in one Plancherel integral; the (2pi)^{1-3d}
    # |S^{d-1}| prefactor, |Phi|^2 and the angular contraction live there.
    src = Path(FN.__file__).parent
    writers = {p.name: p.read_text().count("** (1 - 3 * d)") for p in src.glob("*.py")}
    assert {name: n for name, n in writers.items() if n} == {"functionals.py": 1}
    assert "** (1 - 3 * d)" in inspect.getsource(FN._fiber_integral)
    assert not hasattr(FN, "_contract_rows")


def test_fiber_routines_never_evaluate_more_than_one_block():
    sizes = []

    def counting(rho):
        sizes.append(np.size(rho))
        return np.exp(-rho)

    for n_q, n_u in ((80, 48), (120, 64), (81, 48)):
        sizes.clear()
        FN.schro_quartic_norm4(counting, 4, 1.0, n_q=n_q, n_u=n_u)
        assert max(sizes) <= FN._FIBER_BLOCK
        assert sum(sizes) == 2 * n_q * n_q * n_u
    sizes.clear()
    FN.wave_bilinear_lhs_fiber(counting, counting, 5, 1.0)
    assert max(sizes) <= FN._FIBER_BLOCK
    assert sum(sizes) == 2 * 100 * 100 * 48


_G = lambda rho: np.exp(-rho)
_DECAY_ROUTINES = {
    # The profile's decay is -Re(a), so a = nan is one of the cases.
    "ExtremalProfile": lambda decay: P.ExtremalProfile(WAVE, 3, -decay),
    "RadialEvaluator_wave": lambda decay: PR.RadialEvaluator(radial_fn=_G, decay=decay, d=4),
    "RadialEvaluator_schrodinger": lambda decay: PR.RadialEvaluator(
        radial_fn=_G, decay=decay, d=4, family=SCHRODINGER),
    "wave_bilinear_lhs_fiber": lambda decay: FN.wave_bilinear_lhs_fiber(_G, _G, 5, decay),
    "schro_quartic_norm4": lambda decay: FN.schro_quartic_norm4(_G, 4, decay),
    "wave_radial_norm_sq": lambda decay: FN.wave_radial_norm_sq(_G, 5, 1.0, decay),
    "schro_radial_norm_sq": lambda decay: FN.schro_radial_norm_sq(_G, 4, 0.0, decay),
    "schro_ansatz_quotient": lambda decay: FN.schro_ansatz_quotient(_G, decay),
    "schro_ansatz_quotient_propagator": lambda decay: FN.schro_ansatz_quotient(
        _G, decay, route="propagator"),
}


@pytest.mark.parametrize("routine", sorted(_DECAY_ROUTINES))
def test_rejects_a_non_positive_or_non_finite_decay(routine):
    for decay in (-1.0, 0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="decay must be finite and > 0"):
            _DECAY_ROUTINES[routine](decay)


_GS = lambda rho: np.exp(-np.asarray(rho) ** 2)


@pytest.mark.parametrize("call, bad", [
    (lambda: FN.wave_bilinear_lhs_fiber(_G, _G, 2, 1.0), "diverges in d = 2"),
    (lambda: FN.schro_quartic_norm4(_GS, 1, 1.0), "diverges in d = 1"),
    (lambda: FN.gaussian_l4_norm(P.schrodinger_profile(1, -1.0)), "diverges in d = 1"),
    (lambda: FN.wave_bilinear_lhs_fiber(_G, _G, 2.5, 1.0), "integer d >= 2, got d = 2.5"),
    (lambda: FN.schro_quartic_norm4(_GS, 2.5, 1.0), "integer d >= 1, got d = 2.5"),
    (lambda: FN.schro_quartic_norm4(_GS, True, 1.0), "integer d >= 1, got d = True"),
], ids=["fiber_d2", "quartic_d1", "gaussian_l4_d1", "fiber_d2.5", "quartic_d2.5",
        "quartic_d_bool"])
def test_lhs_routes_reject_a_divergent_norm_or_a_non_integer_d(call, bad):
    # The d = 2 wave fiber once returned 0.0613, growing like log(grid size)
    # as its grids were doubled; d = 2.5 returned 5.2e-4 (fiber) and 3.2e-5
    # (quartic); the d = 1 Schrodinger routes failed inside the sphere area
    # or with a math domain error.
    with pytest.raises(ValueError, match=re.escape(bad)):
        call()


@pytest.mark.parametrize("mode", ["rect", "cone"])
def test_spacetime_integral_raises_when_its_levels_run_out(mode):
    evs = [PR.RadialEvaluator(P.wave_profile(5, -1.0)) for _ in range(2)]
    with pytest.raises(QuadratureError) as exc:
        FN.spacetime_integral(FN.product_field(evs, modulus=True), evs, rel_tol=1e-17,
                              max_levels=1, mode=mode)
    assert math.isfinite(exc.value.best) and math.isfinite(exc.value.error)


def test_multilinear_rhs_alpha0_factorization():
    # (3,2) extremal with b = 0: K^0 = 1 and the weights are constant, so
    # the estimate equals ((2pi)^3 H)^2 = pi^2 with vanishing variance.
    p = P.wave_profile(3, -1.0)
    est = FN.multilinear_rhs([p, p], n_samples=10 ** 4, seed=1)
    assert est.mean == pytest.approx(math.pi ** 2, rel=1e-12)
    # Constant weights: stderr is pure floating-point noise in the
    # merged variance, many orders below any genuine MC error.
    assert est.stderr < 1e-6 * est.mean


def test_multilinear_rhs_constant_weights_have_rounding_level_stderr():
    # (2,3) extremal with b = 0: every weight is the same number, so the
    # chunk-merged variance must vanish to rounding (E[w^2] - E[w]^2 left
    # 2e-11..6e-11 relative here).  Three chunks exercise the merge.
    p = P.wave_profile(2, -1.0)
    est = FN.multilinear_rhs([p, p, p], n_samples=3 * 10 ** 5, seed=1)
    assert est.stderr <= 1e-14 * est.mean


@pytest.mark.parametrize("profile", [P.wave_profile(2, -1.0), P.schrodinger_profile(1, -1.0)])
def test_multilinear_rhs_rejects_a_divergent_right_hand_side(profile):
    # Wave (2, 2) and Schrodinger (1, 2): K^{-1} is not integrable where the
    # two frequencies meet, so any finite Monte Carlo mean would be seed noise.
    with pytest.raises(ValueError, match="right-hand side diverges"):
        FN.multilinear_rhs([profile, profile], n_samples=1000, seed=1)


def test_multilinear_rhs_equality_case(ev5):
    p = P.wave_profile(5, -1.0)
    lhs, lerr = FN.product_l2_sq([ev5, ev5])
    rhs = FN.multilinear_rhs([p, p], n_samples=3 * 10 ** 5, seed=2)
    const = C.wave_sharp_constant(5, 2)
    band = 3.0 * (rhs.stderr / rhs.mean + lerr / lhs)
    assert abs(lhs / (const * rhs.mean) - 1.0) <= band


def test_multilinear_rhs_tilt_and_divergence():
    tilted = P.wave_profile(5, -1.0, b=np.array([0.5, 0, 0, 0, 0]))
    est = FN.multilinear_rhs([tilted, tilted], n_samples=10 ** 4, seed=3)
    assert math.isfinite(est.mean) and est.mean > 0
    bad = P.wave_profile(5, -1.0, b=np.array([1.1, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        FN.multilinear_rhs([bad, bad], n_samples=10 ** 4, seed=3)
    with pytest.raises(ValueError):
        FN.multilinear_rhs([P.wave_profile(3, -1.0)], n_samples=10 ** 4)
    with pytest.raises(ValueError):
        FN.multilinear_rhs([P.wave_profile(3, -1.0), P.wave_profile(2, -1.0)])


# test-only reference: the direction draw before it worked on columns.
def _reference_unit_directions(rng, m, k, d):
    dirs = rng.normal(size=(m, k, d))
    dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
    return dirs


@pytest.mark.parametrize("d", [2, 3, 5, 8, 9])
def test_multilinear_rhs_directions_are_bit_identical_to_the_reference(d, monkeypatch):
    b = np.zeros(d)
    b[0] = 0.4
    profs = [P.wave_profile(d, -1.0, b=b), P.wave_profile(d, complex(-1.3, 0.2), c=0.1j),
             P.wave_profile(d, -0.8)]
    runs = [(profs[:2], 10 ** 4), (profs, 10 ** 4)]
    if d == 2:  # the (2, 2) right-hand side diverges and is rejected
        runs = runs[1:]
    if d == 5:  # two chunks, the second of 5 samples
        runs.append((profs[:2], MC.CHUNK + 5))
    for tup, n in runs:
        got = FN.multilinear_rhs(tup, n_samples=n, seed=d)
        with monkeypatch.context() as mp:
            mp.setattr(FN, "unit_directions", _reference_unit_directions)
            want = FN.multilinear_rhs(tup, n_samples=n, seed=d)
        assert (got.mean, got.stderr) == (want.mean, want.stderr), (len(tup), n)


_RHS_TUPLES = {
    WAVE: [P.wave_profile(5, -1.0, b=[0.3, 0.0, 0.0, 0.0, 0.0]),
           P.wave_profile(5, complex(-1.2, 0.4), c=0.1j)],
    SCHRODINGER: [P.schrodinger_profile(3, complex(-1.0, 0.3), b=[0.2, 0.0, 0.0]),
                  P.schrodinger_profile(3, -0.7), P.schrodinger_profile(3, -1.3, c=0.2)],
}


@pytest.mark.parametrize("family", [WAVE, SCHRODINGER])
@pytest.mark.parametrize("n", [1, 2 ** 14 - 1, 2 ** 14 + 1, 5 * 10 ** 4, 2 ** 17 + 3])
def test_multilinear_rhs_row_blocks_are_bit_identical_to_whole_chunks(family, n, monkeypatch):
    got = FN.multilinear_rhs(_RHS_TUPLES[family], n_samples=n, seed=9)
    monkeypatch.setattr(MC, "ROW_BLOCK", MC.CHUNK)
    want = FN.multilinear_rhs(_RHS_TUPLES[family], n_samples=n, seed=9)
    assert (got.mean, got.stderr) == (want.mean, want.stderr)


def test_multilinear_rhs_working_set_is_a_row_block(traced_peak):
    # One chunk of 2^17 samples at (5, 2): the weights once took 29.4 MB
    # of temporaries over the whole chunk; in row blocks 16.9 MB, and with
    # the direction normals drawn block by block too, 7.9 MB.
    p = P.wave_profile(5, -1.0)
    assert traced_peak(FN.multilinear_rhs, [p, p], n_samples=MC.CHUNK, seed=0) <= 10e6


def test_schrodinger_rhs_working_set_is_a_row_block(traced_peak):
    # One chunk of 2^17 samples at (3, 3): the normals drawn whole once
    # took 12.8 MB; block by block 4.7 MB.
    tup = _RHS_TUPLES[SCHRODINGER]
    assert traced_peak(FN.multilinear_rhs, tup, n_samples=MC.CHUNK, seed=0) <= 6e6


def _reference_wave_rhs_weights(profiles):
    # Test-only reference sampler: the draws of multilinear_rhs in its order
    # (gamma radii, then directions), each sample weighted in the eta form by
    # the scalar wave_weight.
    d, k = profiles[0].d, len(profiles)
    alpha = float(C.alpha_exponent(d, k))
    rates = np.array([2.0 * (p.decay - p.tilt) for p in profiles])
    log_const = sum(2.0 * p.c.real + C.log_cone_c0(d) - (d - 1) * math.log(rate)
                    for p, rate in zip(profiles, rates))

    def sample_weights(rng, m):
        radii = rng.gamma(shape=d - 1, scale=1.0, size=(m, k)) / rates[None, :]
        eta = radii[:, :, None] * MC.unit_directions(rng, m, k, d)
        w = np.empty(m)
        for i in range(m):
            expo = 2.0 * sum(float(np.dot(p.b.real, e)) - p.tilt * np.linalg.norm(e)
                             for p, e in zip(profiles, eta[i]))
            w[i] = math.exp(expo + log_const) * G.wave_weight(eta[i]) ** (2.0 * alpha)
        return w

    return sample_weights


@pytest.mark.parametrize("profiles", [
    [P.wave_profile(5, -1.0, b=[0.3, 0.0, 0.0, 0.0, 0.0]),
     P.wave_profile(5, complex(-1.2, 0.4), c=0.1j)],
    [P.wave_profile(4, -1.0, b=[0.0, 0.4, 0.0, 0.2j]),
     P.wave_profile(4, -0.7, b=[0.1, 0.0, 0.2, 0.0])],
    [P.wave_profile(3, -1.0, b=[0.2, 0.0, 0.0]), P.wave_profile(3, -0.8, b=[0.0, -0.3, 0.1]),
     P.wave_profile(3, complex(-1.3, 0.2), c=0.2)],
], ids=["d5k2", "d4k2", "d3k3"])
def test_wave_rhs_matches_a_per_sample_eta_form_reference(profiles):
    # The polar weights against the eta form sample by sample: the same draws,
    # the same estimator, so only rounding can separate them.
    got = FN.multilinear_rhs(profiles, n_samples=3000, seed=17)
    want = MC.mc_mean(_reference_wave_rhs_weights(profiles), 3000, 17)
    assert got.mean == pytest.approx(want.mean, rel=1e-13, abs=0.0)
    assert got.stderr == pytest.approx(want.stderr, rel=1e-12, abs=0.0)


@pytest.mark.parametrize("d, seed", [(3, 31), (4, 41), (5, 51)])
def test_multilinear_rhs_matches_the_radial_pair_closed_form(d, seed):
    # Radial pairs (Re b = 0) with unequal decays, phases and translations.
    b = np.zeros(d, dtype=complex)
    b[0] = 0.7j
    pair = [P.wave_profile(d, complex(-1.0, 0.3), b=b, c=complex(0.2, 1.0)),
            P.wave_profile(d, -0.6, c=-0.1)]
    est = FN.multilinear_rhs(pair, n_samples=2 * 10 ** 5, seed=seed)
    exact = radial_pair_rhs(*pair)
    # alpha(3, 2) = 0: the weights are constant and the stderr is rounding
    # noise, so the band carries the rounding of the closed form too.
    assert abs(est.mean - exact) <= 3.0 * est.stderr + 1e-12 * exact


def test_radial_pair_rhs_rejects_tuples_it_does_not_cover():
    b = np.zeros(4)
    b[0] = 0.3
    for pair in ([P.wave_profile(4, -1.0, b=b), P.wave_profile(4, -1.0)],
                 [P.schrodinger_profile(4, -1.0)] * 2,
                 [P.wave_profile(3, -1.0), P.wave_profile(4, -1.0)],
                 [P.wave_profile(2, -1.0)] * 2):  # d = 2: the Beta integral diverges
        with pytest.raises(ValueError):
            radial_pair_rhs(*pair)


def _criterion_07_wave_profile(rng, d):
    """One random profile of criterion 07's k = 2 distribution."""
    a = complex(-math.exp(rng.normal(scale=0.4)), 0.35 * rng.normal())
    c = complex(0.3 * rng.normal(), math.pi * rng.random())
    return P.wave_profile(d, a, c=c)


@pytest.mark.parametrize("d", [3, 4, 5])
def test_k2_wave_lhs_holds_to_the_closed_form_rhs(d):
    # LHS / (W RHS) with the exact RHS: 1 on the extremal pair and at most 1
    # on criterion 07's random pairs, each to 3 x its relative LHS error;
    # at d = 5, where the deficits dwarf the LHS error, strictly below 1.
    W = C.EstimateScale(d, 2, WAVE).sharp_constant

    def ratio_and_error(profs, **kw):
        lhs, err = FN.product_l2_sq([PR.RadialEvaluator(p) for p in profs], **kw)
        return lhs / (W * radial_pair_rhs(*profs)), err / lhs

    ratio, rel_err = ratio_and_error([P.wave_profile(d, -1.0, c=0.15j * j + 0.1 * j)
                                      for j in range(2)])
    assert abs(ratio - 1.0) <= 3.0 * rel_err, (ratio, rel_err)
    rng = np.random.default_rng(1807 + d)
    for trial in range(20):
        profs = [_criterion_07_wave_profile(rng, d) for _ in range(2)]
        win = FN.default_window([PR.RadialEvaluator(p) for p in profs], tail_factor=20.0)
        ratio, rel_err = ratio_and_error(profs, window=win, rel_tol=3e-4)
        assert ratio <= 1.0 + 3.0 * rel_err, (trial, ratio, rel_err)
        if d == 5:
            assert 1.0 - ratio > 10.0 * rel_err, (trial, ratio, rel_err)


def test_multilinear_rhs_schrodinger_closed_form():
    # d = 4, k = 2 Gaussians, b = 0: int int e^{-2|x|^2 - 2|y|^2} |x - y|^2
    # = (pi/2)^4 * 2 (the difference of two N(0, I/4) draws has E|.|^2 = 2).
    p = P.schrodinger_profile(4, -1.0)
    est = FN.multilinear_rhs([p, p], n_samples=2 * 10 ** 5, seed=4)
    want = (math.pi / 2.0) ** 4 * 2.0
    assert abs(est.mean - want) <= 3.0 * est.stderr
    assert est.stderr < 0.01 * want


def test_term_II_zero_and_positive():
    p = P.wave_profile(5, -1.0)
    out = FN.term_II(p)
    assert out["II"] < 1e-12
    assert out["I"] > 0 and out["k"] == 2
    tilted = P.wave_profile(5, -1.0, b=np.array([0.3, 0, 0, 0, 0]))
    out_t = FN.term_II(tilted)
    assert out_t["II"] > 1e-3 * out_t["I"]
    assert out_t["rhs"] == pytest.approx(out_t["I"] - out_t["II"])


def test_term_II_polar_quadrature_oracle():
    # V = |S^{d-2}| Gamma(d) int u (1-u^2)^{(d-3)/2} (2(sigma - beta u))^{-d} du
    # against a plain 2-D (r, u) quadrature of the defining integral.
    sigma, beta, d = 1.0, 0.3, 5
    tilted = P.wave_profile(d, -sigma, b=np.array([beta, 0, 0, 0, 0]))

    def inner(u):
        fn = lambda r: math.exp(2 * (-sigma + beta * u) * r) * r ** (d - 1)
        val, _ = integrate.quad(fn, 0, 120, epsabs=1e-14, epsrel=1e-12)
        return val * u * (1 - u * u) ** ((d - 3) / 2)

    val, _ = integrate.quad(inner, -1, 1, epsabs=1e-13, epsrel=1e-11)
    want_V = sphere_area(d - 1) * val
    assert FN.term_II(tilted)["V"] == pytest.approx(want_V, rel=1e-8)


def test_term_II_rotation_invariance():
    b1 = np.zeros(5)
    b1[0] = 0.4
    rot = np.zeros(5)
    rot[1], rot[3] = 0.4 * math.cos(0.3), 0.4 * math.sin(0.3)
    a = FN.term_II(P.wave_profile(5, -1.0, b=b1))
    b = FN.term_II(P.wave_profile(5, -1.0, b=rot))
    assert a["II"] == pytest.approx(b["II"], rel=1e-10)


def test_term_II_matches_monte_carlo():
    tilted = P.wave_profile(5, -1.0, b=np.array([0.3, 0, 0, 0, 0]))
    out = FN.term_II(tilted)
    mc = FN.multilinear_rhs([tilted, tilted], n_samples=4 * 10 ** 5, seed=8)
    assert abs(out["rhs"] - mc.mean) <= 3.0 * mc.stderr


def test_energy_quotient_canonical_and_symmetries():
    fp, fm = P.canonical_energy_pair()
    rep = FN.energy_quotient(fp, fm)
    assert abs(rep.deficit) < 5e-3
    assert rep.constant == pytest.approx(1.0 / math.sqrt(8.0 * math.pi))
    # c0 normalisation is immaterial.
    fp2, fm2 = P.canonical_energy_pair(c0=2.7)
    rep2 = FN.energy_quotient(fp2, fm2)
    assert rep2.ratio == pytest.approx(rep.ratio, rel=1e-9)
    # Phase rotations on both components leave the ratio unchanged.
    fp3 = P.symmetry_apply(P.Phase(0.9), fp)
    fm3 = P.symmetry_apply(P.Phase(-1.7), fm)
    rep3 = FN.energy_quotient(fp3, fm3)
    assert rep3.ratio == pytest.approx(rep.ratio, rel=1e-6)


def test_energy_quotient_conjugate_condition():
    fp, fm = P.canonical_energy_pair()
    broken = FN.energy_quotient(fp, replace(fm, a=-1.3))
    assert broken.ratio < 1.0
    assert broken.strict()
    imag_broken = FN.energy_quotient(fp, replace(fm, a=-1.0 - 0.3j))
    assert imag_broken.strict()


def test_energy_quotient_validation():
    fp, fm = P.canonical_energy_pair()
    with pytest.raises(ValueError):
        FN.energy_quotient(fm, fp)  # wrong propagator signs
    with pytest.raises(ValueError):
        FN.energy_quotient(P.wave_profile(3, -1.0), P.wave_profile(3, -1.0, sign=-1))


def test_orthogonal_split_identity_and_basic_inequality():
    fp, fm = P.canonical_energy_pair()
    out = FN.orthogonal_split_check(fp, fm)
    assert out["residual"] < 1e-4
    X, Y = out["X"], out["Y"]
    assert X == pytest.approx(Y, rel=1e-6)  # conjugate pair has |u_+| = |u_-|
    assert 2 * (X ** 2 + Y ** 2 + 4 * X * Y) <= 3 * (X + Y) ** 2 + 1e-18
    # Single-sheet control: u_- = 0 reduces the identity to ||u_+||_4^4.
    ev_p = PR.RadialEvaluator(fp)
    solo, _ = FN.product_l2_sq([ev_p, ev_p])
    assert out["lhs"] == pytest.approx(
        out["X"] ** 2 + out["Y"] ** 2 + 4 * out["cross"], rel=1e-4
    )
    assert solo == pytest.approx(out["X"] ** 2, rel=1e-6)


def test_basic_inequality_strict_off_diagonal():
    fp, fm = P.canonical_energy_pair()
    out = FN.orthogonal_split_check(fp, replace(fm, a=-1.5))
    X, Y = out["X"], out["Y"]
    assert X != pytest.approx(Y, rel=1e-3)
    assert 2 * (X ** 2 + Y ** 2 + 4 * X * Y) < 3 * (X + Y) ** 2


def test_cross_term_gap_modes(cross_term_gaps):
    gap = cross_term_gaps["paper"]
    assert gap["ratio"] < 1.0 - 10.0 * gap["err"]
    coin = cross_term_gaps["coincident"]
    assert coin["ratio"] == pytest.approx(1.0, abs=1e-6)
    neg = cross_term_gaps["negated"]
    assert neg["ratio"] == pytest.approx(1.0, abs=1e-6)
    with pytest.raises(ValueError):
        FN.cross_term_gap("sideways")


def test_functional_equation_residual_cases():
    b = np.array([0.2, -0.1, 0.3 + 0.2j])
    g_exp = lambda eta: np.exp((-1.0 + 0.5j) * np.linalg.norm(eta, axis=1) + eta @ b)
    assert FN.functional_eq_residual(g_exp, 3, seed=2) < 1e-10
    g_gauss = lambda eta: np.exp(-np.einsum("nd,nd->n", eta, eta))
    assert FN.functional_eq_residual(g_gauss, 3, seed=2) > 1e-2
    g_one = lambda eta: np.ones(eta.shape[0])
    assert FN.functional_eq_residual(g_one, 3, seed=2) == 0.0
    g_vanish = lambda eta: np.exp(-200.0 * np.linalg.norm(eta, axis=1) ** 2)
    with pytest.raises(ValueError):
        FN.functional_eq_residual(g_vanish, 3, seed=2)


def test_schro_identity_grid():
    res = FN.schro_identity_check()
    assert res["rel_err"] < 0.01


def test_mixed_norm_constant_is_the_catalog_constant():
    # The literal (32 pi)^{-1/4} stays (the frozen search values read it); it
    # is held to the catalog's S(4, 2) collapse, which it misses by 1 ulp.
    assert FN.SCHRO_D4_CONSTANT == pytest.approx(C.schro_onefn_constant(4) ** 0.25, rel=4e-16)


@pytest.mark.parametrize("d", [2, 3, 5])
def test_onefn_report_scores_against_the_collapsed_constant(d):
    k = C.onefn_degree(WAVE, d)
    H, E = 0.7, 1.3
    lhs = (C.wave_onefn_constant(d) * H ** (k - 2) * E * E) ** (1.0 / (2 * k))
    rep = FN.onefn_report(d, lhs, 1e-9, H, E)
    assert rep.ratio == pytest.approx(1.0, rel=1e-14) and rep.lhs_err == 1e-9
    with pytest.raises(ValueError, match="'wave' d = 4"):
        FN.onefn_report(4, lhs, 0.0, H, E)


def test_mixed_norm_quotient_gaussian_and_tilted():
    rep = FN.mixed_norm_quotient(P.schrodinger_profile(4, -1.0))
    assert rep.ratio == pytest.approx(1.0, rel=1e-10)
    assert rep.constant == pytest.approx((32.0 * math.pi) ** -0.25, rel=1e-13)
    beta = 0.5
    rep_t = FN.mixed_norm_quotient(P.schrodinger_profile(4, -1.0, b=np.array([beta, 0, 0, 0])))
    want = (1.0 / (1.0 + beta * beta / 4.0)) ** 0.25
    assert rep_t.ratio == pytest.approx(want, rel=1e-10)
    with pytest.raises(ValueError):
        FN.mixed_norm_quotient(P.schrodinger_profile(3, -1.0))


# A Galilean boost v sends b to b + 2 a v, so it tilts d = 4 Gaussian data
# by Re b = -2 sigma v, and the mixed-norm quotient must follow its closed
# form ratio^4 = 1/(1 + |Re b|^2/(d sigma)) away from the extremizers.
@settings(max_examples=60, deadline=None, derandomize=True)
@given(log_sigma=st.floats(-1.0, 1.0), chirp=st.floats(-1.0, 1.0),
       c=st.tuples(st.floats(-0.5, 0.5), st.floats(-math.pi, math.pi)),
       shift=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4),
       v=st.lists(st.floats(-1.0, 1.0), min_size=4, max_size=4))
def test_galilean_boost_lowers_the_mixed_norm_quotient_by_its_closed_form(
        log_sigma, chirp, c, shift, v):
    sigma = math.exp(log_sigma)
    p = P.schrodinger_profile(4, complex(-sigma, chirp), b=1j * np.array(shift),
                              c=complex(*c))
    boost = P.GalileanBoost(tuple(v))
    boosted = P.symmetry_apply(boost, p)
    want4 = 1.0 / (1.0 + float(np.dot(boosted.b.real, boosted.b.real)) / (4.0 * sigma))
    assert FN.mixed_norm_quotient(boosted).ratio ** 4 == pytest.approx(want4, rel=1e-12)
    audit = symmetry_invariance_audit(p, {"galilean": boost},
                                      lambda q: FN.mixed_norm_quotient(q).ratio)
    if 1.0 - want4 ** 0.25 > 1e-3:
        assert audit["changes"]["galilean"] > 1e-3


def test_gaussian_l4_against_spacetime_quadrature():
    p = P.schrodinger_profile(4, -1.0)
    want = FN.gaussian_l4_norm(p)
    ev = PR.RadialEvaluator(p)  # Gaussian closed-form grid
    win = FN.default_window([ev], tail_factor=6.0, core=10.0)
    got, _ = FN.lp_norm_radial(ev, 4, window=win, rel_tol=1e-7, mode="rect")
    assert got == pytest.approx(want, rel=1e-6)


def test_schro_ansatz_routes_agree():
    g = lambda rho: np.exp(-rho ** 2)
    fast = FN.schro_ansatz_quotient(g, decay=1.0)
    assert fast.ratio == pytest.approx(1.0, abs=3e-4)
    slow = FN.schro_ansatz_quotient(g, decay=1.0, route="propagator")
    assert slow.ratio == pytest.approx(fast.ratio, abs=2e-3)
    with pytest.raises(ValueError):
        FN.schro_ansatz_quotient(g, decay=1.0, route="warp")


def test_schro_propagator_route_rejects_data_above_its_envelope():
    # Criterion 04's perturbed data reach 1.16 e^{-0.3 rho^2} near rho = 1.69,
    # so the propagator route's tail cut would not be certified on them.
    bumpy = lambda rho: np.exp(-rho ** 2) + 0.45 * np.exp(-4.0 * (rho - 1.6) ** 2)
    with pytest.raises(ValueError, match="route 'propagator' needs"):
        FN.schro_ansatz_quotient(bumpy, decay=0.3, route="propagator")


def test_schro_perturbed_quotient_drops():
    gd = lambda rho: np.exp(-rho ** 2) + 0.45 * np.exp(-4.0 * (rho - 1.6) ** 2)
    rep = FN.schro_ansatz_quotient(gd, decay=0.3)
    assert rep.ratio < 0.99
    assert rep.ratio > 0.8


@pytest.mark.parametrize("kw", [{"mode": "rectangular"}, {"mode": "Cone"},
                                {"max_levels": 0, "check_window": False}])
def test_driver_rejects_bad_mode_and_level_cap(ev5, kw):
    with pytest.raises(ValueError):
        FN.product_l2_sq([ev5, ev5], **kw)


def test_quotient_report_serialization():
    assert FN.json_line({"b": 1.0, "a": math.pi}) == FN.json_line({"a": math.pi, "b": 1.0})
    # 15 significant digits
    assert "3.14159265358979" in FN.json_line({"x": math.pi})


def test_quotient_report_strictness_threshold():
    rep = FN.QuotientReport(lhs=0.9, lhs_err=0.0005, rhs=1.0, rhs_err=0.0, constant=1.0)
    assert rep.deficit == pytest.approx(0.1)
    assert rep.strict()
    noisy = FN.QuotientReport(lhs=0.9, lhs_err=0.05, rhs=1.0, rhs_err=0.0, constant=1.0)
    assert not noisy.strict()


def test_field_wrappers_share_the_base_protocol():
    ev = PR.RadialEvaluator(P.wave_profile(2, -1.0 + 0.3j, c=0.2))
    t, r = np.array([-1.0, 0.5]), np.array([0.0, 2.0])
    for fn in (np.conj, np.negative):
        mapped = FN.MappedEvaluator(fn, ev)
        assert mapped.t_peaks == ev.t_peaks
        assert mapped.has_closed_form == ev.has_closed_form
        assert mapped.family == ev.family
        assert mapped.decay == ev.decay
        assert np.array_equal(mapped.eval_grid(t, r), fn(ev.eval_grid(t, r)))
    fp, fm = P.canonical_energy_pair()
    u = FN.MappedEvaluator(np.add, PR.RadialEvaluator(fp), PR.RadialEvaluator(fm))
    assert FN._pick_mode([u, u], "auto") == "cone"


@pytest.mark.parametrize("d", [3, 4, "schrodinger", "sum"])
def test_modulus_route_matches_complex_inner_product(d):
    # Same driver and nodes: the squared norm through eval_grid(modulus=True)
    # (the real kernel for closed-form wave fields) against
    # <prod u, prod u> through the complex fields.
    if d == "sum":
        fp, fm = P.canonical_energy_pair(3)
        evs = [FN.MappedEvaluator(np.add, PR.RadialEvaluator(fp), PR.RadialEvaluator(fm))] * 3
    else:
        make, d = (P.schrodinger_profile, 3) if d == "schrodinger" else (P.wave_profile, d)
        rng = np.random.default_rng(100 + d)
        evs = [
            PR.RadialEvaluator(make(
                d, complex(-math.exp(0.3 * rng.normal()), 0.35 * rng.normal()),
                c=complex(0.3 * rng.normal(), math.pi * rng.random())))
            for _ in range(2)
        ]
    lhs, _ = FN.product_l2_sq(evs)
    inner, _ = FN.spacetime_inner(evs, evs, nonneg=True)
    assert inner.real == pytest.approx(lhs, rel=1e-12)


# The uniform cone rows used before the rows were graded, kept as the
# test-only reference: per row, panels no wider than the ridge width on
# [0, reach] plus a geometric tail to 6 reach, through panel_nodes.
def _reference_cone_row(d, reach, n_pan, r_refine):
    edges = np.linspace(0.0, reach, n_pan + 1)
    tail = FN._geom_edges(reach, 6.0 * reach, 6 * r_refine)
    r, wr = panel_nodes(np.concatenate([edges, tail[1:]]), 8)
    return r, wr


def _reference_cone_pass(F, d, win, level, ridge_width):
    t, wt = panel_nodes(FN._t_edges(win, level), 8)
    total = 0.0 + 0.0j
    r_refine = 1 << min(level, 1)
    for ti, wi in zip(t, wt):
        reach = abs(ti - win.t_center) + win.spread + 12.0 * ridge_width
        n_pan = max(6, int(math.ceil(reach / ridge_width))) * r_refine
        r, wr = _reference_cone_row(d, reach, n_pan, r_refine)
        row = F(np.array([ti]), r)[0]
        total += wi * np.dot(row * wr, r ** (d - 1))
    return sphere_area(d) * total


def _graded_row(ti, peaks, span, n, level, ridge_width):
    """One graded row built on its own: edges c_j + w S_m and c_j - w S_m,
    S_m = 1 + q + ... + q^(m-1) for m < n + 1, clipped to [0, span]."""
    q = 2.0 if level == 0 else math.sqrt(2.0)
    sums = [0.0]
    for m in range(n):
        sums.append(sums[-1] + q ** m)
    edges = [0.0, span]
    for c in np.unique(np.abs(ti - np.asarray(peaks))):
        edges += [min(max(c + sign * ridge_width * s, 0.0), span)
                  for s in sums for sign in ((1.0,) if s == 0.0 else (1.0, -1.0))]
    return panel_nodes(np.sort(edges), 8)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("level", [0, 1, 2])
@pytest.mark.parametrize("reach, ridge_width", [(0.7, 0.5), (3.1, 0.5), (17.3, 0.37),
                                                (123.4, 0.05), (1000.0, 0.1)])
def test_cone_row_templates_match_the_per_row_build(d, level, reach, ridge_width):
    # A pass shifts one offset template w (0, 1, 1 + q, ...) to every ridge
    # of every row of a chunk at once; each row must be its own build, less
    # the leading and trailing panel columns of zero width on every row of
    # its chunk.
    win = FN.Window(0.0, reach, 3.0 * reach, 2.0 * reach, 4.0 * reach, spread=0.25 * reach)
    peaks = [-0.25 * reach, 0.25 * reach, 0.25 * reach]  # two distinct ridges
    calls = []

    def F(t, r):
        calls.append((t, r))
        return np.ones_like(r)

    total = FN._cone_pass(F, d, win, level, ridge_width, peaks)
    t, wt = panel_nodes(FN._t_edges(win, level), 8)
    assert np.array_equal(np.concatenate([c[0] for c in calls]), t)
    assert all(r.size <= FN._CONE_CHUNK for _, r in calls)
    span = 6.0 * (np.abs(t) + win.spread + 12.0 * ridge_width)
    q = 2.0 if level == 0 else math.sqrt(2.0)
    # The offsets just reach the largest span: n is the fewest steps that
    # do, and the chunks hold as many rows of 2 (2n + 1) + 2 edges as fit.
    n = 1
    while ridge_width * (q ** n - 1) / (q - 1) < span.max() * (1 - 1e-12):
        n += 1
    assert ridge_width * (q ** (n - 1) - 1) / (q - 1) < span.max()
    rows = max(1, FN._CONE_CHUNK // (8 * (4 * n + 3)))
    assert [c[0].size for c in calls[:-1]] == [rows] * (len(calls) - 1)
    assert 0 < calls[-1][0].size <= rows
    start = 0
    for ti, got in calls:
        chunk = slice(start, start + ti.size)
        start += ti.size
        built = [_graded_row(tj, peaks, sj, n, level, ridge_width)
                 for tj, sj in zip(ti, span[chunk])]
        want = np.array([r for r, _ in built])
        width = np.array([w for _, w in built]).reshape(ti.size, 4 * n + 3, 8).sum(axis=2)
        live = np.flatnonzero(np.any(width > 0.0, axis=0))
        want = want[:, 8 * live[0]:8 * (live[-1] + 1)]
        assert got.shape == want.shape
        assert np.all(np.abs(got - want) <= 16 * np.finfo(float).eps * span[chunk, None])
        # The chunk's first and last panel columns have width on some row.
        assert np.any(got[:, 0] != got[:, 7]) and np.any(got[:, -8] != got[:, -1])
    # Weights: r^(d-1) is integrated exactly on every row, clipped panels add 0.
    exact = sphere_area(d) * np.dot(wt, span ** d / d)
    assert total == pytest.approx(exact, rel=1e-13)


def _untrimmed_cone_pass(F, d, win, level, ridge_width, peaks):
    """The cone pass before chunks dropped their zero-width panel columns:
    every row keeps all 2 (2n + 1) + 2 edges of every distinct ridge."""
    t, wt = panel_nodes(FN._t_edges(win, level), 8)
    span = 6.0 * (np.abs(t - win.t_center) + win.spread + 12.0 * ridge_width)
    q = 2.0 if level == 0 else math.sqrt(2.0)
    n = math.ceil(math.log1p((q - 1.0) * span.max() / ridge_width) / math.log(q))
    steps = ridge_width * np.cumsum(q ** np.arange(n))
    offsets = np.concatenate([-steps[::-1], [0.0], steps])
    peaks = np.unique(peaks)
    rows = max(1, FN._CONE_CHUNK // ((peaks.size * offsets.size + 1) * 8))
    total = 0.0
    for i in range(0, t.size, rows):
        ti, hi = t[i:i + rows], span[i:i + rows, None]
        ridges = (np.abs(ti[:, None] - peaks)[:, :, None] + offsets).reshape(ti.size, -1)
        edges = np.concatenate([np.zeros_like(hi), np.clip(ridges, 0.0, hi), hi], axis=1)
        r, wr = panel_nodes(np.sort(edges, axis=1), 8)
        wr *= r ** (d - 1)
        total += np.dot(wt[i:i + rows], np.sum(F(ti, r) * wr, axis=1))
    return sphere_area(d) * total


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("level", [0, 1, 2])
def test_cone_pass_matches_the_untrimmed_pass(d, level):
    # Dropping the zero-width panel columns drops only zero terms, so the
    # trimmed pass keeps the untrimmed one's value to rounding.
    rng = np.random.default_rng(70 + 10 * d + level)
    for k in (2, 3):
        evs = [
            PR.RadialEvaluator(P.wave_profile(
                d, complex(-math.exp(0.4 * rng.normal()), 0.5 * rng.normal()),
                c=complex(0.3 * rng.normal(), math.pi * rng.random()),
                sign=int(rng.choice([1, -1]))))
            for _ in range(k)
        ]
        win = FN.default_window(evs, tail_factor=3.0, core=6.0)
        F = FN.product_field(evs, modulus=True)
        ridge_width = 0.5 * min(ev.decay for ev in evs)
        peaks = [t for ev in evs for t in ev.t_peaks]
        got = FN._cone_pass(F, d, win, level, ridge_width, peaks)
        want = _untrimmed_cone_pass(F, d, win, level, ridge_width, peaks)
        assert got == pytest.approx(want, rel=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cone_pass_matches_the_per_row_reference(d, monkeypatch):
    # Graded rows and the uniform reference rows give the same integral
    # within the error the graded call reports, for |u_1 u_2|^2 and the
    # signed product, on a window where rows take many sizes.
    rng = np.random.default_rng(40 + d)
    evs = [
        PR.RadialEvaluator(P.wave_profile(
            d, complex(-math.exp(0.3 * rng.normal()), 0.35 * rng.normal()),
            c=complex(0.3 * rng.normal(), math.pi * rng.random())))
        for _ in range(2)
    ]
    win = FN.default_window(evs, tail_factor=3.0, core=6.0)
    modulus, signed = FN.product_field(evs, modulus=True), FN.product_field(evs)
    graded = FN._cone_pass

    def reference(F, dd, w, level, ridge_width, peaks):
        return _reference_cone_pass(F, dd, w, level, ridge_width)

    for ridge_width in (0.3, 0.45):
        for F, nonneg in ((modulus, True), (signed, False)):
            kw = dict(window=win, mode="cone", ridge_width=ridge_width, nonneg=nonneg)
            monkeypatch.setattr(FN, "_cone_pass", graded)
            new, err = FN.spacetime_integral(F, evs, **kw)
            monkeypatch.setattr(FN, "_cone_pass", reference)
            old, _ = FN.spacetime_integral(F, evs, **kw)
            assert abs(new - old) <= err
            if nonneg:  # and within the driver's default rel_tol
                assert new == pytest.approx(old, rel=1e-6)
        t, _ = panel_nodes(FN._t_edges(win, 2), 8)
        reach = np.abs(t - win.t_center) + win.spread + 12.0 * ridge_width
        assert len(np.unique(np.ceil(reach / ridge_width))) > 20  # many reference row sizes


# Cone-driver |u_1 ... u_k|^2 integrals of random closed-form tuples, on
# criterion 07's (d, k) strata.  The window and every grid are built
# relative to the peaks and the decay scale, so the symmetries hold to
# rounding, not only to the quadrature tolerance.
@st.composite
def _closed_form_tuples(draw, pairs=False):
    # Pairs skip d = 2, whose k = 2 right-hand side diverges.
    strata = [(3, 2), (5, 2), (4, 2)] + ([] if pairs else [(2, 3)])
    d, k = draw(st.sampled_from(strata))
    unit = st.floats(-1.0, 1.0)
    return [
        P.wave_profile(d, complex(-math.exp(0.4 * draw(unit)), 0.5 * draw(unit)),
                       c=complex(0.3 * draw(unit), math.pi * draw(unit)),
                       sign=draw(st.sampled_from([1, -1])))
        for _ in range(k)
    ]


def _cone_lhs(profs):
    evs = [PR.RadialEvaluator(p) for p in profs]
    val, _ = FN.product_l2_sq(evs, window=FN.default_window(evs, tail_factor=3.0, core=6.0),
                              mode="cone")
    return val


@settings(max_examples=15, deadline=None, derandomize=True)
@given(profs=_closed_form_tuples(), t0=st.floats(-3.0, 3.0))
def test_cone_lhs_is_invariant_under_time_translation(profs, t0):
    moved = [P.symmetry_apply(P.Translate(t0), p) for p in profs]
    assert _cone_lhs(moved) == pytest.approx(_cone_lhs(profs), rel=1e-12)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(profs=_closed_form_tuples(), lam=st.floats(0.5, 2.0))
def test_cone_lhs_scales_as_lambda_to_minus_d_plus_1(profs, lam):
    d = profs[0].d
    scaled = [P.symmetry_apply(P.Scaling(1.0, lam), p) for p in profs]
    assert lam ** (d + 1) * _cone_lhs(scaled) == pytest.approx(_cone_lhs(profs), rel=1e-12)


@settings(max_examples=15, deadline=None, derandomize=True)
@given(profs=_closed_form_tuples(), theta=st.floats(-math.pi, math.pi))
def test_cone_lhs_is_invariant_under_phase(profs, theta):
    rotated = [P.symmetry_apply(P.Phase(theta), p) for p in profs]
    assert _cone_lhs(rotated) == pytest.approx(_cone_lhs(profs), rel=1e-12)


def _quotient(profs):
    evs = [PR.RadialEvaluator(p) for p in profs]
    return FN.multilinear_quotient(profs, 2000, 7, mode="cone",
                                   window=FN.default_window(evs, tail_factor=3.0, core=6.0))


# The whole k = 2 quotient, LHS over the Monte Carlo RHS: translations and
# phases leave |fhat_j|^2, so the RHS keeps its bits, and the LHS grids move
# with the peaks, so the ratio holds to rounding.
@settings(max_examples=20, deadline=None, derandomize=True)
@given(profs=_closed_form_tuples(pairs=True), t0=st.floats(-3.0, 3.0),
       theta=st.floats(-math.pi, math.pi))
def test_quotient_is_invariant_under_translation_and_phase(profs, t0, theta):
    base = _quotient(profs)
    for g in (P.Translate(t0), P.Phase(theta)):
        moved = _quotient([P.symmetry_apply(g, p) for p in profs])
        assert (moved.rhs, moved.rhs_err) == (base.rhs, base.rhs_err)
        assert moved.ratio == pytest.approx(base.ratio, rel=1e-12)
