"""Propagator evaluation: oscillatory quadrature, closed forms, FFT grid."""

import math
import re
import warnings
from pathlib import Path

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate, special

import strichartz_lab
from strichartz_lab import functionals as FN
from strichartz_lab import profiles as P
from strichartz_lab import propagators as PR
from strichartz_lab.constants import SCHRODINGER, WAVE, sphere_area
from strichartz_lab.quadrules import QuadratureError, panel_nodes


def test_angular_kernel_values():
    for d in (2, 3, 4, 5, 6):
        assert PR.angular_kernel(d, np.array([0.0]))[0] == pytest.approx(
            sphere_area(d), rel=1e-12
        )
        # Against the Bessel formula at generic arguments.
        s = np.array([0.7, 3.3, 11.0])
        nu = 0.5 * (d - 2)
        want = (2 * math.pi) ** (d / 2.0) * special.jv(nu, s) / s ** nu
        assert np.allclose(PR.angular_kernel(d, s), want, rtol=1e-11)


def test_angular_kernel_series_and_elementary_branches_agree():
    # Both branches against |S^{d-1}| 0F1(d/2; -s^2/4) around the cutoff.
    mpmath.mp.dps = 30
    for d in (2, 3, 4, 5):
        for s in (0.049, 0.051, 0.2):
            want = sphere_area(d) * float(mpmath.hyp0f1(d / 2.0, -(s * s) / 4.0))
            got = PR.angular_kernel(d, np.array([s]))[0]
            assert got == pytest.approx(want, rel=1e-11)


def _masked_angular_kernel(d, s):
    """The boolean gather/scatter form of angular_kernel, kept as a reference."""
    s = np.asarray(s, dtype=float)
    out = np.empty_like(s)
    small = np.abs(s) < 0.05
    if np.any(small):
        z = s[small] ** 2
        out[small] = sphere_area(d) * (
            1.0
            - z / (2.0 * d)
            + z * z / (8.0 * d * (d + 2.0))
            - z * z * z / (48.0 * d * (d + 2.0) * (d + 4.0))
        )
    big = ~small
    if np.any(big):
        sb = s[big]
        if d == 2:
            out[big] = 2.0 * math.pi * special.j0(sb)
        elif d == 3:
            out[big] = 4.0 * math.pi * np.sin(sb) / sb
        elif d == 4:
            out[big] = (2.0 * math.pi) ** 2 * special.j1(sb) / sb
        elif d == 5:
            out[big] = 8.0 * math.pi ** 2 * (np.sin(sb) / sb - np.cos(sb)) / sb ** 2
        else:
            nu = 0.5 * (d - 2)
            out[big] = (2.0 * math.pi) ** (0.5 * d) * special.jv(nu, np.abs(sb)) / np.abs(sb) ** nu
    return out


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_angular_kernel_equals_the_masked_form_without_warnings(d):
    rng = np.random.default_rng(d)
    edges = [0.0, 0.0499, -0.0499, 0.05, -0.05, 1e-300, 0.3, -2.5, 1e3, -1e3, 7.7e5]
    s = np.concatenate([edges, rng.uniform(-0.06, 0.06, 200), rng.uniform(-500.0, 500.0, 200)])
    grid = np.outer(np.abs(s[:40]), s[40:80])  # the (rho x r) kernel shape
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        got, got_grid = PR.angular_kernel(d, s), PR.angular_kernel(d, grid)
    assert np.array_equal(got, _masked_angular_kernel(d, s))
    assert np.array_equal(got_grid, _masked_angular_kernel(d, grid))


def test_quadrature_working_set_is_a_few_kernel_blocks(traced_peak):
    # The traced peak was 63.0 MB here when a kernel chunk held up to 4e6
    # entries and made four or five temporaries of that size; 2 MB blocks
    # built in place leave the grid's own arrays and a few blocks (20.1 MB).
    ev = PR.RadialEvaluator(P.wave_profile(5, -1.0), method="quadrature",
                            quad=PR.QuadSpec(1e-6, 1e-11))
    t, r = np.linspace(-6.0, 6.0, 576), np.linspace(0.0, 10.0, 448)
    assert traced_peak(ev.eval_grid, t, r) <= 24e6


def test_quadrature_modulus_adds_no_error_array(traced_peak):
    # The (t x r) error array is built only for with_error=True, and |u|^2
    # is squared in place: 20.9 MB when both were made on every call.
    ev = PR.RadialEvaluator(P.wave_profile(5, -1.0), method="quadrature",
                            quad=PR.QuadSpec(1e-6, 1e-11))
    t, r = np.linspace(-6.0, 6.0, 576), np.linspace(0.0, 10.0, 448)
    assert traced_peak(ev.eval_grid, t, r, modulus=True) <= 20e6


@pytest.mark.parametrize("d", [3, 4, 5])
def test_kernel_blocks_only_regroup_the_rho_sum(d, monkeypatch):
    ev = PR.RadialEvaluator(P.wave_profile(d, complex(-1.0, 0.3), c=0.2), method="quadrature",
                            quad=PR.QuadSpec(1e-6, 1e-11))
    t, r = np.linspace(-6.0, 6.0, 96), np.linspace(0.0, 10.0, 448)
    calls = []
    add = PR.RadialEvaluator._add_chunk
    monkeypatch.setattr(PR.RadialEvaluator, "_add_chunk",
                        lambda self, *args: calls.append(1) or add(self, *args))
    blocked = ev.eval_grid(t, r)
    n_blocked = len(calls)
    calls.clear()
    monkeypatch.setattr(PR, "_KERNEL_BLOCK_BYTES", 1 << 40)  # one block per rung
    whole = ev.eval_grid(t, r)
    assert len(calls) < n_blocked
    assert np.max(np.abs(blocked - whole)) <= 1e-14 * np.max(np.abs(whole))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(periods=st.floats(0.0, 1e5), level=st.integers(0, 6))
def test_rung_ladder_never_uses_fewer_panels(periods, level):
    # Reference: the panel count a block used before the rung ladder.
    before = max(24, int(math.ceil(2.0 * periods)) + 8)
    # The base rung of the two-panels-per-period rule, the lowest rung
    # whose 24 << m panels reach `before`.
    old_m = (-(-before // 24) - 1).bit_length()
    need = max(24, int(math.ceil(periods)) + 8)
    m = PR._base_rung(periods)
    panels = PR._MIN_PANELS << m
    assert 2 * panels >= before
    assert panels >= need and (m == 0 or panels < 2 * need)
    # A block accepts only level 1 or above, which has the panels of the
    # reference at every level.
    assert PR._MIN_PANELS << (m + 1 + level) >= before << level
    # The last rung before QuadratureError is no lower than it was.
    assert m + PR._MAX_LEVELS >= old_m + 6


@pytest.mark.parametrize("rung", [0, 1, 3])
def test_rung_rule_is_the_uniform_panel_rule(rung):
    R = 7.3
    n = PR._MIN_PANELS << rung
    rho, w = PR._rung_rule(R, rung)
    want_rho, want_w = panel_nodes(np.linspace(0.0, R, n + 1), 12)
    assert rho.size == w.size == 12 * n
    assert np.allclose(rho, want_rho, rtol=0.0, atol=1e-14 * R)
    assert np.allclose(w, want_w, rtol=1e-12, atol=0.0)


def test_each_rung_is_built_once_per_call_and_shared_by_blocks(monkeypatch):
    p = P.schrodinger_profile(3, -1.0 + 0.2j, c=0.1)
    ev = PR.RadialEvaluator(p, method="quadrature")
    built = []
    rule = PR._rung_rule
    monkeypatch.setattr(PR, "_rung_rule", lambda R, k: built.append(k) or rule(R, k))
    t = np.linspace(-6.0, 6.0, 5 * PR._T_BLOCK + 7)
    vals = ev.eval_grid(t, np.linspace(0.0, 5.0, 9))
    assert len(built) == len(set(built)) and built == sorted(built)
    assert built == list(range(built[0], built[-1] + 1))
    # Every block takes at least two levels, so per-block rules would be
    # built at least twice per block.
    assert len(built) < 2 * 6
    assert np.allclose(vals, PR.RadialEvaluator(p).eval_grid(t, np.linspace(0.0, 5.0, 9)),
                       rtol=1e-9, atol=0.0)


def test_quadrature_matches_closed_kernel():
    for d in (2, 3, 4, 5):
        p = P.wave_profile(d, -1.0 + 0.3j, c=0.2 - 0.5j)
        ev_q = PR.RadialEvaluator(p, method="quadrature")
        ev_c = PR.RadialEvaluator(p)
        ts = np.array([0.0, 0.7, -2.3, 5.0])
        rs = np.array([0.0, 0.5, 1.7, 4.0, 9.0])
        q = ev_q.eval_grid(ts, rs)
        c = ev_c.eval_grid(ts, rs)
        assert np.max(np.abs(q - c) / np.maximum(np.abs(c), 1e-14)) < 1e-9


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("sign", [1, -1])
def test_rung_quadrature_matches_closed_wave_fields_on_many_blocks(d, sign):
    p = P.wave_profile(d, -1.0 + 0.3j, c=0.2 - 0.5j, sign=sign)
    ts = np.linspace(-8.0, 8.0, 2 * PR._T_BLOCK + 5)  # three blocks, different rungs
    rs = np.array([0.0, 0.5, 1.7, 4.0, 9.0])
    q = PR.RadialEvaluator(p, method="quadrature").eval_grid(ts, rs)
    c = PR.RadialEvaluator(p).eval_grid(ts, rs)
    assert np.max(np.abs(q - c) / np.maximum(np.abs(c), 1e-14)) < 1e-9


def test_rung_quadrature_matches_the_schrodinger_gaussian():
    for d in (2, 3, 5):
        p = P.schrodinger_profile(d, -1.0 + 0.4j, c=0.3 + 0.2j)
        ts = np.linspace(-3.0, 3.0, PR._T_BLOCK + 13)
        rs = np.linspace(0.0, 6.0, 7)
        q = PR.RadialEvaluator(p, method="quadrature").eval_grid(ts, rs)
        c = PR.RadialEvaluator(p).eval_grid(ts, rs)
        assert np.allclose(q, c, rtol=1e-9, atol=1e-14 * np.max(np.abs(c)))


@pytest.mark.parametrize("d", [2, 3, 4, 5])
@pytest.mark.parametrize("a", [-1.0 + 0.4j, -0.8 - 0.6j])
def test_rung_quadrature_matches_the_schrodinger_gaussian_on_a_wide_window(d, a):
    # |t| <= 8 and r <= 16: three blocks over two base rungs, so the
    # accepted values come from rungs shared by blocks at different levels.
    p = P.schrodinger_profile(d, a, c=0.3 + 0.2j)
    ts = np.linspace(-8.0, 8.0, 2 * PR._T_BLOCK + 5)
    rs = np.linspace(0.0, 16.0, 9)
    q = PR.RadialEvaluator(p, method="quadrature").eval_grid(ts, rs)
    c = PR.RadialEvaluator(p).eval_grid(ts, rs)
    assert np.allclose(q, c, rtol=1e-9, atol=1e-14 * np.max(np.abs(c)))


@pytest.mark.parametrize("family", ["wave", "schrodinger"])
def test_row_values_do_not_depend_on_the_other_blocks_in_the_call(family):
    if family == "wave":
        p = P.wave_profile(3, -1.0 + 0.4j, c=0.1)
    else:
        p = P.schrodinger_profile(3, -1.0 + 0.3j, c=0.2j)
    ev = PR.RadialEvaluator(p, method="quadrature")
    rng = np.random.default_rng(8)
    # Distinct |t|, so every call forms the same 48-row blocks by |t|.
    mags = np.sort(rng.uniform(0.0, 6.0, 3 * PR._T_BLOCK + 11))
    t_sorted = mags * rng.choice([-1.0, 1.0], mags.size)
    blocks = [t_sorted[i : i + PR._T_BLOCK] for i in range(0, mags.size, PR._T_BLOCK)]
    r = np.linspace(0.0, 5.0, 6)
    perm = rng.permutation(mags.size)
    full = dict(zip(t_sorted[perm], ev.eval_grid(t_sorted[perm], r)))
    for pick in ([0], [1], [3], [0, 2], [1, 3], [2, 3]):
        t = rng.permutation(np.concatenate([blocks[i] for i in pick]))
        for ti, row in zip(t, ev.eval_grid(t, r)):
            assert np.max(np.abs(row - full[ti])) <= 1e-13 * np.max(np.abs(full[ti]))


def test_center_value_formula_and_centerline_law():
    p = P.wave_profile(5, -1.0)
    # u(t, 0) = (2pi)^{-d} |S^{d-1}| Gamma(d-1) / (-(a+it))^{d-1}, checked
    # against quadrature at r = 1e-6.
    for t in (0.0, 0.8, -3.0):
        want = PR.wave_center_value(p, t)
        got = PR.wave_eval(p, t, 1e-6, method="quadrature")
        assert got == pytest.approx(want, rel=1e-8)
    # d = 5 center-line law to 1e-8 relative on t in [-10, 10].
    c0 = 6 * sphere_area(5) / (2 * math.pi) ** 5
    for t in np.linspace(-10, 10, 9):
        got = abs(PR.wave_eval(p, float(t), 0.0, method="quadrature"))
        want = c0 / abs(1.0 - 1j * t) ** 4
        assert got == pytest.approx(want, rel=1e-8)


def test_time_symmetry_real_parameters():
    p = P.wave_profile(5, -1.0)
    for t, r in [(1.3, 0.8), (4.0, 2.0)]:
        a = PR.wave_eval(p, t, r, method="quadrature")
        b = PR.wave_eval(p, -t, r, method="quadrature")
        assert b == pytest.approx(np.conj(a), rel=1e-10)


def test_initial_slice_real_decreasing():
    p = P.wave_profile(5, -1.0)
    ev = PR.RadialEvaluator(p, method="quadrature")
    row = ev.eval_grid(np.array([0.0]), np.linspace(0.0, 5.0, 26))[0]
    assert np.max(np.abs(row.imag)) < 1e-12
    assert np.all(row.real > 0)
    assert np.all(np.diff(row.real) < 0)


def test_convergence_error_estimates():
    # Halving tolerance changes values by less than the reported error.
    p = P.wave_profile(3, -1.0 + 0.4j, c=0.1)
    loose = PR.RadialEvaluator(p, method="quadrature",
                               quad=PR.QuadSpec(rel_tol=1e-6, abs_tol=1e-10))
    tight = PR.RadialEvaluator(p, method="quadrature",
                               quad=PR.QuadSpec(rel_tol=5e-7, abs_tol=5e-11))
    ts = np.linspace(-3, 3, 10)
    rs = np.linspace(0, 6, 10)
    vl, el = loose.eval_grid(ts, rs, with_error=True)
    vt = tight.eval_grid(ts, rs)
    assert np.all(np.abs(vl - vt) <= el + 1e-12)


def test_evaluator_validation():
    bad = P.wave_profile(5, -1.0, b=np.array([1.5, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        PR.RadialEvaluator(bad)
    tilted = P.wave_profile(5, -1.0, b=np.array([0.5, 0, 0, 0, 0]))
    with pytest.raises(ValueError):
        PR.RadialEvaluator(tilted)
    with pytest.raises(ValueError):
        PR.RadialEvaluator(radial_fn=lambda r: np.exp(-r))  # missing decay/d


def test_translated_profile_center():
    # Imaginary tilt is a pure translation: same radial values about -Im(b).
    base = P.wave_profile(5, -1.0)
    moved = P.wave_profile(5, -1.0, b=1j * np.array([0.7, 0, 0, 0, 0]))
    assert np.allclose(moved.center, [-0.7, 0, 0, 0, 0])
    va = PR.wave_eval(base, 0.9, 1.3)
    vb = PR.wave_eval(moved, 0.9, 1.3)
    assert vb == pytest.approx(va, rel=1e-12)


def test_schro_gaussian_eval_against_quadrature():
    # t = 0 is the plain inverse Fourier transform of the Gaussian data.
    p = P.schrodinger_profile(3, -1.0, c=0.2)
    for x1 in (0.0, 0.9):
        def fn_re(rho):
            val = rho * np.sin(rho * x1) if x1 else rho * rho
            return float(np.exp(-rho * rho + 0.2) * val)

        if x1:
            val, _ = integrate.quad(fn_re, 0, 10, epsabs=1e-13)
            want = 4 * math.pi * val / x1 / (2 * math.pi) ** 3
        else:
            val, _ = integrate.quad(fn_re, 0, 10, epsabs=1e-13)
            want = 4 * math.pi * val / (2 * math.pi) ** 3
        got = PR.schro_gaussian_eval(p, 0.0, [x1, 0.0, 0.0])
        assert got.real == pytest.approx(want, rel=1e-10)
        assert abs(got.imag) < 1e-13


def test_schro_gaussian_mass_conservation():
    p = P.schrodinger_profile(3, -0.7, c=-0.1)

    def mass(t):
        # Packet spread grows like |it - a|, so the radial cut must track t.
        rmax = 30.0 + 12.0 * abs(t)
        fn = lambda r: abs(PR.schro_gaussian_eval(p, t, [r, 0, 0])) ** 2 * r * r
        val, _ = integrate.quad(fn, 0, rmax, epsabs=0, epsrel=1e-13, limit=300)
        return 4 * math.pi * val

    m0, m1, m2 = mass(0.0), mass(1.1), mass(5.0)
    assert m1 == pytest.approx(m0, rel=1e-12)
    assert m2 == pytest.approx(m0, rel=1e-12)


def test_schro_gaussian_branch_continuity_in_time():
    # (pi/(it-a))^{d/2} stays on the principal branch: u(t, 0) is smooth
    # in t (a branch flip would show as an O(|u|) second difference).
    p = P.schrodinger_profile(5, -0.5)
    ts = np.linspace(-8, 8, 400)
    vals = np.array([PR.schro_gaussian_eval(p, float(t), [0.0] * 5) for t in ts])
    second = np.abs(vals[2:] - 2 * vals[1:-1] + vals[:-2])
    # Smooth curvature at this step is ~6e-4 |u|_max; a sign flip jumps by
    # ~2 |u|_max in a single step, two decades above this threshold.
    assert np.max(second) < 0.1 * np.max(np.abs(vals))


def test_grid1d_invariants_and_identity():
    with pytest.raises(ValueError):
        PR.Grid1D(100, 10.0)
    with pytest.raises(ValueError):
        PR.Grid1D(1000, 10.0)  # not a power of two
    g = PR.grid_from_freq_data(lambda k: np.exp(-((k - 3.0) ** 2)), 1024, 40.0)
    out = PR.schro_fft_1d(g, 0.0)
    assert np.allclose(out.values, g.values)


def test_grid1d_plane_wave_eigenphase():
    n, L = 1024, 20.0
    g = PR.Grid1D(n, L)
    k0 = g.k[37]
    g.values = np.exp(1j * k0 * g.x)
    out = PR.schro_fft_1d(g, 0.63, check_boundary=False)
    want = np.exp(-1j * 0.63 * k0 ** 2) * g.values
    assert np.max(np.abs(out.values - want)) < 1e-10


def test_grid1d_vs_gaussian_closed_form():
    n, L = 4096, 60.0
    p = P.schrodinger_profile(1, -1.0)
    g = PR.grid_from_freq_data(lambda k: np.exp(-(k ** 2)), n, L)
    out = PR.schro_fft_1d(g, 0.7)
    inner = slice(n // 4, 3 * n // 4)
    want = np.array([PR.schro_gaussian_eval(p, 0.7, [x]) for x in out.x[inner]])
    assert np.max(np.abs(out.values[inner] - want)) < 1e-8


def test_grid1d_mass_conservation_and_boundary_guard():
    n, L = 1024, 30.0
    g = PR.grid_from_freq_data(lambda k: np.exp(-((k - 2.0) ** 2)), n, L)
    m0 = g.l2_mass()
    out = PR.schro_fft_1d(g, 2.2, check_boundary=False)
    assert out.l2_mass() == pytest.approx(m0, rel=1e-12)
    bad = PR.Grid1D(256, 5.0, values=np.ones(256))
    with pytest.raises(ValueError):
        PR.schro_fft_1d(bad, 0.1)


@pytest.mark.parametrize("method", ["quadature", "closed_form", "Auto"])
def test_unknown_method_is_rejected(method):
    with pytest.raises(ValueError, match="method"):
        PR.RadialEvaluator(P.wave_profile(3, -1.0), method=method)


@pytest.mark.parametrize("name", ["rel_tol", "abs_tol"])
@pytest.mark.parametrize("bad", [0.0, -1e-9, math.nan, math.inf])
def test_quad_spec_rejects_a_tolerance_that_is_not_finite_and_positive(name, bad):
    with pytest.raises(ValueError, match=name):
        PR.QuadSpec(**{name: bad})
    PR.QuadSpec(rel_tol=1e-17, abs_tol=1e-40)


@pytest.mark.parametrize("family", [WAVE, SCHRODINGER])
@pytest.mark.parametrize("amp", [math.nan, math.inf, 0.0, -1.0])
def test_amp_bound_that_is_not_finite_and_positive_is_rejected(family, amp):
    with pytest.raises(ValueError, match="amp_bound"):
        PR.RadialEvaluator(radial_fn=lambda rho: np.exp(-rho * rho), decay=1.0,
                           amp_bound=amp, d=4, family=family)


def _envelope_tail(d, sigma, amp, R, family=SCHRODINGER):
    """(2pi)^{-d} |S^{d-1}| int_R^inf of the envelope integrand by mpmath
    quadrature of the integrand itself: amp e^{-sigma rho^2} rho^{d-1}
    (Schrodinger) or amp e^{-sigma rho} rho^{d-2} (wave) drho."""
    with mpmath.workdps(30):
        area = 2 * mpmath.pi ** (mpmath.mpf(d) / 2) / mpmath.gamma(mpmath.mpf(d) / 2)
        if family == WAVE:
            f = lambda rho: amp * mpmath.exp(-sigma * rho) * rho ** (d - 2)
        else:
            f = lambda rho: amp * mpmath.exp(-sigma * rho * rho) * rho ** (d - 1)
        return float((2 * mpmath.pi) ** (-d) * area * mpmath.quad(f, [R, R + 1, mpmath.inf]))


def _cut(d, sigma, amp, quad, family=SCHRODINGER):
    return PR.RadialEvaluator(radial_fn=lambda rho: amp * np.exp(-sigma * rho * rho),
                              decay=sigma, amp_bound=amp, d=d, family=family,
                              quad=quad)._truncation()


@pytest.mark.parametrize("quad", [PR.DEFAULT_QUAD, PR.QuadSpec(1e-5, 1e-9),
                                  PR.QuadSpec(1e-6, 1e-10)])
@pytest.mark.parametrize("sigma", [0.02, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_schrodinger_cut_is_the_smallest_certified_radius(d, sigma, quad):
    target = quad.rel_tol * quad.abs_tol
    for amp in (0.5, 1.0, 7.0):
        R = _cut(d, sigma, amp, quad)
        assert _envelope_tail(d, sigma, amp, R) <= target * (1.0 + 1e-9)
        assert _envelope_tail(d, sigma, amp, 0.99 * R) > target


@pytest.mark.parametrize("quad", [PR.DEFAULT_QUAD, PR.QuadSpec(1e-5, 1e-9),
                                  PR.QuadSpec(1e-6, 1e-10)])
@pytest.mark.parametrize("sigma", [0.02, 0.3, 1.0, 3.0])
@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_wave_cut_is_the_smallest_certified_radius(d, sigma, quad):
    target = quad.rel_tol * quad.abs_tol
    for amp in (0.5, 1.0, 7.0):
        R = _cut(d, sigma, amp, quad, family=WAVE)
        assert _envelope_tail(d, sigma, amp, R, family=WAVE) <= target * (1.0 + 1e-9)
        assert _envelope_tail(d, sigma, amp, 0.99 * R, family=WAVE) > target


@pytest.mark.parametrize("family", [WAVE, SCHRODINGER])
def test_cut_whose_target_underflows_names_the_tolerances(family):
    # rel_tol * abs_tol = 1e-317 over an envelope scale of about 1e300
    # underflows to 0, where the cut would be infinite.
    ev = PR.RadialEvaluator(radial_fn=lambda rho: np.exp(-rho * rho), decay=1.0,
                            amp_bound=1e300, d=3, family=family,
                            quad=PR.QuadSpec(1e-17, 1e-300))
    with pytest.raises(ValueError, match=r"rel_tol \* abs_tol.*amp_bound"):
        ev.eval_grid([0.0, 1.0], [0.5, 1.0])


def test_gammainccinv_is_called_only_in_propagators():
    # One tail-cut rule: RadialEvaluator._truncation.
    src = Path(strichartz_lab.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if re.search(r"gammainccinv", p.read_text()))
    assert users == ["propagators.py"]


def test_schrodinger_cut_covers_the_slow_decay_tail():
    # d = 5, sigma = 0.02, default QuadSpec: the tail past the uncertified
    # guess sqrt(log(1 / abs_tol) / sigma) + 2 is about 198 abs_tol.
    quad, sigma = PR.DEFAULT_QUAD, 0.02
    guess = math.sqrt(math.log(1.0 / quad.abs_tol) / sigma) + 2.0
    assert _envelope_tail(5, sigma, 1.0, guess) > 100.0 * quad.abs_tol
    R = _cut(5, sigma, 1.0, quad)
    assert _envelope_tail(5, sigma, 1.0, R) <= quad.rel_tol * quad.abs_tol * (1.0 + 1e-9)


def test_unconverged_quadrature_raises_with_best_and_error():
    p = P.wave_profile(3, -1.0)
    ev = PR.RadialEvaluator(p, method="quadrature",
                            quad=PR.QuadSpec(rel_tol=1e-17, abs_tol=1e-40))
    ts, rs = np.array([0.0, 1.5]), np.array([0.5, 2.0])
    with pytest.raises(QuadratureError) as exc:
        ev.eval_grid(ts, rs)
    best, error = exc.value.best, exc.value.error
    assert best.shape == error.shape == (2, 2)
    assert np.allclose(best, PR.RadialEvaluator(p).eval_grid(ts, rs), rtol=1e-8, atol=0.0)
    assert np.all(error >= 0.0) and np.max(error) > 0.0


@settings(max_examples=60, deadline=None, derandomize=True)
@given(
    d=st.sampled_from([2, 3, 4, 5]),
    sign=st.sampled_from([1, -1]),
    sigma=st.floats(0.05, 5.0),
    shift=st.floats(-5.0, 5.0),
    c=st.complex_numbers(max_magnitude=3.0),
    dt=st.lists(st.floats(-1e3, 1e3), min_size=1, max_size=3),
    r_far=st.lists(st.floats(0.0, 1e4), min_size=1, max_size=3),
)
def test_closed_wave_kernels_match_modulus_and_principal_power(d, sign, sigma, shift, c,
                                                               dt, r_far):
    p = P.wave_profile(d, complex(-sigma, shift), c=c, sign=sign)
    ev = PR.RadialEvaluator(p)
    t_peak = ev.t_peaks[0]
    t = t_peak + np.array(dt)
    ridge = np.abs(t - t_peak)  # the travelling peak sits at r = |t - t_peak|
    r = np.concatenate([ridge, ridge * (1.0 + 1e-9), r_far])
    u = ev.eval_grid(t, r)
    abs2 = ev.eval_grid(t, r, modulus=True)
    assert abs2.dtype == float
    assert np.max(np.abs(abs2 / np.abs(u) ** 2 - 1.0)) <= 1e-14
    # Integer powers and one square root against the exact principal
    # power of the same base.
    z = -(p.a + 1j * sign * t[:, None])
    base = z * z + r[None, :] ** 2
    with mpmath.workdps(40):
        scale = mpmath.exp(mpmath.mpc(p.c)) * PR.closed_form_kappa(d)
        worst = max(
            float(abs(mpmath.mpc(got) / (scale * mpmath.power(mpmath.mpc(b), -(d - 1) / 2.0)) - 1))
            for got, b in zip(u.ravel(), base.ravel())
        )
    assert worst <= 4e-15


def _fields_without_modulus_kernel():
    wave = PR.RadialEvaluator(P.wave_profile(3, -1.0 + 0.4j, c=0.1))
    quad = PR.RadialEvaluator(P.wave_profile(3, -1.0 + 0.4j, c=0.1), method="quadrature",
                              quad=PR.QuadSpec(rel_tol=1e-6, abs_tol=1e-10))
    schro = PR.RadialEvaluator(P.schrodinger_profile(3, -1.0 + 0.3j, c=0.2j))
    fp, fm = P.canonical_energy_pair()
    return {
        "quadrature": quad,
        "schrodinger": schro,
        "sum": FN.MappedEvaluator(np.add, PR.RadialEvaluator(fp), PR.RadialEvaluator(fm)),
        "conj": FN.MappedEvaluator(np.conj, wave),
        "negated": FN.MappedEvaluator(np.negative, wave),
    }


@pytest.mark.parametrize("name", sorted(_fields_without_modulus_kernel()))
def test_fields_without_modulus_kernel_return_abs_squared(name):
    ev = _fields_without_modulus_kernel()[name]
    t, r = np.linspace(-3.0, 3.0, 5), np.linspace(0.0, 6.0, 4)
    assert np.array_equal(ev.eval_grid(t, r, modulus=True), np.abs(ev.eval_grid(t, r)) ** 2)


def test_modulus_of_quadrature_field_carries_a_bound():
    p = P.wave_profile(3, -1.0 + 0.4j, c=0.1)
    loose = PR.RadialEvaluator(p, method="quadrature",
                               quad=PR.QuadSpec(rel_tol=1e-6, abs_tol=1e-10))
    t, r = np.linspace(-3.0, 3.0, 60), np.linspace(0.0, 6.0, 6)  # two time blocks
    abs2, err = loose.eval_grid(t, r, with_error=True, modulus=True)
    exact = PR.RadialEvaluator(p).eval_grid(t, r, modulus=True)
    assert np.all(np.abs(abs2 - exact) <= err + 1e-12)


def test_quadrature_path_rejects_a_2d_radial_grid():
    ev = PR.RadialEvaluator(P.wave_profile(3, -1.0 + 0.4j, c=0.1), method="quadrature")
    t = np.linspace(-1.0, 1.0, 3)
    with pytest.raises(ValueError, match="1-D r"):
        ev.eval_grid(t, np.tile(np.linspace(0.0, 2.0, 4), (3, 1)))


@pytest.mark.parametrize("modulus", [False, True])
@pytest.mark.parametrize("name", ["wave3", "wave4", "wave5", "wave2", "schrodinger", "sum"])
def test_closed_forms_on_2d_r_equal_the_1d_calls_row_by_row(name, modulus):
    # Row i of a 2-D r is evaluated at time t[i]: the cone driver's graded rows.
    fp, fm = P.canonical_energy_pair()
    ev = {
        "wave3": PR.RadialEvaluator(P.wave_profile(3, -1.0 + 0.4j, c=0.1)),
        "wave4": PR.RadialEvaluator(P.wave_profile(4, -0.7 - 0.3j, c=0.2j, sign=-1)),
        "wave5": PR.RadialEvaluator(P.wave_profile(5, -1.3, c=0.3 - 0.1j)),
        "wave2": PR.RadialEvaluator(P.wave_profile(2, -0.9 + 0.2j)),
        "schrodinger": PR.RadialEvaluator(P.schrodinger_profile(3, -1.0 + 0.3j, c=0.2j)),
        "sum": FN.MappedEvaluator(np.add, PR.RadialEvaluator(fp), PR.RadialEvaluator(fm)),
    }[name]
    rng = np.random.default_rng(7)
    t = rng.normal(scale=5.0, size=6)
    r = np.abs(rng.normal(scale=4.0, size=(6, 9)))
    got = ev.eval_grid(t, r, modulus=modulus)
    assert got.shape == r.shape
    for i in range(t.size):
        assert np.array_equal(got[i], ev.eval_grid(t[i:i + 1], r[i], modulus=modulus)[0])
