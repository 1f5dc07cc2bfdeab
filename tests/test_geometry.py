"""Minkowski geometry, boosts, Galilean maps, interaction weights."""

import math
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strichartz_lab import geometry as G
from strichartz_lab import mc as MC

_COORD = st.floats(-10.0, 10.0)


def test_minkowski_form_examples():
    assert G.minkowski_form(G.ConePoint(1.0, np.zeros(3))) == 1.0
    e1 = np.array([1.0, 0.0, 0.0])
    assert G.minkowski_form(G.ConePoint(1.0, e1)) == 0.0
    assert G.minkowski_form(G.ConePoint(2.0, np.array([1.0, 1.0]))) == 2.0


def test_boost_identity_and_domain():
    p = G.ConePoint(1.3, np.array([0.2, -0.4]))
    q = G.lorentz_boost(np.zeros(2), p)
    assert q.tau == p.tau and np.all(q.xi == p.xi)
    with pytest.raises(ValueError):
        G.boost_matrix(np.array([1.0, 0.0]))
    with pytest.raises(ValueError):
        G.boost_matrix(np.array([0.8, 0.7]))


def test_boost_d1_hand_value():
    q = G.lorentz_boost([0.6], G.ConePoint(1.0, [0.0]))
    assert q.tau == pytest.approx(1.25, rel=1e-14)
    assert q.xi[0] == pytest.approx(-0.75, rel=1e-14)


def test_normalizing_boost_restores_point():
    rng = np.random.default_rng(7)
    for d in (2, 3, 5):
        for _ in range(50):
            xi = rng.normal(size=d)
            tau = np.linalg.norm(xi) * (1.0 + 0.1 + 2.0 * rng.random())
            p = G.ConePoint(tau, xi)
            v = G.normalizing_boost(p)
            rho = G.minkowski_form(p)
            q = G.lorentz_boost(v, G.ConePoint(math.sqrt(rho), np.zeros(d)))
            assert q.tau == pytest.approx(tau, rel=1e-10)
            assert np.allclose(q.xi, xi, atol=1e-10 * max(1.0, tau))


def test_lorentz_invariance_sweep():
    rng = np.random.default_rng(11)
    for d in (2, 3, 5):
        worst = 0.0
        for _ in range(1000):
            v = rng.normal(size=d)
            v *= 0.95 * rng.random() ** 0.5 / max(np.linalg.norm(v), 1e-12)
            p = G.ConePoint(3.0 * rng.normal(), rng.normal(size=d))
            rho0 = G.minkowski_form(p)
            rho1 = G.minkowski_form(G.lorentz_boost(v, p))
            worst = max(worst, abs(rho1 - rho0) / max(abs(rho0), 1e-12))
        assert worst < 1e-10


def test_boost_determinant_and_group_property():
    rng = np.random.default_rng(13)
    for d in (2, 3, 5):
        for _ in range(200):
            v = rng.normal(size=d)
            v *= 0.95 * rng.random() / max(np.linalg.norm(v), 1e-12)
            T = G.boost_matrix(v)
            assert abs(abs(np.linalg.det(T)) - 1.0) < 1e-10
            p = G.ConePoint(rng.normal() * 2, rng.normal(size=d))
            back = G.lorentz_boost(-v, G.lorentz_boost(v, p))
            assert abs(back.tau - p.tau) < 1e-10 * max(1.0, abs(p.tau))
            assert np.allclose(back.xi, p.xi, atol=1e-10)


@st.composite
def _boosted_points(draw):
    """(v, p): |v| <= 0.95 and p any (tau, xi) in d = 2, 3 or 5."""
    d = draw(st.sampled_from([2, 3, 5]))
    u = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=d, max_size=d)))
    v = 0.95 * u / max(1.0, float(np.linalg.norm(u)))
    return v, G.ConePoint(draw(_COORD), draw(st.lists(_COORD, min_size=d, max_size=d)))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(case=_boosted_points())
def test_boost_keeps_the_minkowski_form_and_inverts(case):
    v, p = case
    q = G.lorentz_boost(v, p)
    # rho = tau^2 - |xi|^2 cancels near the cone, so its rounding is
    # measured against tau^2 + |xi|^2.
    scale = max(1.0, p.tau ** 2 + float(np.dot(p.xi, p.xi)))
    assert abs(G.minkowski_form(q) - G.minkowski_form(p)) <= 1e-10 * scale
    back = G.lorentz_boost(-v, q)
    assert abs(back.tau - p.tau) <= 1e-9 and np.max(np.abs(back.xi - p.xi)) <= 1e-9


def test_boost_small_velocity_is_smooth():
    # The (gamma-1)/|v|^2 block must pass smoothly through |v| ~ 1e-8:
    # the vv^T coefficient approaches 1/2 (+ 3|v|^2/8) rather than 0/0.
    v = np.array([1e-5, 0.0, 0.0])
    T = G.boost_matrix(v)
    assert T[1, 1] - 1.0 == pytest.approx(0.5e-10, rel=1e-3)
    below = G.boost_matrix(np.array([9.9e-9, 0.0, 0.0]))
    above = G.boost_matrix(np.array([1.01e-8, 0.0, 0.0]))
    assert np.max(np.abs(above - below)) < 2.1e-10  # just the v-entry change
    tiny = G.boost_matrix(np.array([1e-9, 0.0, 0.0]))
    assert tiny[0, 1] == pytest.approx(-1e-9, rel=1e-6)


@pytest.mark.parametrize("speed", [1.01e-8, 1e-7, 1e-6, 1e-2, 0.9])
def test_boost_vv_block_matches_mpmath(speed):
    # T[1, 2] = (gamma-1)/|v|^2 v1 v2 carries no +1 to hide an error in the
    # coefficient; (gamma-1)/|v|^2 in doubles was 2% off at |v| = 1e-7.
    v = speed * np.array([1.0, 1.0, 0.0]) / math.sqrt(2.0)
    with mpmath.workdps(50):
        v1, v2 = mpmath.mpf(v[0]), mpmath.mpf(v[1])
        vsq = v1 * v1 + v2 * v2
        gamma = 1 / mpmath.sqrt(1 - vsq)
        want = float((gamma - 1) / vsq * v1 * v2)
    assert G.boost_matrix(v)[1, 2] == pytest.approx(want, rel=1e-14, abs=0.0)


def test_boost_at_rest_is_the_identity():
    assert np.array_equal(G.boost_matrix(np.zeros(3)), np.eye(4))


def test_galilean_examples_and_paraboloid():
    p = G.ConePoint(1.0, np.array([1.0, 1.0]))
    q = G.galilean_map(np.array([1.0, 0.0]), p)
    assert q.tau == pytest.approx(4.0) and np.allclose(q.xi, [2.0, 1.0])
    ident = G.galilean_map(np.zeros(2), p)
    assert ident.tau == p.tau and np.all(ident.xi == p.xi)
    rng = np.random.default_rng(3)
    for _ in range(300):
        xi = rng.normal(size=3)
        v = rng.normal(size=3)
        img = G.galilean_map(v, G.ConePoint(float(np.dot(xi, xi)), xi))
        assert img.tau == pytest.approx(float(np.dot(img.xi, img.xi)), abs=1e-12)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(xi=st.lists(_COORD, min_size=3, max_size=3), v=st.lists(_COORD, min_size=3, max_size=3))
def test_galilean_map_keeps_the_paraboloid(xi, v):
    xi = np.array(xi)
    img = G.galilean_map(v, G.ConePoint(float(np.dot(xi, xi)), xi))
    assert abs(img.tau - float(np.dot(img.xi, img.xi))) <= 1e-12 * (1.0 + img.tau)


def test_wave_weight_examples():
    eta = np.array([[1.0, 0.0], [2.0, 0.0], [0.5, 0.0]])
    assert G.wave_weight(eta) == 0.0
    pair = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert G.wave_weight(pair) ** 2 == pytest.approx(2.0, rel=1e-14)


def test_wave_weight_support_identity():
    rng = np.random.default_rng(5)
    for d in (2, 3, 5):
        for k in (2, 3, 4):
            for _ in range(200):
                eta = rng.normal(size=(k, d))
                tau = float(np.sum(np.linalg.norm(eta, axis=1)))
                xi = eta.sum(axis=0)
                rho = tau * tau - float(np.dot(xi, xi))
                assert 2.0 * G.wave_weight(eta) ** 2 == pytest.approx(rho, rel=1e-10)


def test_schro_weight_examples_and_support_identity():
    eta = np.array([[0.3, -0.2, 0.1]] * 2)
    assert G.schro_weight(eta) == 0.0
    pair = np.array([[1.0, 0.0], [-1.0, 0.0]])
    assert G.schro_weight(pair) == pytest.approx(2.0)
    ortho = np.eye(3)
    assert G.schro_weight(ortho) == pytest.approx(math.sqrt(6.0), rel=1e-14)
    # Paraboloid support: |eta1 - eta2|^2 = 2 tau - |xi|^2 with
    # tau = |eta1|^2 + |eta2|^2, xi = eta1 + eta2.
    rng = np.random.default_rng(8)
    for _ in range(200):
        e = rng.normal(size=(2, 3))
        tau = float(np.sum(e * e))
        xi = e.sum(axis=0)
        assert G.schro_weight(e) ** 2 == pytest.approx(
            2.0 * tau - float(np.dot(xi, xi)), rel=1e-12
        )


def test_wave_weight_stable_for_nearly_parallel():
    # Direct |a||b| - a.b loses every digit here; compare against mpmath.
    mpmath.mp.dps = 40
    a = np.array([1.0, 1e-9, 0.0])
    b = np.array([2.0, 0.0, 1.3e-9])
    ma = [mpmath.mpf(x) for x in a]
    mb = [mpmath.mpf(x) for x in b]
    na = mpmath.sqrt(sum(x * x for x in ma))
    nb = mpmath.sqrt(sum(x * x for x in mb))
    dot = sum(x * y for x, y in zip(ma, mb))
    want = float(na * nb - dot)
    got = G.wave_weight(np.stack([a, b])) ** 2
    assert got == pytest.approx(want, rel=1e-10)


def test_weight_batches_match_scalar():
    rng = np.random.default_rng(21)
    eta = rng.normal(size=(64, 3, 4))
    norms = np.linalg.norm(eta, axis=2)
    bw = G.wave_weight_sq_batch(norms, eta / norms[:, :, None])
    bs = G.schro_weight_sq_batch(eta)
    for i in range(0, 64, 7):
        assert bw[i] == pytest.approx(G.wave_weight(eta[i]) ** 2, rel=1e-12)
        assert bs[i] == pytest.approx(G.schro_weight(eta[i]) ** 2, rel=1e-12)


@pytest.mark.parametrize("angle", [1e-3, 1e-6, 1e-9, 1e-12])
def test_polar_wave_batch_on_nearly_parallel_pairs(angle):
    # Pairs of d = 5 directions `angle` apart, normalised by the lab's own
    # draw, against |eta_1||eta_2| - eta_1.eta_2 at 60 digits with
    # eta = r w formed exactly from the same floats.
    rng = np.random.default_rng(13)
    n, d = 16, 5
    z = rng.normal(size=(n, 2, d))
    z0, z1 = z[:, 0], z[:, 1]
    perp = z1 - (np.einsum("nd,nd->n", z1, z0) / np.einsum("nd,nd->n", z0, z0))[:, None] * z0
    z1[:] = z0 + (math.tan(angle) * np.linalg.norm(z0, axis=1)
                  / np.linalg.norm(perp, axis=1))[:, None] * perp
    dirs = MC.unit_directions(SimpleNamespace(normal=lambda size: z.copy()), n, 2, d)
    radii = rng.gamma(shape=d - 1, size=(n, 2))
    got = G.wave_weight_sq_batch(radii, dirs)
    for i in range(n):
        with mpmath.workdps(60):
            eta = [[mpmath.mpf(radii[i, j]) * mpmath.mpf(x) for x in dirs[i, j]] for j in (0, 1)]
            norms = [mpmath.sqrt(sum(x * x for x in e)) for e in eta]
            want = float(norms[0] * norms[1] - sum(x * y for x, y in zip(*eta)))
        if angle >= 1e-9:
            assert abs(got[i] - want) <= 1e-12 * want
        else:
            # Below about 1e-8 the floor r_1 r_2 (|w_1| - |w_2|)^2 / 2 of the
            # drawn directions' rounding dominates.
            assert abs(got[i] - want) <= 1e-30 * radii[i, 0] * radii[i, 1]
