"""Shell convolutions: closed form, recursion, Monte Carlo, paraboloid."""

import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy import integrate

from strichartz_lab import mc as MC
from strichartz_lab import shells as S
from strichartz_lab.constants import alpha_exponent, beta_fn, log_sphere_area, sphere_area
from strichartz_lab.geometry import ConePoint, lorentz_boost


def pt(tau, *xi):
    return ConePoint(tau, np.array(xi, dtype=float))


def test_itilde_closed_examples():
    assert S.itilde_closed(3, 2, pt(1, 0, 0, 0)).value == pytest.approx(2 * math.pi, rel=1e-13)
    assert S.itilde_closed(2, 3, pt(1, 0, 0)).value == pytest.approx(
        (2 * math.pi) ** 2, rel=1e-13
    )


def test_itilde_homogeneity():
    for d, k in [(2, 3), (3, 2), (5, 4), (4, 3)]:
        base = pt(1.3, *([0.4] + [0.0] * (d - 1)))
        lam = 2.7
        scaled = pt(lam * base.tau, *(lam * base.xi))
        a = float(alpha_exponent(d, k))
        assert S.itilde_closed(d, k, scaled).value == pytest.approx(
            lam ** (2 * a) * S.itilde_closed(d, k, base).value, rel=1e-12
        )


def test_itilde_domain_error():
    with pytest.raises(ValueError):
        S.itilde_closed(3, 2, pt(1.0, 1.0, 0.0, 0.0))
    with pytest.raises(ValueError):
        S.itilde_recursive(3, 2, pt(0.5, 1.0, 0.0, 0.0))


@pytest.mark.parametrize("d, k", [(1, 2), (3, 1)])
def test_cone_shell_routes_share_one_case_rule(d, k):
    # The recursion once returned 4.0 at (1, 2), where the closed form
    # raised, and the Monte Carlo route failed with an IndexError at (3, 1).
    point = ConePoint(1.0, np.zeros(d))
    messages = set()
    for route in (S.itilde_closed, S.itilde_recursive, S.itilde_montecarlo):
        with pytest.raises(ValueError) as err:
            route(d, k, point)
        messages.add(str(err.value))
    assert len(messages) == 1 and ("d = 1" if d == 1 else "k = 1") in messages.pop()


def test_recursion_matches_closed_form():
    cases = [(3, 3), (2, 3), (2, 4), (2, 5), (4, 3), (5, 4), (3, 4)]
    for d, k in cases:
        p = pt(1.0, *([0.0] * d))
        closed = S.itilde_closed(d, k, p).value
        rec = S.itilde_recursive(d, k, p, tol=1e-11)
        assert rec.method == S.RECURSION and rec.stderr == 0.0
        assert rec.value == pytest.approx(closed, rel=1e-10)


def test_recursion_with_scaling():
    p = pt(2.0, 0.0, 0.0)
    a5 = float(alpha_exponent(2, 5))
    base = S.itilde_closed(2, 5, pt(1.0, 0.0, 0.0)).value
    assert S.itilde_recursive(2, 5, p).value == pytest.approx(
        base * 2.0 ** (2 * a5), rel=1e-9
    )


def test_radial_recursion_integral_vs_beta():
    # int_0^{1/2} (1-2r)^alpha r^{d-2} dr = B(d-1, alpha+1) / 2^{d-1}.
    for d, alpha in [(2, alpha_exponent(2, 2)), (3, alpha_exponent(3, 3)),
                     (4, alpha_exponent(4, 2)), (5, alpha_exponent(5, 3))]:
        got = S._radial_recursion_integral(d, alpha, 1e-11)
        want = beta_fn(d - 1, float(alpha) + 1.0) / 2.0 ** (d - 1)
        assert got == pytest.approx(want, rel=1e-9)


def test_i_weighted_constancy_and_values():
    assert S.i_weighted(3, 2, pt(1, 0, 0, 0)).value == pytest.approx(2 * math.pi, rel=1e-12)
    want52 = 2.0 ** -2 * sphere_area(5)
    assert S.i_weighted(5, 2, pt(1, 0, 0, 0, 0, 0)).value == pytest.approx(want52, rel=1e-12)
    a = S.i_weighted(3, 2, pt(1, 0, 0, 0)).value
    b = S.i_weighted(3, 2, pt(7.0, 3.0, 1.0, 0.0)).value
    assert abs(a - b) <= 1e-10 * a


def test_schro_shell_values_and_galilean():
    res = S.schro_shell(2, 2, 1.0, [0.0, 0.0])
    assert res.itilde.value == pytest.approx(math.pi / 2.0, rel=1e-13)
    for d in (1, 2, 3, 5):
        out = S.schro_shell(d, 2, 1.7, [0.9] + [0.0] * (d - 1))
        assert out.weighted == pytest.approx(2.0 ** -d * sphere_area(d), rel=1e-13)
    # depends only on 2 tau - |xi|^2 (Galilean covariance of the shell)
    v = np.array([0.7, -0.3])
    tau, xi = 1.3, np.array([0.2, 0.5])
    shifted_tau = tau + 2 * float(xi @ v) + float(v @ v)
    a = S.schro_shell(2, 2, tau, xi).itilde.value
    b = S.schro_shell(2, 2, shifted_tau, xi + v).itilde.value
    assert a == pytest.approx(b, rel=1e-13)
    with pytest.raises(ValueError):
        S.schro_shell(2, 2, 0.4, [1.0, 0.0])


def test_schro_shell_unit_value_quadrature_oracle():
    # Itilde(1, 0) = |S^{d-1}| int delta_eps(1 - 2 r^2) r^{d-1} dr as eps -> 0.
    r0 = 1.0 / math.sqrt(2.0)
    for d in (2, 3, 4):
        eps = 1e-5
        fn = lambda r: math.exp(-0.5 * ((1 - 2 * r * r) / eps) ** 2) / (
            math.sqrt(2 * math.pi) * eps
        ) * r ** (d - 1)
        val, _ = integrate.quad(fn, r0 - 40 * eps, r0 + 40 * eps,
                                epsabs=1e-13, epsrel=1e-10, limit=300)
        want = S.schro_shell(d, 2, 1.0, [0.0] * d).itilde.value
        assert sphere_area(d) * val == pytest.approx(want, rel=1e-6)


def test_schro_k_shell_weighted_constant_is_point_independent():
    rng = np.random.default_rng(11)
    for d in (1, 2, 3, 5):
        for k in (3, 4):
            unit = S.schro_shell(d, k, 1.0, np.zeros(d)).weighted
            for _ in range(5):
                xi = rng.normal(size=d)
                tau = float(xi @ xi) / k + math.exp(rng.normal())
                got = S.schro_shell(d, k, tau, xi).weighted
                assert got == pytest.approx(unit, rel=1e-12)
    # d = 1, k = 3: the fiber is the ellipse a^2 + b^2 + (xi - a - b)^2 = tau,
    # a quadratic form of determinant 3, so Itilde_3 = pi / sqrt(3) everywhere.
    for _ in range(5):
        xi = rng.normal()
        tau = xi * xi / 3.0 + math.exp(rng.normal())
        got = S.schro_shell(1, 3, tau, [xi]).itilde.value
        assert got == pytest.approx(math.pi / math.sqrt(3.0), rel=1e-13)
    with pytest.raises(ValueError):
        S.schro_shell(2, 3, 0.3, [1.0, 0.0])


def test_montecarlo_matches_closed_form():
    cases = [
        (3, 2, pt(1, 0, 0, 0)),
        (5, 2, pt(2, 1, 0, 0, 0, 0)),
        (2, 3, pt(1, 0, 0)),
    ]
    for d, k, p in cases:
        mc = S.itilde_montecarlo(d, k, p, epsilon=1e-3, n_samples=2 * 10 ** 5, seed=42)
        closed = S.itilde_closed(d, k, p).value
        assert mc.method == S.MONTE_CARLO and mc.stderr > 0
        assert abs(mc.value - closed) <= 3.0 * mc.stderr
        assert mc.stderr < 0.15 * closed


def test_montecarlo_reproducible_and_partition_independent():
    p = pt(1.0, 0.0, 0.0, 0.0)
    a = S.itilde_montecarlo(3, 2, p, n_samples=10 ** 5, seed=9)
    b = S.itilde_montecarlo(3, 2, p, n_samples=10 ** 5, seed=9)
    assert a.value == b.value and a.stderr == b.stderr
    d = S.itilde_montecarlo(3, 2, p, n_samples=10 ** 5, seed=10)
    assert d.value != a.value


# n in [2, 3*CHUNK + 5], drawn as a chunk count first so that every count
# from 1 to 4 is tried, not only the small n Hypothesis favours.
_MC_SIZES = st.integers(0, 3).flatmap(
    lambda k: st.integers(max(2, k * MC.CHUNK + 1), min((k + 1) * MC.CHUNK, 3 * MC.CHUNK + 5))
)


@settings(max_examples=25, deadline=None, derandomize=True)
@given(n=_MC_SIZES, seed=st.integers(-(2 ** 63), 2 ** 64 - 1))
def test_montecarlo_mean_is_the_concatenated_chunk_streams(n, seed):
    # Chunk i draws min(CHUNK, n - i*CHUNK) heavy-tailed weights from
    # stream i; the chunk sums round on their own, hence not equality.
    def pareto(rng, m):
        return rng.pareto(2.5, m)

    est = MC.mc_mean(pareto, n, seed)
    w = np.concatenate([pareto(MC.chunk_generator(seed, i), min(MC.CHUNK, n - i * MC.CHUNK))
                        for i in range(-(-n // MC.CHUNK))])
    assert est.mean == pytest.approx(math.fsum(w) / n, rel=1e-14)
    assert est.stderr == pytest.approx(np.std(w) / math.sqrt(n), rel=1e-12)


def test_montecarlo_lorentz_invariance():
    p = pt(1.5, 0.5, 0.0, 0.0)
    v = np.array([0.3, -0.2, 0.1])
    q = lorentz_boost(v, p)
    a = S.itilde_montecarlo(3, 2, p, n_samples=2 * 10 ** 5, seed=5)
    b = S.itilde_montecarlo(3, 2, q, n_samples=2 * 10 ** 5, seed=6)
    assert S.itilde_closed(3, 2, p).value == pytest.approx(
        S.itilde_closed(3, 2, q).value, rel=1e-12
    )
    assert abs(a.value - b.value) <= 3.0 * math.hypot(a.stderr, b.stderr)


def test_montecarlo_epsilon_consistency():
    p = pt(1.0, 0.0, 0.0, 0.0)
    a = S.itilde_montecarlo(3, 2, p, epsilon=1e-3, n_samples=4 * 10 ** 5, seed=3)
    b = S.itilde_montecarlo(3, 2, p, epsilon=5e-4, n_samples=4 * 10 ** 5, seed=4)
    assert abs(a.value - b.value) <= 3.0 * math.hypot(a.stderr, b.stderr)


@pytest.mark.parametrize("d", range(2, 13))
def test_k2_unit_shell_is_the_recursion_base_bit_for_bit(d):
    assert S.log_itilde_unit(d, 2) == log_sphere_area(d) - (d - 2) * math.log(2.0)


def test_montecarlo_validation():
    p = pt(1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        S.itilde_montecarlo(2, 2, p, epsilon=0.0)
    with pytest.raises(ValueError):
        S.itilde_montecarlo(2, 2, p, n_samples=100)
    with pytest.raises(ValueError):
        S.itilde_montecarlo(2, 2, pt(0.5, 1.0, 0.0))
    # A non-finite width once gave 0.0 +- 0.0 (closed form 2 pi at (3, 2)).
    for epsilon in (math.nan, math.inf):
        with pytest.raises(ValueError):
            S.itilde_montecarlo(3, 2, pt(1.0, 0.0, 0.0, 0.0), epsilon=epsilon, n_samples=10 ** 4)
    # A NaN or fractional sample count once got past the >= 1e4 guard.
    for n_samples in (math.nan, 1.5e4, 1e6):
        with pytest.raises(ValueError):
            S.itilde_montecarlo(2, 2, p, n_samples=n_samples)


# test-only reference: the sampler as it reduced over the short k and d
# axes with numpy, before it worked on sample-length columns.
def _reference_shell_weights(d, k, p, epsilon):
    tau, xi = p.tau, np.asarray(p.xi, dtype=float)
    rate = k * (d - 1) / tau
    norm = 1.0 / (math.sqrt(2.0 * math.pi) * epsilon)
    log_const = (k - 1) * (
        math.log(sphere_area(d)) + math.lgamma(d - 1) - (d - 1) * math.log(rate)
    )

    def sample_weights(rng, m):
        radii = rng.gamma(shape=d - 1, scale=1.0 / rate, size=(m, k - 1))
        dirs = rng.normal(size=(m, k - 1, d))
        dirs /= np.linalg.norm(dirs, axis=2, keepdims=True)
        eta = radii[:, :, None] * dirs
        eta_k = xi[None, :] - eta.sum(axis=1)
        nk = np.linalg.norm(eta_k, axis=1)
        s = tau - radii.sum(axis=1) - nk
        log_w = np.where(
            nk > 0.0,
            rate * radii.sum(axis=1) - np.log(np.where(nk > 0.0, nk, 1.0)) + log_const,
            -np.inf,
        )
        gauss = -0.5 * (s / epsilon) ** 2
        w = np.exp(log_w + gauss) * norm
        return np.where(np.isfinite(w), w, 0.0)

    return sample_weights


def _off_axis_point(d, tau=1.3):
    xi = np.zeros(d)
    xi[0], xi[-1] = 0.3, xi[-1] - 0.2
    return ConePoint(tau, xi)


@pytest.mark.parametrize("d", range(2, 10))
def test_montecarlo_columns_are_bit_identical_to_the_axis_reductions(d):
    # d >= 8 and k - 1 >= 8 take numpy's pairwise reductions, fewer terms
    # the columns in index order; both must give the reference's bits.
    p = _off_axis_point(d)
    for k in range(2, 11):
        got = S.itilde_montecarlo(d, k, p, n_samples=10 ** 4, seed=100 * d + k)
        want = MC.mc_mean(_reference_shell_weights(d, k, p, 1e-3), 10 ** 4, 100 * d + k)
        assert (got.value, got.stderr) == (want.mean, want.stderr), (d, k)


@pytest.mark.parametrize("d, k", [(3, 4), (8, 9)])
def test_montecarlo_columns_are_bit_identical_over_chunks_and_blocks(d, k):
    # Two chunks, the second of 5 samples, and many row blocks per chunk.
    n, p = MC.CHUNK + 5, _off_axis_point(d)
    got = S.itilde_montecarlo(d, k, p, n_samples=n, seed=-3)
    want = MC.mc_mean(_reference_shell_weights(d, k, p, 1e-3), n, -3)
    assert (got.value, got.stderr) == (want.mean, want.stderr)


@pytest.mark.parametrize("m", [1, 5, 1000])
@pytest.mark.parametrize("terms", range(1, 13))
def test_row_sum_and_row_norm_are_numpys_reductions(m, terms):
    rng = np.random.default_rng(terms * 1000 + m)
    a = rng.standard_cauchy((m, terms)) * 10.0 ** rng.integers(-8, 9, (m, terms))
    assert np.array_equal(MC.row_sum(a), a.sum(axis=-1))
    assert np.array_equal(MC.row_norm(a), np.linalg.norm(a, axis=-1))
    block = rng.normal(size=(m, 3, terms))[:, 1]  # a strided (m, terms) view
    assert np.array_equal(MC.row_norm(block), np.linalg.norm(block, axis=-1))


def test_unit_directions_are_unit_vectors_of_one_normal_draw():
    m, k, d = MC.ROW_BLOCK + 7, 3, 4
    dirs = MC.unit_directions(MC.chunk_generator(5, 0), m, k, d)
    z = MC.chunk_generator(5, 0).normal(size=(m, k, d))
    assert dirs.shape == (m, k, d)
    assert np.array_equal(dirs, z / np.linalg.norm(z, axis=2, keepdims=True))


def test_shell_result_invariants():
    with pytest.raises(ValueError):
        S.ShellResult(1.0, S.CLOSED_FORM, stderr=0.1)
    res = S.ShellResult(1.0, S.MONTE_CARLO, stderr=0.2)
    assert res.stderr == 0.2


def test_quadrature_error_carries_best_estimate():
    err = S.QuadratureError("stalled", best=1.23)
    assert err.best == 1.23
