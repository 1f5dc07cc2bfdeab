"""Extremizer search: ansatz, objectives, traces, symmetry audits."""

import math
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from strichartz_lab import functionals as FN
from strichartz_lab import profiles as P
import strichartz_lab.search as S
from strichartz_lab.constants import SCHRODINGER, WAVE
from strichartz_lab.quadrules import QuadratureError


def test_ansatz_profile_basics():
    prof = S.AnsatzProfile(np.zeros(6), 4, SCHRODINGER)
    assert prof.decay_rate == 1.0 and prof.decay_power == 2
    r = np.linspace(0.1, 3, 20)
    assert np.allclose(prof.radial_fn()(r), np.exp(-r ** 2))
    wave = S.AnsatzProfile(np.array([math.log(2.0)]), 5, WAVE)
    assert np.allclose(wave.radial_fn()(r), np.exp(-2.0 * r))
    with pytest.raises(ValueError):
        S.AnsatzProfile(np.zeros(13), 4, SCHRODINGER)
    for theta in (np.zeros((2, 3)), np.float64(0.3)):
        with pytest.raises(ValueError, match=re.escape(f"got shape {np.shape(theta)}")):
            S.AnsatzProfile(theta, 4, SCHRODINGER)
    with pytest.raises(ValueError):
        S.AnsatzProfile(np.zeros(4), 4, "heat")


def test_ansatz_decay_is_guaranteed():
    rng = np.random.default_rng(2)
    for _ in range(20):
        theta = rng.normal(scale=1.0, size=6)
        prof = S.AnsatzProfile(theta, 4, SCHRODINGER)
        assert prof.decay_rate > 0
        r = np.array([30.0, 60.0])
        assert np.all(prof.radial_fn()(r) < 1e-40)


def test_objective_at_extremal_start():
    obj = S.quotient_objective(4, 2, SCHRODINGER)
    q = obj(S.AnsatzProfile(np.zeros(6), 4, SCHRODINGER))
    assert q == pytest.approx(1.0, abs=2e-3)
    obj5 = S.quotient_objective(5, 2, WAVE)
    q5 = obj5(S.AnsatzProfile(np.zeros(6), 5, WAVE))
    assert q5 == pytest.approx(1.0, abs=2e-3)
    with pytest.raises(ValueError):
        S.quotient_objective(4, 3, WAVE)


@pytest.mark.slow
def test_objective_d3_sextic_extremal():
    obj3 = S.quotient_objective(3, 3, WAVE)
    q3 = obj3(S.AnsatzProfile(np.zeros(4), 3, WAVE))
    assert q3 == pytest.approx(1.0, abs=5e-3)


def test_search_from_extremal_start_never_decreases():
    cfg = S.SearchConfig(budget=40, seed=3, restarts=1, m=4)
    prof, trace, diag = S.search(4, 2, SCHRODINGER, cfg, x0=np.zeros(4))
    qs = trace.quotients
    assert qs[0] >= 0.99  # starting at the optimum
    assert all(qs[i] <= qs[i + 1] + 1e-15 for i in range(len(qs) - 1))
    assert diag["best_quotient"] >= qs[0]


def test_search_reproducible():
    cfg = S.SearchConfig(budget=60, seed=11, restarts=1, m=4)
    _, tr1, d1 = S.search(4, 2, SCHRODINGER, cfg)
    _, tr2, d2 = S.search(4, 2, SCHRODINGER, cfg)
    assert tr1.iterates == tr2.iterates
    assert d1["best_quotient"] == d2["best_quotient"]


# One 12-evaluation restart from a fixed start, recorded with repr from the
# whole-tensor fiber routines; evaluating them in row blocks must not move it.
FROZEN_X0 = [0.2, -0.15, 0.1, 0.05, -0.08, 0.12]
FROZEN_RESTARTS = {
    (4, 2, SCHRODINGER): (
        "0.9996405891803001",
        ["0.9996130902825843", "0.9996161871330548", "0.9996332811108732",
         "0.9996405891803001"],
    ),
    (5, 2, WAVE): (
        "0.9998191150183784",
        ["0.9998078711627275", "0.999807871162728", "0.999809216690664",
         "0.9998138027884652", "0.9998163532538223", "0.9998165187366445",
         "0.9998191150183784"],
    ),
}


@pytest.mark.parametrize("case", sorted(FROZEN_RESTARTS))
def test_search_restart_frozen_values(case):
    cfg = S.SearchConfig(budget=12, seed=7, restarts=1, m=6)
    _, trace, diag = S.search(*case, cfg, x0=np.array(FROZEN_X0))
    best, quotients = FROZEN_RESTARTS[case]
    assert repr(diag["best_quotient"]) == best
    assert [repr(q) for q in trace.quotients] == quotients
    assert diag["evaluations"] == 12


def test_search_rejects_a_bad_start_vector():
    cfg = S.SearchConfig(budget=4, seed=0, restarts=1, m=6)
    for x0 in (np.zeros(3), np.zeros((2, 3)), np.full(6, np.nan), [0.0] * 5 + [np.inf]):
        with pytest.raises(ValueError, match="finite vector of m = 6"):
            S.search(4, 2, SCHRODINGER, cfg, x0=x0)


@pytest.mark.parametrize("fields, message", [
    ({"budget": 0}, "budget >= 1, got 0"),
    ({"budget": -3}, "budget >= 1, got -3"),
    ({"restarts": 0}, "restarts >= 1, got 0"),
    ({"m": 0}, "m in 1..12, got 0"),
    ({"m": 13}, "m in 1..12, got 13"),
])
def test_search_config_rejects_an_empty_budget_restart_count_or_ansatz(fields, message):
    with pytest.raises(ValueError, match=message):
        S.SearchConfig(**fields)
    for m in (1, 12):
        assert S.SearchConfig(budget=1, restarts=1, m=m).m == m


@pytest.mark.parametrize("name, value", [
    ("m", 2.5), ("restarts", 1.5), ("budget", 2.5), ("m", True), ("budget", np.float64(3.0)),
])
def test_search_config_counts_are_integers(name, value):
    with pytest.raises(ValueError, match=re.escape(f"need an integer {name}, got {value!r}")):
        S.SearchConfig(**{name: value})
    assert getattr(S.SearchConfig(**{name: np.int64(3)}), name) == 3


def _oracle_log_profile(theta, family, r):
    # The log-profile written out with numpy's chebval, as evaluated before
    # AnsatzProfile summed its Chebyshev series in place.
    r = np.asarray(r, dtype=float)
    out = -math.exp(theta[0]) * r ** (1 if family == WAVE else 2)
    if len(theta) > 1:
        z = (2.0 * (np.log(np.maximum(r, 1e-12)) - S._Z_LO) / (S._Z_HI - S._Z_LO)) - 1.0
        z = np.clip(z, -1.0, 1.0)
        out = out + np.polynomial.chebyshev.chebval(z, np.asarray(theta[1:]))
    return out


_RADII = st.one_of(st.sampled_from([0.0, 1e-13, 0.05, 20.0]),
                   st.floats(0.0, 40.0, allow_nan=False))


@settings(max_examples=150, deadline=None, derandomize=True)
@given(
    family=st.sampled_from([WAVE, SCHRODINGER]),
    theta=st.lists(st.floats(-12.0, 12.0, allow_nan=False), min_size=1, max_size=12),
    kind=st.sampled_from(["scalar", "list", "1d", "3d"]),
    shape=st.tuples(*[st.integers(1, 4)] * 3),
    radii=st.lists(_RADII, min_size=1, max_size=16),
    seed=st.integers(0, 2 ** 32 - 1),
)
def test_ansatz_profile_matches_the_chebval_oracle_bit_for_bit(family, theta, kind, shape,
                                                               radii, seed):
    # The clip radii in every example, and generic radii beside the drawn
    # ones, whose last bits a reordered step would move.
    spread = np.random.default_rng(seed).uniform(0.0, 25.0, size=48).tolist()
    radii = [0.0, 0.05, 20.0] + spread + radii
    if kind == "scalar":
        r = radii[-1]
    elif kind == "list":
        r = radii
    elif kind == "1d":
        r = np.array(radii)
    else:
        r = np.resize(np.array(radii), shape)
    before = np.array(r, copy=True)
    prof = S.AnsatzProfile(theta, 4, family)
    want = _oracle_log_profile(theta, family, r)
    got_log = prof.log_profile(r)
    got = prof.radial_fn()(r)
    assert np.array_equal(np.asarray(r), before)
    for value, ref in ((got_log, want), (got, np.exp(want))):
        assert np.shape(value) == np.shape(before)
        assert np.asarray(value).dtype == np.float64
        assert np.asarray(value).tobytes() == np.asarray(ref).tobytes()
    if kind == "scalar":
        assert isinstance(got, np.float64) and isinstance(got_log, np.float64)


def test_ansatz_profile_rejects_non_finite_coefficients():
    for theta in ([math.nan], [0.0, math.inf], [0.0, 0.1, -math.inf]):
        with pytest.raises(ValueError, match="finite"):
            S.AnsatzProfile(theta, 4, SCHRODINGER)


def test_search_random_start_converges():
    cfg = S.SearchConfig(budget=250, seed=5, restarts=1, m=5)
    prof, trace, diag = S.search(4, 2, SCHRODINGER, cfg)
    assert diag["best_quotient"] >= 0.99
    assert max(trace.quotients) <= 1.0 + 5e-3
    assert diag["fit_residual"] < 5e-2


def test_search_accepts_a_negative_seed():
    prof, trace, diag = S.search(4, 2, SCHRODINGER, S.SearchConfig(budget=2, seed=-3, m=3))
    assert diag["evaluations"] >= 1 and trace.iterates


def test_exponential_fit_diagnostic():
    exact = S.AnsatzProfile(np.array([math.log(0.8)]), 4, SCHRODINGER)
    diag = S.exponential_fit_diagnostic(exact)
    assert diag["fit_rate"] == pytest.approx(0.8, rel=1e-10)
    assert diag["fit_residual"] < 1e-12
    bent = S.AnsatzProfile(np.array([0.0, 0.0, 0.9]), 4, SCHRODINGER)
    assert S.exponential_fit_diagnostic(bent)["fit_residual"] > 5e-2


def test_trace_csv_export(tmp_path):
    cfg = S.SearchConfig(budget=30, seed=7, restarts=1, m=3)
    _, trace, _ = S.search(4, 2, SCHRODINGER, cfg)
    path = tmp_path / "trace.csv"
    S.trace_to_csv(trace, path)
    lines = path.read_text().splitlines()
    assert lines[0].startswith("iterate,quotient,theta0")
    assert len(lines) == len(trace.iterates) + 1


def test_symmetry_invariance_audit_mixed_norm():
    base = P.schrodinger_profile(4, -1.0)
    elements = {
        "identity": P.Phase(0.0),
        "translate": P.Translate(0.4, (0.1, 0.0, 0.0, 0.0)),
        "rescale": P.Scaling(1.5, 0.8),
        "phase": P.Phase(2.0),
    }
    out = S.symmetry_invariance_audit(
        base, elements, lambda p: FN.mixed_norm_quotient(p).ratio
    )
    assert out["changes"]["identity"] == 0.0
    assert out["max_change"] < 1e-9
    galilean = S.symmetry_invariance_audit(
        base, {"galilean": P.GalileanBoost((0.3, 0.0, 0.0, 0.0))},
        lambda p: FN.mixed_norm_quotient(p).ratio,
    )
    assert galilean["max_change"] > 1e-3


def test_search_counts_quadrature_failures_and_propagates_other_errors(monkeypatch):
    outcomes, values = [], []

    def objective(d, k, family):
        def evaluate(profile):
            outcome = outcomes.pop(0)
            if isinstance(outcome, Exception):
                raise outcome
            return outcome

        return evaluate

    def minimize(fun, x0, **kwargs):
        values.extend(fun(x0) for _ in range(2))
        return SimpleNamespace(success=True)

    monkeypatch.setattr(S, "quotient_objective", objective)
    monkeypatch.setattr(S, "_nelder_mead", lambda fun, x0, maxfev, tol: minimize(fun, x0).success)
    cfg = S.SearchConfig(budget=2, seed=0, restarts=1, m=3)
    outcomes[:] = [QuadratureError("stalled", best=0.3, error=1.0), 0.8]
    _, trace, diag = S.search(4, 2, SCHRODINGER, cfg)
    assert values == [0.0, -0.8]
    assert diag["failed_evals"] == 1 and diag["evaluations"] == 2
    assert trace.quotients == [0.8]
    outcomes[:] = [ValueError("not a quadrature failure")]
    with pytest.raises(ValueError, match="not a quadrature failure"):
        S.search(4, 2, SCHRODINGER, cfg)


@pytest.mark.parametrize("met, expected", [
    ((True, False), "budget"), ((False, True), "budget"), ((True, True), "tolerance"),
])
def test_search_reports_tolerance_only_when_every_restart_met_it(monkeypatch, met, expected):
    successes = list(met)

    def minimize(fun, x0, **kwargs):
        fun(x0)
        return SimpleNamespace(success=successes.pop(0))

    monkeypatch.setattr(S, "quotient_objective", lambda d, k, family: lambda profile: 0.5)
    monkeypatch.setattr(S, "_nelder_mead", lambda fun, x0, maxfev, tol: minimize(fun, x0).success)
    _, trace, _ = S.search(4, 2, SCHRODINGER, S.SearchConfig(budget=1, restarts=2, m=3))
    assert trace.terminated_by == expected and not successes


@st.composite
def _simplex_runs(draw):
    # A start with zero coordinates, a budget and an objective with ties,
    # plateaus (values rounded to a step) and neg_q's constant 0.0 outside a box.
    n = draw(st.integers(1, 12))
    coord = st.one_of(st.just(0.0), st.floats(-2.0, 2.0))
    x0 = np.array(draw(st.lists(coord, min_size=n, max_size=n)))
    centre = np.array(draw(st.lists(st.floats(-1.0, 1.0), min_size=n, max_size=n)))
    step = draw(st.sampled_from([0.0, 1e-3, 0.05, 0.5]))
    box = draw(st.sampled_from([np.inf, 2.5, 1.0]))
    budget = draw(st.integers(1, 500))

    def f(x):
        if np.any(np.abs(x) > box):
            return 0.0
        v = -math.exp(-float(np.sum((x - centre) ** 2)))
        return step * round(v / step) if step else v

    return f, x0, budget


def _argsort_ties_reversed(a):
    # A valid argsort that orders ties last index first, as a numpy build
    # whose unstable sort moves ties may; numpy 2.4's argsort leaves an
    # already sorted array in place, which hides a missing second sort.
    return np.lexsort((-np.arange(len(a)), a))


@pytest.mark.parametrize("argsort", [np.argsort, _argsort_ties_reversed],
                         ids=["numpy", "ties_reversed"])
@settings(max_examples=150, deadline=None, derandomize=True)
@given(run=_simplex_runs(), tol=st.sampled_from([1e-5, 1e-2]))
def test_nelder_mead_evaluates_scipys_points_bit_for_bit(argsort, run, tol):
    from scipy import optimize

    f, x0, budget = run
    ours, theirs = [], []

    def logged(seen):
        def g(x):
            seen.append(x.tobytes())
            return f(x)
        return g

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(np, "argsort", argsort)
        met = S._nelder_mead(logged(ours), x0.copy(), budget, tol)
        res = optimize.minimize(logged(theirs), x0.copy(), method="Nelder-Mead",
                                options={"maxfev": budget, "xatol": tol, "fatol": tol,
                                         "adaptive": True})
    assert ours == theirs
    assert met is bool(res.success)


def test_search_scores_through_the_report_builders_only():
    # The collapsed constants live in functionals' report builders; the
    # objective writes neither quotient formula of its own.
    text = Path(S.__file__).read_text()
    assert "wave_onefn_constant" not in text and "SCHRO_D4_CONSTANT" not in text
