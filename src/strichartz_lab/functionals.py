"""Both sides of the sharp estimates: space-time norms, weighted
multilinear right-hand sides, quotients, decompositions, and the
functional-equation residual.

Left-hand sides are space-time L^p norms of radial fields, computed on
(t, r) quadrature grids with panel doubling and explicit window-growth
checks; right-hand sides are either exact Sobolev-norm formulas or
importance-sampled Monte Carlo.  Reports carry both values, their error
estimates, the sharp constant, and the deficit 1 - lhs/(const * rhs).
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, replace

import numpy as np

from . import constants as C
from .constants import WAVE, SCHRODINGER, sphere_area
from .geometry import wave_weight_sq_batch, schro_weight_sq_batch
from .mc import McEstimate, blockwise, chunk_generator, mc_mean, unit_directions
from .profiles import (ExtremalProfile, checked_order, checked_positive, sobolev_norm_sq,
                       wave_moment, wave_profile)
from .propagators import QuadSpec, RadialEvaluator, grid_from_freq_data, schro_fft_1d
from .quadrules import QuadratureError, angular_nodes, gauss_nodes as _gauss_nodes, panel_nodes

_PANEL_ORDER = 8  # Gauss-Legendre nodes per panel of the (t, r) quadratures
_NORM_NODES = 800  # Gauss nodes of a radial data-norm rule
# The d = 4 Schrodinger mixed-norm constant (32 pi)^{-1/4}.
SCHRO_D4_CONSTANT = (32.0 * math.pi) ** -0.25


# ---------------------------------------------------------------------------
# Reports


@dataclass
class QuotientReport:
    """One verified inequality instance: lhs <= constant * rhs."""

    lhs: float
    lhs_err: float
    rhs: float
    rhs_err: float
    constant: float

    @property
    def ratio(self) -> float:
        return self.lhs / (self.constant * self.rhs)

    @property
    def deficit(self) -> float:
        return 1.0 - self.ratio

    @property
    def combined_err(self) -> float:
        """Relative error bound on the ratio."""
        rel = 0.0
        if self.lhs:
            rel += self.lhs_err / abs(self.lhs)
        if self.rhs:
            rel += self.rhs_err / abs(self.rhs)
        return rel

    def strict(self) -> bool:
        """A deficit counts as strict only beyond 10 x numerical error."""
        return self.deficit > 10.0 * self.combined_err


def onefn_report(d: int, lhs: float, lhs_err: float, H: float, E: float) -> QuotientReport:
    """The wave alpha(k) = 1 quotient ||u||_{2k} / (C(d) H^{k-2} E^2)^{1/(2k)}.

    H = ||f||_{H^{1/2}}^2, E = ||f||_{H^1}^2 and k = onefn_degree(WAVE, d);
    the ratio is 1 exactly on the extremal family.
    """
    k = C.onefn_degree(WAVE, d)
    return QuotientReport(lhs=lhs, lhs_err=lhs_err,
                          rhs=(H ** (k - 2) * E * E) ** (1.0 / (2.0 * k)), rhs_err=0.0,
                          constant=C.wave_onefn_constant(d) ** (1.0 / (2.0 * k)))


def mixed_norm_report(lhs: float, lhs_err: float, l2: float, h1: float) -> QuotientReport:
    """The d = 4 Schrodinger quotient ||u||_4 / ((32 pi)^{-1/4} (l2 h1)^{1/4}), where
    l2 = ||f||_2^2 and h1 = ||grad f||_2^2."""
    return QuotientReport(lhs=lhs, lhs_err=lhs_err, rhs=(l2 * h1) ** 0.25, rhs_err=0.0,
                          constant=SCHRO_D4_CONSTANT)


def _round15(obj):
    if isinstance(obj, float):
        # JSON has no token for inf or nan; write them as null.
        return float(format(obj, ".15g")) if math.isfinite(obj) else None
    if isinstance(obj, dict):
        return {k: _round15(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_round15(v) for v in obj]
    if isinstance(obj, (np.floating, np.integer)):
        return _round15(float(obj))
    return obj


def json_line(obj: dict) -> str:
    """Deterministic single-line JSON with 15-significant-digit floats;
    non-finite floats become null."""
    return json.dumps(_round15(obj), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Composite fields
#
# A space-time field exposes d, decay, family, t_peaks, has_closed_form
# and eval_grid(t, r, modulus=False); RadialEvaluator is the base field,
# and the drivers below read nothing else.  Norms read fields only through
# eval_grid(t, r, modulus=True); the composite fields return np.abs(u) ** 2.


class MappedEvaluator:
    """Pointwise map fn(u_1, ..., u_m) of co-centred radial fields of one
    family: np.add(u_+, u_-) for the sum, np.conj(u) (same modulus,
    reversed phases) or np.negative(u).  d and family are the ones every
    field shares (C.case_of), decay the smallest, t_peaks every field's."""

    def __init__(self, fn, *fields):
        self.fn, self.fields = fn, fields
        self.family, self.d = C.case_of(fields)
        self.decay = min(f.decay for f in fields)
        self.t_peaks = [t for f in fields for t in f.t_peaks]
        self.has_closed_form = all(f.has_closed_form for f in fields)

    def eval_grid(self, t, r, modulus: bool = False):
        out = self.fn(*(f.eval_grid(t, r) for f in self.fields))
        return np.abs(out) ** 2 if modulus else out


# ---------------------------------------------------------------------------
# (t, r) quadrature drivers


@dataclass(frozen=True)
class Window:
    """Integration window: linear core plus geometric tails.

    All lengths are defined relative to the evaluators' peak times and
    decay scale, so symmetry actions (time translation, scaling) move
    the quadrature grids covariantly and quotients are preserved to
    machine precision rather than quadrature tolerance.
    """

    t_center: float
    t_linear: float
    t_max: float
    r_linear: float
    r_max: float
    spread: float = 0.0


def default_window(evaluators, tail_factor: float = 40.0, core: float = 18.0) -> Window:
    """Window from the evaluators' peaks and spatial scale.

    A profile with frequency decay sigma has spatial features on scale
    sigma (frequency spread 1/sigma), so window lengths are proportional
    to the largest sigma present; the ridge resolution (cone mode) uses
    the smallest.  core > 0; the tails reach past it for tail_factor > 1.
    """
    _checked_beyond_one(tail_factor, "tail_factor")
    checked_positive(core, "core")
    peaks = [t for ev in evaluators for t in ev.t_peaks]
    scale = max(ev.decay for ev in evaluators)
    t_center = 0.5 * (max(peaks) + min(peaks))
    spread = 0.5 * (max(peaks) - min(peaks))
    t_linear = spread + core * scale
    t_max = t_linear * tail_factor
    r_linear = spread + t_linear + 10.0 * scale
    r_max = spread + t_max + 10.0 * scale
    return Window(t_center, t_linear, t_max, r_linear, r_max, spread)


def _checked_beyond_one(value: float, name: str) -> float:
    """value if it is finite and > 1 (a window that reaches past the one it scales)."""
    if not (math.isfinite(value) and value > 1.0):
        raise ValueError(f"{name} must be finite and > 1, got {value!r}")
    return value


def _geom_edges(lo, hi, n):
    """n panel edges from lo to hi with geometric spacing (lo > 0)."""
    return lo * (hi / lo) ** (np.linspace(0.0, 1.0, n + 1))


def _t_edges(win: Window, level: int):
    n_lin, n_log = 10 << level, 8 << level
    lin = np.linspace(win.t_center - win.t_linear, win.t_center + win.t_linear, 2 * n_lin + 1)
    right = win.t_center + _geom_edges(win.t_linear, win.t_max, n_log)
    left = win.t_center - _geom_edges(win.t_linear, win.t_max, n_log)[::-1]
    return np.concatenate([left[:-1], lin, right[1:]])


def _r_edges(win: Window, level: int):
    n_lin, n_log = 10 << level, 8 << level
    lin = np.linspace(0.0, win.r_linear, 2 * n_lin + 1)
    log = _geom_edges(win.r_linear, win.r_max, n_log)
    return np.concatenate([lin, log[1:]])


def _rect_pass(F, d, win: Window, level: int):
    t, wt = panel_nodes(_t_edges(win, level), _PANEL_ORDER)
    r, wr = panel_nodes(_r_edges(win, level), _PANEL_ORDER)
    vals = F(t, r)
    weight = wr * r ** (d - 1)
    return sphere_area(d) * np.dot(wt, vals @ weight)


_CONE_CHUNK = 2 ** 16  # most (t, r) entries of a cone pass evaluated at once


def _cone_pass(F, d, win: Window, level: int, ridge_width: float, peaks):
    """Pass over graded rows hugging the light cone, evaluated in row chunks.

    The field's ridges at time t sit at r ~ c_j = |t - t_j|, t_j the
    distinct peaks.  Each row has panel edges c_j +/- w (0, 1, 1 + q,
    1 + q + q^2, ...), w = ridge_width (the geometric hp mesh: panels of
    the ridge width at the ridge, growing by q away from it), clipped to
    [0, 6 reach(t)] together with both endpoints, where reach(t) covers
    the farthest ridge plus 12 w.  The offsets reach the largest 6 reach
    of the pass, so every row has the same edge count, and clipped edges
    sort to 0 and 6 reach(t) as panels of zero width and weight.  A pass
    runs in chunks of rows of at most _CONE_CHUNK entries, one F call
    each; a chunk drops the leading and trailing panel columns that have
    zero width on every one of its rows, so F sees only panels that can
    carry weight.  q = 2 at level 0 and sqrt(2) after, so the radial mesh
    refines once and later levels refine the time panels only.
    """
    t, wt = panel_nodes(_t_edges(win, level), _PANEL_ORDER)
    span = 6.0 * (np.abs(t - win.t_center) + win.spread + 12.0 * ridge_width)
    q = 2.0 if level == 0 else math.sqrt(2.0)
    n = math.ceil(math.log1p((q - 1.0) * span.max() / ridge_width) / math.log(q))
    steps = ridge_width * np.cumsum(q ** np.arange(n))
    offsets = np.concatenate([-steps[::-1], [0.0], steps])
    peaks = np.unique(peaks)
    n_edges = peaks.size * offsets.size + 2
    rows = max(1, _CONE_CHUNK // ((n_edges - 1) * _PANEL_ORDER))
    total = 0.0
    for i in range(0, t.size, rows):
        ti, hi = t[i:i + rows], span[i:i + rows, None]
        ridges = (np.abs(ti[:, None] - peaks)[:, :, None] + offsets).reshape(ti.size, -1)
        edges = np.concatenate([np.zeros_like(hi), np.clip(ridges, 0.0, hi), hi], axis=1)
        edges.sort(axis=1)
        live = np.flatnonzero(np.any(edges[:, 1:] > 0.0, axis=0)
                              & np.any(edges[:, :-1] < hi, axis=0))
        r, wr = panel_nodes(edges[:, live[0]:live[-1] + 2], _PANEL_ORDER)
        wr *= r ** (d - 1)
        total += np.dot(wt[i:i + rows], np.sum(F(ti, r) * wr, axis=1))
    return sphere_area(d) * total


def spacetime_integral(
    F,
    evaluators,
    window: Window = None,
    rel_tol: float = 1e-6,
    mode: str = "auto",
    max_levels: int = 5,
    ridge_width: float = None,
    check_window: bool = True,
    ext_factor: float = 3.0,
    nonneg: bool = False,
):
    """Integrate F(t, r) |S^{d-1}| r^{d-1} dr dt adaptively over the
    space-time of the fields `evaluators` that F is built from.

    F maps (t_nodes, r_nodes) to an (nt, nr) array (complex allowed).
    The dimension (C.case_of), the default window, the default ridge width
    (half the smallest decay; an explicit one passes checked_positive) and
    the driver (_pick_mode) come from the fields.
    Panel counts double per level (at most max_levels >= 1 times) until
    successive passes agree to rel_tol (finite and > 0), or
    QuadratureError carries the last level and its difference; the
    returned error adds a window-growth check (both tails extended
    ext_factor > 1 x, run at level 1 whatever level was accepted).  For nonnegative
    integrands the two window sizes also drive a power-law tail
    completion (exact for cumulative 1/T tails, conservative error
    otherwise), which matters for the slowly decaying d = 2 sextics.
    """
    checked_positive(rel_tol, "rel_tol")
    if not (C.whole(max_levels) and max_levels >= 1):
        raise ValueError(f"max_levels must be an integer >= 1, got {max_levels!r}")
    if check_window:
        _checked_beyond_one(ext_factor, "ext_factor")
    _, d = C.case_of(evaluators)
    if window is None:
        window = default_window(evaluators)
    ridge_width = (0.5 * min(ev.decay for ev in evaluators) if ridge_width is None
                   else checked_positive(ridge_width, "ridge_width"))
    peaks = [t for ev in evaluators for t in ev.t_peaks]
    cone = lambda f, dd, w, l: _cone_pass(f, dd, w, l, ridge_width, peaks)
    run = _rect_pass if _pick_mode(evaluators, mode) == "rect" else cone
    prev = run(F, d, window, 0)
    for level in range(1, max_levels + 1):
        value = run(F, d, window, level)
        err = abs(value - prev)
        if err <= rel_tol * abs(value):
            break
        prev = value
    else:
        raise QuadratureError(f"space-time quadrature did not converge in {max_levels} levels",
                              best=value, error=err)
    if check_window:
        wide = replace(window, t_max=ext_factor * window.t_max, r_max=ext_factor * window.r_max)
        ext = run(F, d, wide, 1)
        delta = ext - value
        err += abs(delta)
        if nonneg and abs(complex(delta).imag) < 1e-12 * abs(ext):
            # Missing mass beyond T_ext for a cumulative c/T tail equals
            # delta/(ext_factor - 1); add it and keep |delta| as the bound.
            value = ext + complex(delta).real / (ext_factor - 1.0)
        elif abs(delta) > rel_tol * abs(value):
            value = ext
    value = complex(value)
    if abs(value.imag) > 1e-8 * abs(value):
        return value, float(err)
    return value.real, float(err)


def _pick_mode(evaluators, mode: str) -> str:
    """'auto' runs the cone-following driver when every factor is a
    cheap closed-form wave kernel (graded rows, one 2-D r per chunk),
    else the shared-grid rectangular driver (kernel matrices reused
    across a time block); 'rect' and 'cone' force a driver, anything
    else raises."""
    if mode not in ("auto", "rect", "cone"):
        raise ValueError(f"mode must be 'auto', 'rect' or 'cone', got {mode!r}")
    if mode != "auto":
        return mode
    cone = all(ev.family == WAVE and ev.has_closed_form for ev in evaluators)
    return "cone" if cone else "rect"


def product_field(evaluators, modulus: bool = False):
    """F(t, r) = prod_j u_j(t, r), or prod_j |u_j(t, r)|^2 with modulus;
    repeated evaluators are evaluated once per grid and reused."""

    def F(t, r):
        cache = {}
        out = None
        for ev in evaluators:
            key = id(ev)
            if key not in cache:
                cache[key] = ev.eval_grid(t, r, modulus=modulus)
            g = cache[key]
            out = g if out is None else out * g
        return out

    return F


# ---------------------------------------------------------------------------
# Space-time L^p norms


def _abs2_product_integral(evaluators, **kw):
    """int prod_j |u_j|^2 by spacetime_integral(**kw), nonneg by default: both norms' body."""
    kw.setdefault("nonneg", True)
    return spacetime_integral(product_field(evaluators, modulus=True), evaluators, **kw)


def lp_norm_radial(evaluator, p: int, **kw):
    """||u||_{L^p_{t,x}} for a radial field, p in {4, 6, 10}.

    Computed as (int int |u|^p |S^{d-1}| r^{d-1} dr dt)^{1/p}; returns
    (norm, error estimate).
    """
    if not (C.whole(p) and p in (4, 6, 10)):
        raise ValueError(f"p must be one of the integers 4, 6, 10, got {p!r}")
    check_product_finite(evaluator.family, evaluator.d, p // 2)
    val, err = _abs2_product_integral([evaluator] * (p // 2), **kw)
    if val <= 0:
        raise ValueError("norm integral came out non-positive")
    norm = val ** (1.0 / p)
    return norm, norm * (err / val) / p


def check_product_finite(family: str, d: int, k: int) -> None:
    """ValueError unless ||prod_{j<=k} u_j||_2 is finite: its squared |t| slices decay like
    |t|^{-(d-1)(k-1)} (wave) or |t|^{-d(k-1)}, integrable on every case iff constants.rhs_finite."""
    if not C.rhs_finite(family, d, k):
        raise ValueError(f"the L^2 norm of a product of {k} {family} fields diverges in d = {d}")


def product_l2_sq(evaluators, **kw):
    """||prod_j u_j||_{L^2_{t,x}}^2 with error estimate, by spacetime_integral(**kw)."""
    return _abs2_product_integral(evaluators, **kw)


def spacetime_inner(evals_a, evals_b, **kw):
    """< prod A, prod B >_{t,x} = int prod A conj(prod B); complex."""
    evals_a, evals_b = list(evals_a), list(evals_b)
    prod_a, prod_b = product_field(evals_a), product_field(evals_b)

    def F(t, r):
        return prod_a(t, r) * np.conj(prod_b(t, r))

    return spacetime_integral(F, evals_a + evals_b, **kw)


# ---------------------------------------------------------------------------
# Multilinear right-hand sides (Monte Carlo)


def multilinear_rhs(profiles, n_samples: int = 200_000, seed: int = 0) -> McEstimate:
    """Importance-sampled weighted product integral.

    Wave:   int prod_j |fhat_j(eta_j)|^2 |eta_j| K(eta)^{2 alpha(k)} d eta
    Schro:  int prod_j |fhat_j(eta_j)|^2          K(eta)^{2 beta(k)}  d eta

    Wave sampling: radii ~ Gamma(d-1, 2(sigma_j - beta_j)) (matches the
    radial factor r^{d-2} e^{-2 sigma r} including the worst-direction
    tilt, so weights are bounded by construction), directions uniform.
    Schrodinger sampling: the Gaussian factor is matched exactly and
    only K^{2 beta} fluctuates.  Inadmissible wave profiles, and the
    (family, d, k) whose weight is not integrable (constants.check_rhs_finite),
    raise: the integral diverges.
    """
    k = len(profiles)
    family, d = C.case_of(profiles)
    C.check_rhs_finite(family, d, k)
    if family == WAVE:
        if any(not p.admissible for p in profiles):
            raise ValueError("inadmissible wave profile: right-hand side diverges")
        alpha = float(C.alpha_exponent(d, k))
        rates = np.array([2.0 * (p.decay - p.tilt) for p in profiles])
        bvecs = np.stack([p.b.real for p in profiles])
        tilts = np.array([p.tilt for p in profiles])
        log_const = sum(2.0 * p.c.real + C.log_cone_c0(d) - (d - 1) * math.log(rate)
                        for p, rate in zip(profiles, rates))

        def sample_weights(rng, m):
            radii = rng.gamma(shape=d - 1, scale=1.0, size=(m, k)) / rates[None, :]
            return blockwise(m, lambda n: unit_directions(rng, n, k, d), block_weights, radii)

        def block_weights(radii, dirs):
            # exponent 2 sum_j r_j (Re(b_j).w_j - |Re b_j|) <= 0
            expo = 2.0 * np.einsum("mj,mj->m", radii, np.einsum("jd,mjd->mj", bvecs, dirs) - tilts)
            w = np.exp(expo + log_const)
            if alpha != 0.0:
                w = w * wave_weight_sq_batch(radii, dirs) ** alpha
            return w

    else:
        beta = float(C.beta_exponent(d, k))
        sigmas = np.array([p.decay for p in profiles])
        means = np.stack([p.b.real for p in profiles]) / (2.0 * sigmas[:, None])
        log_const = sum(
            2.0 * p.c.real
            + p.tilt ** 2 / (2.0 * p.decay)
            + 0.5 * d * math.log(math.pi / (2.0 * p.decay))
            for p in profiles
        )

        def sample_weights(rng, m):
            return blockwise(m, lambda n: rng.normal(size=(n, k, d)), block_weights)

        def block_weights(z):
            eta = means[None, :, :] + z / np.sqrt(4.0 * sigmas[None, :, None])
            w = np.full(len(z), math.exp(log_const))
            if beta != 0.0:
                w = w * schro_weight_sq_batch(eta) ** beta
            return w

    # A chunk's wave radii are drawn whole and its normals block by block,
    # in the order of one whole draw, so the samples of a given (seed, n) do
    # not depend on the row blocks its weights are built in.
    return mc_mean(sample_weights, n_samples, seed)


def radial_pair_rhs(p1: ExtremalProfile, p2: ExtremalProfile) -> float:
    """Exact wave RHS of a k = 2 tuple with Re b = 0: K^2 = r1 r2 (1 - u), so

        RHS = |S^{d-1}| |S^{d-2}| B_d(alpha)
              prod_j e^{2 Re c_j} Gamma(d - 1 + alpha) / (2 sigma_j)^{d-1+alpha},

    with alpha = alpha(d, 2) and the Beta integral
    B_d(alpha) = int_{-1}^{1} (1 - u)^alpha (1 - u^2)^{(d-3)/2} du
               = 2^{alpha+d-2} B((d-1)/2, alpha + (d-1)/2),
    finite for d >= 3.  The oracle of multilinear_rhs on such pairs."""
    _, d = C.case_of([p1, p2], serves=(WAVE,))
    if np.any(p1.b.real) or np.any(p2.b.real):
        raise ValueError("the closed form needs Re b = 0")
    alpha = float(C.alpha_exponent(d, 2))
    h = 0.5 * (d - 1)
    log_b = (alpha + d - 2) * math.log(2.0) + C.log_beta_fn(h, alpha + h)
    log_rhs = C.log_sphere_area(d) + C.log_sphere_area(d - 1) + log_b + sum(
        2.0 * p.c.real + math.lgamma(d - 1 + alpha) - (d - 1 + alpha) * math.log(2.0 * p.decay)
        for p in (p1, p2)
    )
    return math.exp(log_rhs)


def multilinear_quotient(profiles, n_samples: int, seed: int, **kw) -> QuotientReport:
    """The k-linear estimate for one profile tuple: lhs = ||prod_j u_j||_2^2
    by product_l2_sq(**kw), rhs by multilinear_rhs, and the sharp constant
    of (d, k, family); ratio 1 on the extremal families."""
    evs = [RadialEvaluator(p) for p in profiles]
    lhs, lhs_err = product_l2_sq(evs, **kw)
    rhs = multilinear_rhs(profiles, n_samples=n_samples, seed=seed)
    d, k, family = profiles[0].d, len(profiles), profiles[0].family
    return QuotientReport(
        lhs=lhs,
        lhs_err=lhs_err,
        rhs=rhs.mean,
        rhs_err=rhs.stderr,
        constant=C.EstimateScale(d, k, family).sharp_constant,
    )


# ---------------------------------------------------------------------------
# I - II decomposition (alpha = 1 cases)


def term_II(p: ExtremalProfile) -> dict:
    """The I - II split of the one-function right-hand side.

    I  = npairs * [(2pi)^d H]^{k-2} * [(2pi)^d E]^2,
    II = npairs * [(2pi)^d H]^{k-2} * sum_m V_m^2,
    V_m = int |fhat|^2 |xi| xi_m dxi  (only the Re(b) axis survives),

    with H = ||f||_{H^{1/2}}^2, E = ||f||_{H^1}^2, k the alpha(k) = 1
    degree for this dimension.  Returns I, II, rhs = I - II, V.
    """
    d, k = p.d, C.onefn_degree(p.family, p.d)
    if not p.admissible:
        raise ValueError("inadmissible profile")
    npairs = k * (k - 1) / 2.0
    twopi_d = (2.0 * math.pi) ** d
    H = twopi_d * sobolev_norm_sq(p, 0.5)
    E = twopi_d * sobolev_norm_sq(p, 1.0)
    V = wave_moment(p, d, odd=True)
    spect = H ** (k - 2)
    I = npairs * spect * E * E
    II = npairs * spect * V * V
    return {"I": I, "II": II, "rhs": I - II, "V": V, "k": k}


# ---------------------------------------------------------------------------
# Wave quotients


def onesided_quotient(profile: ExtremalProfile) -> QuotientReport:
    """One-sided L^{2k} quotient against the collapsed sharp constant.

    lhs = ||u||_{2k} against (C(d) H^{k-2} E^2)^{1/(2k)} (onefn_report), so
    ratio = 1 exactly on the extremal family (Re b = 0).
    """
    k = C.onefn_degree(profile.family, profile.d)
    lhs, lhs_err = lp_norm_radial(RadialEvaluator(profile), 2 * k)
    return onefn_report(profile.d, lhs, lhs_err, sobolev_norm_sq(profile, 0.5),
                        sobolev_norm_sq(profile, 1.0))


def _split_pair_fields(f_plus: ExtremalProfile, f_minus: ExtremalProfile):
    """The fields of a wave (+, -) split pair of one d, else ValueError."""
    C.case_of([f_plus, f_minus], serves=(WAVE,))
    if f_plus.sign != 1 or f_minus.sign != -1:
        raise ValueError("pass the (+, -) split pair")
    return RadialEvaluator(f_plus), RadialEvaluator(f_minus)


def energy_quotient(f_plus: ExtremalProfile, f_minus: ExtremalProfile) -> QuotientReport:
    """Energy-Strichartz quotient in d = 5.

    lhs = ||u_+ + u_-||_{L^4}, rhs = energy^{1/2} with the energy taken
    from the parallelogram law 2(||grad f_+||^2 + ||grad f_-||^2), and
    the constant (8 pi)^{-1/2}.
    """
    ev_p, ev_m = _split_pair_fields(f_plus, f_minus)
    if ev_p.d != 5:
        raise ValueError("the energy quotient is the d = 5 case")
    lhs, lhs_err = lp_norm_radial(MappedEvaluator(np.add, ev_p, ev_m), 4,
                                  window=default_window([ev_p, ev_m]), rel_tol=1e-7)
    energy = 2.0 * (sobolev_norm_sq(f_plus, 1.0) + sobolev_norm_sq(f_minus, 1.0))
    return QuotientReport(
        lhs=lhs,
        lhs_err=lhs_err,
        rhs=math.sqrt(energy),
        rhs_err=0.0,
        constant=1.0 / math.sqrt(8.0 * math.pi),
    )


def orthogonal_split_check(f_plus: ExtremalProfile, f_minus: ExtremalProfile) -> dict:
    """Residual of ||u||_4^4 = ||u_+||_4^4 + ||u_-||_4^4 + 4 ||u_+ u_-||_2^2.

    The three space-time spectra live on disjoint regions (timelike
    forward, timelike backward, spacelike), so the identity is exact;
    the residual measures quadrature error only.  Also returns the
    basic-inequality pieces X = ||u_+||_4^2, Y = ||u_-||_4^2.
    """
    ev_p, ev_m = _split_pair_fields(f_plus, f_minus)
    kw = dict(window=default_window([ev_p, ev_m]), rel_tol=1e-7)
    u = MappedEvaluator(np.add, ev_p, ev_m)
    total, e0 = product_l2_sq([u, u], **kw)
    pp, e1 = product_l2_sq([ev_p, ev_p], **kw)
    mm, e2 = product_l2_sq([ev_m, ev_m], **kw)
    pm, e3 = product_l2_sq([ev_p, ev_m], **kw)
    rhs = pp + mm + 4.0 * pm
    residual = abs(total - rhs) / abs(total)
    return {
        "lhs": total,
        "rhs": rhs,
        "residual": residual,
        "err": (e0 + e1 + e2 + 4 * e3) / abs(total),
        "X": math.sqrt(pp),
        "Y": math.sqrt(mm),
        "cross": pm,
    }


def cross_term_gap(mode: str = "paper") -> dict:
    """Cauchy-Schwarz ratio |<u_+^3, u_+^2 u_->| / (||u_+^3|| ||u_+^2 u_-||), d = 2.

    mode 'paper' takes the split of the data ((1+|x|^2)^{-1/2}, 0),
    where u_- = conj(u_+) (zero velocity, real parameters) and the
    inequality is strict; 'coincident' forces u_- = u_+ and 'negated'
    u_- = -u_+, both of which give ratio exactly 1.
    """
    u0 = wave_profile(2, -1.0, c=math.log(math.pi))
    ev_p = RadialEvaluator(u0)
    if mode == "paper":
        ev_m = MappedEvaluator(np.conj, ev_p)
    elif mode == "coincident":
        ev_m = ev_p
    elif mode == "negated":
        ev_m = MappedEvaluator(np.negative, ev_p)
    else:
        raise ValueError(f"unknown mode {mode!r}")
    win = default_window([ev_p], tail_factor=60.0)
    # The numerator is a signed inner product, so no nonnegative-tail
    # completion is available; run the denominators under the same
    # convention to keep the ratio exactly 1 for the coincident control.
    kw = dict(window=win, ridge_width=0.4, nonneg=False)
    num, en = spacetime_inner([ev_p] * 3, [ev_p, ev_p, ev_m], **kw)
    den1, e1 = product_l2_sq([ev_p] * 3, **kw)
    den2, e2 = product_l2_sq([ev_p, ev_p, ev_m], **kw)
    den = math.sqrt(den1 * den2)
    ratio = abs(num) / den
    err = ratio * (en / max(abs(num), 1e-300) + 0.5 * e1 / den1 + 0.5 * e2 / den2)
    return {"ratio": ratio, "err": err, "numerator": abs(num), "denominator": den, "mode": mode}


# ---------------------------------------------------------------------------
# Schrodinger closed-form norms and quotients


def gaussian_l4_norm(p: ExtremalProfile) -> float:
    """||e^{it Lap} f||_{L^4(R^{d+1})} for Gaussian data, exact.

    ||u||_4^4 = (2pi)^{-4d} pi^{5d/2} sigma^{-d/2} e^{4 Re c + |Re b|^2/sigma}
                * sigma^{1-d} sqrt(pi) Gamma((d-1)/2)/Gamma(d/2).
    """
    C.check_case(p.family, p.d, serves=(SCHRODINGER,))
    check_product_finite(SCHRODINGER, p.d, 2)
    d, sigma = p.d, p.decay
    br2 = float(np.dot(p.b.real, p.b.real))
    val4 = (
        (2.0 * math.pi) ** (-4 * d)
        * math.pi ** (2.5 * d)
        * sigma ** (-0.5 * d)
        * math.exp(4.0 * p.c.real + br2 / sigma)
        * sigma ** (1 - d)
        * math.sqrt(math.pi)
        * math.gamma(0.5 * (d - 1))
        / math.gamma(0.5 * d)
    )
    return val4 ** 0.25


def mixed_norm_quotient(p: ExtremalProfile) -> QuotientReport:
    """d = 4 mixed-norm quotient ||u||_4 / ((32 pi)^{-1/4} ||f||_2^{1/2} ||grad f||_2^{1/2}).

    All three norms are closed-form for Gaussian data, so the report is
    exact: ratio^4 = 1/(1 + |Re b|^2/(d sigma)), equal to one iff the
    tilt is purely imaginary.
    """
    if p.d != 4:
        raise ValueError("the mixed-norm corollary is the d = 4 case")
    return mixed_norm_report(gaussian_l4_norm(p), 0.0, sobolev_norm_sq(p, 0.0),
                             sobolev_norm_sq(p, 1.0))


_FIBER_BLOCK = 2 ** 15  # most tensor entries a fiber routine evaluates at once


def _fiber_integral(d: int, outer_nodes, inner_rule, n_u: int, slab, phi_scale,
                    w_outer, cell) -> float:
    """(2pi)^{1-3d} |S^{d-1}| sum_ij w_outer_i |Phi_ij|^2 cell_ij w_j, the Plancherel
    integral of both fiber routes, with Phi = phi_scale * (slab @ wu) on the n_u-node
    angular rule (u, wu).  slab(A, B, U) gets outer nodes A (rows, 1, 1), the inner
    rule's nodes B (1, inner, 1) and U (1, 1, n_u); each slab holds at most _FIBER_BLOCK
    entries, so no temporary outgrows the cache.  Phi keeps the slabs' dtype (complex g).
    """
    inner, w_inner = inner_rule
    u, wu = angular_nodes(d, n_u)
    B, U = inner[None, :, None], u[None, None, :]
    step = max(1, _FIBER_BLOCK // (inner.size * u.size))
    phi = phi_scale * np.concatenate([slab(outer_nodes[i:i + step, None, None], B, U) @ wu
                                      for i in range(0, outer_nodes.size, step)])
    total = float(np.einsum("i,ij,j->", w_outer, np.abs(phi) ** 2 * cell, w_inner))
    return (2.0 * math.pi) ** (1 - 3 * d) * sphere_area(d) * total


def schro_quartic_norm4(radial_fn, d: int, decay: float, n_q: int = 80,
                        n_u: int = 48) -> float:
    """||e^{it Lap} f||_{L^4}^4 for radial fhat = g, via the shell fiber.

    The space-time transform of u^2 is supported on the shell
    tau = |eta|^2 + |xi - eta|^2, whose fiber at (tau, xi) is the sphere
    |eta - xi/2| = R with 4 R^2 = 2 tau - |xi|^2.  Plancherel gives

      ||u||_4^4 = (2pi)^{1-3d} |S^{d-1}| int q^{d-1} 4R |Phi|^2 dR dq,
      Phi = (R^{d-2}/4) |S^{d-2}| int_{-1}^1 g(sqrt(A+Bu)) g(sqrt(A-Bu))
                                     (1-u^2)^{(d-3)/2} du,

    with A = q^2/4 + R^2, B = qR.  Everything is smooth, so plain
    Gauss-Legendre grids converge fast; the cutoff comes from the decay
    of g (|g(r)| ~ exp(-decay r^2)).  ValueError where the norm diverges (d = 1).
    """
    check_product_finite(SCHRODINGER, d, 2)
    span = math.sqrt(70.0 / (2.0 * checked_positive(decay, "decay")))
    q, wq = _gauss_nodes(n_q, 0.0, 2.0 * span)
    R, wR = _gauss_nodes(n_q, 0.0, 2.0 * span)

    def slab(Q, RR, U):
        A = 0.25 * Q * Q + RR * RR
        BU = Q * RR * U
        return np.asarray(radial_fn(np.sqrt(A + BU))) * np.asarray(radial_fn(np.sqrt(A - BU)))

    return _fiber_integral(d, q, (R, wR), n_u, slab, 0.25 * R ** (d - 2) * sphere_area(d - 1),
                           wq * q ** (d - 1), 4.0 * R)


def wave_bilinear_lhs_fiber(g1, g2, d: int, decay: float) -> float:
    """||u_1 u_2||_{L^2_{t,x}}^2 for radial-modulus wave data, fiber route.

    With |xi| fhat_j = g_j(|xi|), the product transform is carried by the
    spheroid |eta| + |xi - eta| = tau; parameterising the fiber by the
    direction of eta (root r* = (tau^2-q^2)/(2(tau - q u)), Jacobian
    (tau - q u)/(tau - r*)),

      Phi(tau, q) = |S^{d-2}| int_{-1}^1 g1(r*) g2(tau - r*)
                      r*^{d-2} (tau - q u)^{-1} (1-u^2)^{(d-3)/2} du,
      ||u_1 u_2||^2 = (2pi)^{1-3d} |S^{d-1}| int q^{d-1} |Phi|^2 dtau dq.

    Smooth in all variables (Phi vanishes at the cone edge for d >= 4),
    so tensor Gauss grids converge quickly; the spectral decay of g sets
    the tau cutoff.  ValueError where the norm diverges (d = 2).
    """
    check_product_finite(WAVE, d, 2)
    span = 80.0 / checked_positive(decay, "decay")
    tau, wt = _gauss_nodes(100, 0.0, span)
    x, wx = _gauss_nodes(100, 0.0, 1.0)  # q = tau * x

    def slab(T, X, U):
        Q = T * X
        D = T - Q * U
        rstar = (T * T - Q * Q) / (2.0 * D)
        # A fresh product, so scaling it in place touches no array of g's.
        vals = np.asarray(g1(rstar)) * np.asarray(g2(T - rstar))
        vals *= rstar ** (d - 2)
        vals /= D
        return vals

    qweight = (tau[:, None] * x[None, :]) ** (d - 1) * tau[:, None]  # dq = tau dx
    return _fiber_integral(d, tau, (x, wx), 48, slab, sphere_area(d - 1), wt, qweight)


def _radial_norm_sq(radial_fn, d: int, power: float, nodes) -> float:
    """(2pi)^{-d} |S^{d-1}| int |g(r)|^2 r^power dr on the rule nodes = (r, wr)."""
    r, wr = nodes
    g = np.abs(np.asarray(radial_fn(r))) ** 2
    val = float(np.dot(wr, g * r ** power))
    return sphere_area(d) * val / (2.0 * math.pi) ** d


def wave_radial_norm_sq(radial_fn, d: int, s: float, decay: float) -> float:
    """(2pi)^{-d} |S^{d-1}| int |g(r)|^2 r^{2s + d - 3} dr for |xi| fhat = g."""
    C.check_case(WAVE, d)
    rule = _gauss_nodes(_NORM_NODES, 0.0, 80.0 / checked_positive(decay, "decay"))
    return _radial_norm_sq(radial_fn, d, 2.0 * checked_order(WAVE, s) + d - 3.0, rule)


def _schro_norm_nodes(decay: float):
    """The Schrodinger data-norm rule, on [0, R] with e^{-2 decay r^2} < 1e-280 past R."""
    rmax = math.sqrt(-math.log(1e-280) / (2.0 * checked_positive(decay, "decay"))) + 3.0
    return _gauss_nodes(_NORM_NODES, 0.0, rmax)


def schro_radial_norm_sq(radial_fn, d: int, s: float, decay: float) -> float:
    """(2pi)^{-d} |S^{d-1}| int |g(r)|^2 r^{2s + d - 1} dr for radial fhat = g."""
    C.check_case(SCHRODINGER, d)
    return _radial_norm_sq(radial_fn, d, 2.0 * checked_order(SCHRODINGER, s) + d - 1.0,
                           _schro_norm_nodes(decay))


def schro_ansatz_quotient(radial_fn, decay: float, route: str = "fiber") -> QuotientReport:
    """Mixed-norm quotient for general radial Schrodinger data fhat = g(r).

    The quartic norm comes from the shell-fiber representation (smooth, fast;
    route 'fiber') or from the chirped radial-quadrature propagator plus
    space-time quadrature (route 'propagator', the slow cross-check, whose
    tail cut needs |g(rho)| <= e^{-decay rho^2} at the data-norm nodes, or
    ValueError).  Data norms by radial quadrature.
    """
    d, rel_tol = 4, 2e-4
    l2 = schro_radial_norm_sq(radial_fn, d, 0.0, decay)
    h1 = schro_radial_norm_sq(radial_fn, d, 1.0, decay)
    if route == "fiber":
        v1 = schro_quartic_norm4(radial_fn, d, decay)
        v2 = schro_quartic_norm4(radial_fn, d, decay, n_q=120, n_u=64)
        lhs = v2 ** 0.25
        lhs_err = lhs * abs(v2 - v1) / v2 / 4.0
    elif route == "propagator":
        r, _ = _schro_norm_nodes(decay)
        if np.any(np.abs(np.asarray(radial_fn(r))) > np.exp(-decay * r * r)):
            raise ValueError("route 'propagator' needs |g(rho)| <= e^{-decay rho^2}")
        ev = RadialEvaluator(radial_fn=radial_fn, decay=decay, d=d, family=SCHRODINGER,
                             quad=QuadSpec(rel_tol=0.25 * rel_tol, abs_tol=1e-11))
        win = default_window([ev], tail_factor=4.0, core=10.0)
        lhs, lhs_err = lp_norm_radial(ev, 4, window=win, rel_tol=rel_tol,
                                      max_levels=4, ext_factor=1.6)
    else:
        raise ValueError(f"unknown route {route!r}")
    return mixed_norm_report(lhs, lhs_err, l2, h1)


# ---------------------------------------------------------------------------
# Functional equation residual


def functional_eq_residual(g, d: int, seed: int = 0) -> float:
    """RMS multiplicativity defect of g over constrained quadruples.

    Samples (tau, xi) inside the forward cone and two independent
    decompositions tau = |eta_1| + |eta_2|, xi = eta_1 + eta_2 via the
    ellipse parameterisation r(w) = (tau^2 - |xi|^2)/(2(tau - xi.w));
    the defect is |Log(g(eta_1) g(eta_2) / (g(eta_3) g(eta_4)))| with
    the principal log of the ratio (exactly 0 for exponential profiles).
    """
    n_samples = 2000
    rng = chunk_generator(seed, 0)
    xi = rng.normal(size=(n_samples, d))
    ratios = 1.2 + 2.8 * rng.random(n_samples)
    tau = np.linalg.norm(xi, axis=1) * ratios
    rho = tau * tau - np.einsum("nd,nd->n", xi, xi)

    def decompose(omega):
        rr = rho / (2.0 * (tau - np.einsum("nd,nd->n", xi, omega)))
        eta1 = rr[:, None] * omega
        return eta1, xi - eta1

    e1, e2 = decompose(unit_directions(rng, n_samples, 1, d)[:, 0])
    e3, e4 = decompose(unit_directions(rng, n_samples, 1, d)[:, 0])
    g1, g2, g3, g4 = (np.asarray(g(e), dtype=complex) for e in (e1, e2, e3, e4))
    if np.any(np.abs(g1 * g2) < 1e-280) or np.any(np.abs(g3 * g4) < 1e-280):
        raise ValueError("profile vanishes numerically at a sampled point")
    ratio = (g1 * g2) / (g3 * g4)
    defect = np.abs(np.log(np.abs(ratio))) ** 2 + np.angle(ratio) ** 2
    return float(np.sqrt(np.mean(defect)))


# ---------------------------------------------------------------------------
# The d = 1 separated-support identity


def _smooth_bump(s):
    out = np.zeros_like(s)
    inside = np.abs(s) < 1.0
    out[inside] = np.exp(1.0 - 1.0 / (1.0 - s[inside] ** 2))
    return out


def separated_bump_pair():
    """Frequency bumps supported on [4, 12] and its mirror [-12, -4]."""

    def f1_hat(k):
        return _smooth_bump((np.asarray(k, dtype=float) - 8.0) / 4.0)

    def f2_hat(k):
        return _smooth_bump((np.asarray(k, dtype=float) + 8.0) / 4.0)

    return f1_hat, f2_hat


def schro_identity_check(n: int = 4096) -> dict:
    """Verify ||u1 u2||^2_{L^2} = 1/(2(2pi)^2) int |f1^|^2 |f2^|^2 /|xi_1 - xi_2|.

    Both sides are computed from the same sampled frequency data: the
    left by FFT evolution and quadrature over a time window that lets
    the packets separate, the right by a double sum over the grid modes
    (the supports are disjoint, so the kernel is bounded).
    """
    L, t_half = 160.0, 3.0
    f1_hat, f2_hat = separated_bump_pair()
    g1 = grid_from_freq_data(f1_hat, n, L)
    g2 = grid_from_freq_data(f2_hat, n, L)
    if not (g1.boundary_decayed() and g2.boundary_decayed()):
        raise ValueError("initial data not decayed at the grid boundary")
    k = g1.k
    dx = g1.dx
    f1k = np.asarray(f1_hat(k), dtype=complex)
    f2k = np.asarray(f2_hat(k), dtype=complex)

    t_nodes, t_weights = panel_nodes(np.linspace(-t_half, t_half, 25),  # 24 panels
                                     _PANEL_ORDER)
    lhs = 0.0
    for t, wt in zip(t_nodes, t_weights):
        u1 = schro_fft_1d(g1, t, check_boundary=False).values
        u2 = schro_fft_1d(g2, t, check_boundary=False).values
        lhs += wt * float(np.sum(np.abs(u1 * u2) ** 2)) * dx

    dk = k[1] - k[0]
    s1 = np.abs(f1k) ** 2
    s2 = np.abs(f2k) ** 2
    m1 = np.nonzero(s1 > 0)[0]
    m2 = np.nonzero(s2 > 0)[0]
    diff = np.abs(k[m1][:, None] - k[m2][None, :])
    rhs = float(np.sum(s1[m1][:, None] * s2[m2][None, :] / diff)) * dk * dk
    rhs *= C.schro_identity_constant()
    return {
        "lhs": lhs,
        "rhs": rhs,
        "rel_err": abs(lhs - rhs) / rhs,
        "n": n,
        "L": L,
        "t_half": t_half,
    }
