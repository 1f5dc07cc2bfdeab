"""Propagator evaluation on the extremal families.

Wave side: the one-sided propagator applied to radial-modulus data
reduces to a single oscillatory radial integral

    u(t, r) = (2pi)^{-d} int_0^inf  g(rho) e^{i s t rho} rho^{d-2} A_d(rho r) d rho,

where g = |xi| fhat is the radial frequency amplitude, s = +/-1 the
sheet, and A_d(s) = int_{S^{d-1}} e^{i s w_1} dsigma(w) the sphere
kernel (elementary for odd d, Bessel J for even d).  The quadrature runs
on [0, R], R the certified tail cut below, with rules from one
ladder: rung m is 24 * 2^m uniform 12-node Gauss-Legendre panels.  Time
rows are grouped into 48-row blocks by |t|; a block starts on the lowest
rung with one panel per period of its largest phase (plus 8), and its
level l is l rungs higher, so blocks at different starting rungs use the
same rules.  A block's base rung is only the coarse reference of its
first difference: the value it accepts comes from level 1 or above, so
from at least two panels per period.  Refinement is rung-major: the
rungs are walked upward once, each rung's kernel matrix A_d(rho r) is
built once (2 MB of rho rows at a time) and shared by every block waiting
on it, and a block stops when two of its levels agree.  For the
exponential family the integral is also elementary,

    u(t, r) = e^c kappa_d ((-(a + i s t))^2 + r^2)^{-(d-1)/2},
    kappa_d = Gamma((d+1)/2) / ((d-1) pi^{(d+1)/2}),

which serves as a fast exact path and as the cross-check oracle.  Its
modulus |u|^2 = e^{2 Re c} kappa_d^2 |(-(a + i s t))^2 + r^2|^{-(d-1)} is
evaluated in real arithmetic, for norms that need only |u|^2.

Schrodinger side: Gaussian data evolve in closed form; a 1-D FFT grid
propagator covers the separated-support identity test; and a radial
quadrature path on the same ladder (chirped multiplier e^{-i t rho^2})
handles non-Gaussian data.  Both families cut where the data's envelope
amp_bound e^{-decay rho^p} (p = 1 wave, 2 Schrodinger) leaves a tail of at
most rel_tol * abs_tol (RadialEvaluator._truncation).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .constants import WAVE, SCHRODINGER, check_case, check_length, log_cone_c0, sphere_area, whole
from .profiles import ExtremalProfile, checked_positive
from .quadrules import QuadratureError, lazy_module, uniform_panels

special = lazy_module("scipy.special")

# Fixed geometry of the radial quadrature: at least 24 panels (one per
# oscillation period on a block's base rung, see _base_rung), 48-row time
# blocks, and at most seven rungs above a block's base rung: the base sits
# at most one rung below the two-panels-per-period rung, so a block gives
# up no lower than six rungs above that rung.  Kernel matrices are built in
# rho blocks of at most 2 MB (2^18 float64 entries, at least one rho row),
# so the working set of a rung is a few such blocks whatever the grid.
_MIN_PANELS = 24
_T_BLOCK = 48
_KERNEL_BLOCK_BYTES = 1 << 21
_MAX_LEVELS = 7


def angular_kernel(d: int, s):
    """A_d(s) = int_{S^{d-1}} exp(i s w_1) dsigma(w), vectorised.

    Equals (2pi)^{d/2} s^{-(d-2)/2} J_{(d-2)/2}(s); elementary closed
    forms for d in {2,3,4,5}, series near s = 0 where the Bessel ratio
    degenerates.
    """
    s = np.asarray(s, dtype=float)
    # The elementary forms divide by s: evaluate them everywhere and
    # overwrite the entries with |s| < 0.05 by the series below.  They are
    # built in place, in the operation order of the written formulas
    # (e.g. d = 3: (4 pi sin s) / s), so one output array and at most one
    # scratch array of s's size exist at a time.
    with np.errstate(divide="ignore", invalid="ignore"):
        if d == 2:
            out = special.j0(s)
            out *= 2.0 * math.pi
        elif d == 3:
            out = np.sin(s)
            out *= 4.0 * math.pi
            out /= s
        elif d == 4:
            out = special.j1(s)
            out *= (2.0 * math.pi) ** 2
            out /= s
        elif d == 5:
            out = np.sin(s)
            out /= s
            tmp = np.cos(s)
            out -= tmp
            out *= 8.0 * math.pi ** 2
            out /= np.square(s, out=tmp)
        else:
            nu = 0.5 * (d - 2)
            out = (2.0 * math.pi) ** (0.5 * d) * special.jv(nu, np.abs(s)) / np.abs(s) ** nu
    out = np.asarray(out, dtype=float)
    small = (s > -0.05) & (s < 0.05)  # |s| < 0.05 without a full-size |s|
    if np.any(small):
        # 0F1(d/2; -s^2/4) truncated after z^3: relative error < 1e-12 for
        # |s| < 0.05, where the elementary forms lose digits to cancellation.
        z = s[small] ** 2
        out[small] = sphere_area(d) * (
            1.0
            - z / (2.0 * d)
            + z * z / (8.0 * d * (d + 2.0))
            - z * z * z / (48.0 * d * (d + 2.0) * (d + 4.0))
        )
    return out


def closed_form_kappa(d: int) -> float:
    """kappa_d of the exponential-family kernel."""
    return math.gamma(0.5 * (d + 1)) / ((d - 1) * math.pi ** (0.5 * (d + 1)))


@dataclass(frozen=True)
class QuadSpec:
    """Tolerances of the radial oscillatory quadrature."""

    rel_tol: float = 1e-9
    abs_tol: float = 1e-13

    def __post_init__(self):
        checked_positive(self.rel_tol, "rel_tol")
        checked_positive(self.abs_tol, "abs_tol")


DEFAULT_QUAD = QuadSpec()


def _gaussian_field(p: ExtremalProfile, w, q):
    """(2pi)^{-d} e^c (pi/w)^{d/2} e^{-q/(4w)}, the Schrodinger Gaussian field
    at w = it - a and q = (x - ib).(x - ib); arrays broadcast."""
    return ((2.0 * math.pi) ** (-p.d) * np.exp(p.c) * (math.pi / w) ** (0.5 * p.d)
            * np.exp(-q / (4.0 * w)))


def _inv_half_power(x, n: int):
    """x ** (-n / 2) from one integer-valued power and at most one square root.

    No complex log/exp: for x off the negative real axis this is the
    principal branch, and for even n it is the old x ** (-n / 2) bit for bit.
    """
    m, odd = divmod(n, 2)
    if not odd:
        return x ** float(-m)
    root = np.sqrt(x)
    return 1.0 / root if m == 0 else x ** float(-m) / root


def _base_rung(periods: float) -> int:
    """Lowest rung whose _MIN_PANELS << m panels give a phase of `periods`
    oscillations on [0, R] one panel per period, plus 8 (a 12-node panel
    over one full period of e^{ix} is exact to rounding)."""
    need = max(_MIN_PANELS, math.ceil(periods) + 8)
    return (-(-need // _MIN_PANELS) - 1).bit_length()


def _rung_rule(R: float, rung: int):
    """Rung `rung` of the ladder: _MIN_PANELS << rung uniform 12-node
    Gauss-Legendre panels on [0, R], the unit panel rule scaled by R / n."""
    n_panels = _MIN_PANELS << rung
    h = R / n_panels
    nodes, weights = uniform_panels(n_panels, 12)
    return h * nodes, h * weights


class RadialEvaluator:
    """Space-time field of one radial-data propagator.

    Wave family: evaluates u(t, r) with r the distance from the profile
    center -Im(b); the real tilt must vanish (non-radial moduli are out
    of scope).  method 'auto' uses the exact exponential-family kernel
    when available, 'quadrature' always runs the oscillatory integral;
    any other method raises ValueError.

    Schrodinger family: 'auto' is the Gaussian closed form (b = 0);
    ansatz radial data use the quadrature path with the chirped
    multiplier e^{-i t rho^2}.  Ansatz data keep the envelope contract
    |g(rho)| <= amp_bound e^{-decay rho^p}, p = 1 (wave) or 2
    (Schrodinger), amp_bound finite and > 0 (default 1); the tail cut
    rests on it.
    """

    def __init__(self, profile=None, quad: QuadSpec = DEFAULT_QUAD, method: str = "auto",
                 radial_fn=None, decay=None, amp_bound=1.0, d=None, family=WAVE):
        if method not in ("auto", "quadrature"):
            raise ValueError(f"method must be 'auto' or 'quadrature', got {method!r}")
        sign = 1  # ansatz data ride the + sheet
        if profile is not None:
            if profile.tilt != 0.0:
                raise ValueError("radial evaluation needs Re(b) = 0")
            if profile.family == SCHRODINGER and np.any(profile.b != 0):
                raise ValueError("schrodinger radial evaluation needs b = 0")
            radial_fn, decay, d = profile.freq_amplitude, profile.decay, profile.d
            amp_bound, family, sign = math.exp(profile.c.real), profile.family, profile.sign
        elif radial_fn is None or decay is None or d is None:
            raise ValueError("ansatz evaluators need radial_fn, decay and d")
        check_case(family, d)
        self.quad, self.method, self.profile, self._g = quad, method, profile, radial_fn
        self.decay = checked_positive(float(decay), "decay")
        self.d, self.family, self.sign = int(d), family, sign
        self.amp_bound = checked_positive(float(amp_bound), "amp_bound")

    # -- field protocol ----------------------------------------------------

    @property
    def t_peaks(self):
        """Times of the field's peak at the center (windows are centred on them)."""
        p = self.profile
        if p is None:
            return [0.0]
        if p.family == WAVE:
            return [-p.sign * p.a.imag]
        return [p.a.imag]

    @property
    def has_closed_form(self) -> bool:
        return self.profile is not None and self.method == "auto"

    # -- closed forms ------------------------------------------------------

    def _wave_z2(self, t):
        """z^2 on a time column, z = -(a + i s t) in the right half-plane."""
        z = -(self.profile.a + 1j * self.sign * np.asarray(t, dtype=float)[:, None])
        return z * z

    def _closed_form_grid(self, t, r):
        p = self.profile
        r = np.atleast_2d(r)
        if self.family == WAVE:
            base = self._wave_z2(t) + r * r
            return np.exp(p.c) * closed_form_kappa(p.d) * _inv_half_power(base, p.d - 1)
        return _gaussian_field(p, 1j * np.asarray(t, dtype=float)[:, None] - p.a, r * r)

    @cached_property
    def _abs2_scale(self) -> float:
        """e^{2 Re c} kappa_d^2, the constant factor of |u|^2."""
        return math.exp(2.0 * self.profile.c.real) * closed_form_kappa(self.d) ** 2

    def _closed_form_abs2(self, t, r):
        """|u|^2 of the wave closed form in real arithmetic: only the time
        column is complex, and q = |z^2 + r^2|^2 is built from its parts."""
        z2 = self._wave_z2(t)
        q = z2.real + np.atleast_2d(r) ** 2
        q *= q
        q += z2.imag ** 2
        out = _inv_half_power(q, self.d - 1)
        out *= self._abs2_scale
        return out

    # -- quadrature ---------------------------------------------------------

    def _truncation(self) -> float:
        """Cut R of the radial integral: the smallest R whose envelope tail
        (2pi)^{-d} |S^{d-1}| int_R^inf amp_bound e^{-decay rho^p} rho^{ps-1}
        = amp_bound (2pi)^{-d} |S^{d-1}| Gamma(s) Q(s, decay R^p) / (p decay^s),
        Q the regularized upper gamma, is <= rel_tol * abs_tol (decay R^p = 1
        when R = 0 meets it); (p, s) = (1, d - 1) wave, (2, d/2) Schrodinger.
        Every rung integrates [0, R], so the level test never sees the tail;
        it gets a rel_tol share of that test's abs_tol."""
        q, d = self.quad, self.d
        p, s = (1, d - 1.0) if self.family == WAVE else (2, 0.5 * d)
        scale = self.amp_bound * sphere_area(d) * math.gamma(s) / (p * self.decay ** s)
        y = q.rel_tol * q.abs_tol * (2.0 * math.pi) ** d / scale
        x = special.gammainccinv(s, y) if y < 1.0 else 1.0
        if not math.isfinite(x):
            raise ValueError(f"rel_tol * abs_tol underflows against amp_bound {self.amp_bound:.3g}")
        return float(x / self.decay) ** (1.0 / p)

    def _rung_weights(self, R: float, rung: int):
        """Nodes, time frequencies (osc = exp(i t freq)) and core weights
        g(rho) rho^{d-2 or d-1} w of one rung."""
        rho, w = _rung_rule(R, rung)
        g = np.asarray(self._g(rho), dtype=complex)
        if self.family == WAVE:
            return rho, self.sign * rho, g * rho ** (self.d - 2) * w
        return rho, -(rho * rho), g * rho ** (self.d - 1) * w

    def _add_chunk(self, acc, rows, rho, freq, core, r, phase):
        """acc[b] += [Re; Im](exp(i t_b freq) core) @ A_d(rho r) for every
        block b with time rows t_b in `rows`, from one kernel matrix (a
        local, so it is freed before the next rho block's is built).  The
        [Re; Im] rows are written into the front of the flat real buffer
        `phase` of 2 * _T_BLOCK * (largest rho block) entries."""
        kernel = angular_kernel(self.d, np.outer(rho, r))
        for b, tb in rows.items():
            part = np.exp(1j * np.outer(tb, freq))
            part *= core
            stacked = phase[: 2 * part.size].reshape(2 * tb.size, rho.size)
            stacked[: tb.size] = part.real
            stacked[tb.size :] = part.imag
            acc[b] += stacked @ kernel

    def _quad_blocks(self, t, r, with_error: bool):
        """u on t x r by the rung-major radial quadrature, and its
        refinement error if with_error (else None): level l of a |t| block
        is rung base + l, and each rung is built once for all the blocks
        waiting on it."""
        q = self.quad
        R = self._truncation()
        order = np.argsort(np.abs(t))
        blocks = [order[i0 : i0 + _T_BLOCK] for i0 in range(0, t.size, _T_BLOCK)]
        r_max = float(np.max(r))
        base = []
        for idx in blocks:
            t_max = float(np.max(np.abs(t[idx])))
            max_freq = t_max + r_max if self.family == WAVE else 2.0 * t_max * R + r_max
            base.append(_base_rung(R * max(max_freq, 1e-9) / (2.0 * math.pi)))
        vals = np.empty((t.size, r.size), dtype=complex)
        errs = np.empty((t.size, r.size)) if with_error else None
        prev = [None] * len(blocks)
        pending = list(range(len(blocks)))
        step = max(1, _KERNEL_BLOCK_BYTES // (8 * r.size))
        norm = (2.0 * math.pi) ** self.d
        rung = 0
        while pending:
            rung = max(rung, min(base[b] for b in pending))
            waiting = [b for b in pending if base[b] <= rung]
            rho, freq, core = self._rung_weights(R, rung)
            phase = np.empty(2 * _T_BLOCK * min(step, rho.size))
            rows = {b: t[blocks[b]] for b in waiting}
            acc = {b: np.zeros((2 * tb.size, r.size)) for b, tb in rows.items()}
            for j0 in range(0, rho.size, step):
                sl = slice(j0, j0 + step)
                self._add_chunk(acc, rows, rho[sl], freq[sl], core[sl], r, phase)
            for b in waiting:
                n = blocks[b].size
                cur = (acc[b][:n] + 1j * acc[b][n:]) / norm
                err = None
                if rung > base[b]:
                    err = np.abs(cur - prev[b])
                    scale = np.maximum(np.abs(cur), q.abs_tol / q.rel_tol)
                    if np.all(err <= q.rel_tol * scale + q.abs_tol):
                        vals[blocks[b]] = cur
                        if with_error:
                            errs[blocks[b]] = err
                        pending.remove(b)
                        continue
                if rung - base[b] >= _MAX_LEVELS:
                    raise QuadratureError("radial quadrature did not converge",
                                          best=cur, error=err)
                prev[b] = cur
            rung += 1
        return vals, errs

    def eval_grid(self, t, r, with_error: bool = False, modulus: bool = False):
        """u on the tensor grid t x r, adaptively refined by doubling;
        |u|^2 with modulus=True (an error e of u bounds |u|^2 by e (2|u| + e)).
        Closed-form wave fields answer modulus=True in real arithmetic.
        Closed forms also take r of shape (t.size, n), row i at time t[i].

        Quadrature grids are refined in blocks of time nodes grouped by
        |t|, so small-|t| rows never pay for the oscillation rate of the
        largest times; they need a 1-D r.
        """
        t = np.atleast_1d(np.asarray(t, dtype=float))
        r = np.atleast_1d(np.asarray(r, dtype=float))
        if self.has_closed_form:
            if modulus and self.family == WAVE:
                vals = self._closed_form_abs2(t, r)
            else:
                vals = self._closed_form_grid(t, r)
                if modulus:
                    vals = np.abs(vals) ** 2
            return (vals, np.zeros(vals.shape)) if with_error else vals
        if r.ndim > 1:
            raise ValueError("the radial quadrature needs a 1-D r grid")
        vals, errs = self._quad_blocks(t, r, with_error)
        if modulus:
            vals = np.abs(vals)
            if with_error:
                errs = errs * (2.0 * vals + errs)
            vals *= vals
        return (vals, errs) if with_error else vals


def wave_eval(p: ExtremalProfile, t: float, r: float, method: str = "auto") -> complex:
    """u(t, x) at |x - center| = r for a wave profile (Re(b) = 0)."""
    return complex(RadialEvaluator(p, method=method).eval_grid(float(t), float(r))[0, 0])


def wave_center_value(p: ExtremalProfile, t: float) -> complex:
    """Exact u(t, center) = C0 e^c / ((2pi)^d (-(a + i s t))^{d-1}), C0 = center_line_constant."""
    check_case(p.family, p.d, serves=(WAVE,))
    z = -(p.a + 1j * p.sign * t)
    return np.exp(p.c) * center_line_constant(p.d) / (2.0 * math.pi) ** p.d / z ** (p.d - 1)


# ---------------------------------------------------------------------------
# The amplitude Lambda_{a,b,c} and its uniqueness diagnostics


def lambda_amplitude(p: ExtremalProfile, t: float, x) -> float:
    """|u(t,x)| for a wave profile with imaginary tilt.

    This is the amplitude whose argmax and center-line law determine
    (a, b, Re c).
    """
    x = np.atleast_1d(np.asarray(x, dtype=float))
    check_length("x", x, p.d)
    r = float(np.linalg.norm(x - p.center))
    return abs(wave_eval(p, t, r))


def center_line_constant(d: int) -> float:
    """C0 (constants.log_cone_c0): |u(t, center)| = C0 e^{Re c} / ((2pi)^d |Re a + i t~|^{d-1})."""
    return math.exp(log_cone_c0(d))


def lambda_diagnostics(p: ExtremalProfile):
    """Numeric uniqueness diagnostics of the amplitude.

    Returns dict with the coarse-grid argmax over (t, x_axis), and the
    polynomial fit of C0 exp(-Re c) / Lambda on the center line: for
    d = 5 it is (Re(a)^2 + t~^2)^2, a monic quartic in shifted time with
    constant term Re(a)^4.
    """
    check_case(p.family, p.d, serves=(WAVE,))
    if p.d != 5:
        raise ValueError(f"the diagnostics are written for d = 5, got d = {p.d}")
    ev = RadialEvaluator(p)
    t_star = ev.t_peaks[0]
    t_grid = t_star + np.linspace(-2.0, 2.0, 41)
    center = p.center
    axis = np.zeros(p.d)
    axis[0] = 1.0
    x_offsets = np.linspace(-2.0, 2.0, 41)
    # The point center + s * axis lies at distance |s| from the center.
    vals = np.abs(ev.eval_grid(t_grid, np.abs(x_offsets)))
    it, ix = np.unravel_index(np.argmax(vals), vals.shape)
    # Center-line polynomial: sample and fit degree 4 in shifted time.
    # On the line, Lambda = C0 e^{Re c} / ((2pi)^d |Re a + i t~|^{d-1}), so
    # C0 e^{Re c} / ((2pi)^d Lambda) is the monic quartic (Re a^2 + t~^2)^2.
    ts = np.linspace(-1.5, 1.5, 9)
    lam = np.abs(ev.eval_grid(t_star + ts, 0.0)[:, 0])
    target = center_line_constant(p.d) * math.exp(p.c.real) / ((2.0 * math.pi) ** p.d) / lam
    coeffs = np.polyfit(ts, target, 4)
    return {
        "argmax_t": float(t_grid[it]),
        "argmax_x": center + x_offsets[ix] * axis,
        "lead_coeff": float(coeffs[0]),
        "const_term": float(coeffs[4]),
        "expected_argmax_t": t_star,
        "expected_argmax_x": center,
        "expected_const_term": p.a.real ** 4,
    }


def schro_gaussian_eval(p: ExtremalProfile, t: float, x) -> complex:
    """Closed-form e^{it Lap} evolution of fhat = exp(a|xi|^2 + b.xi + c).

    u(t, x) = (2pi)^{-d} e^c (pi/(it - a))^{d/2} exp(-(x - ib).(x - ib)/(4(it - a))).

    The base it - a stays in the right half-plane (Re = -Re(a) > 0), so
    the principal half-power is already the continuous branch in t.
    """
    check_case(p.family, p.d, serves=(SCHRODINGER,))
    x = np.atleast_1d(np.asarray(x, dtype=complex))
    check_length("x", x, p.d)
    shifted = x - 1j * p.b
    return complex(_gaussian_field(p, 1j * t - p.a, np.sum(shifted * shifted)))


# ---------------------------------------------------------------------------
# 1-D FFT grid propagator


def check_grid_size(n: int) -> None:
    """ValueError unless n is a power of two >= 256 (the FFT grid sizes)."""
    if not whole(n) or n < 256 or n & (n - 1):
        raise ValueError(f"grid size must be a power of two >= 256, got {n}")


@dataclass
class Grid1D:
    """Periodic 1-D grid on [-L, L) with n points (n a power of two)."""

    n: int
    L: float
    values: np.ndarray = field(default=None)

    def __post_init__(self):
        check_grid_size(self.n)
        if self.values is None:
            self.values = np.zeros(self.n, dtype=complex)
        self.values = np.asarray(self.values, dtype=complex)
        if self.values.shape != (self.n,):
            raise ValueError("values shape mismatch")

    @property
    def x(self) -> np.ndarray:
        return -self.L + (2.0 * self.L / self.n) * np.arange(self.n)

    @property
    def k(self) -> np.ndarray:
        return 2.0 * math.pi * np.fft.fftfreq(self.n, d=2.0 * self.L / self.n)

    @property
    def dx(self) -> float:
        return 2.0 * self.L / self.n

    def l2_mass(self) -> float:
        return float(np.sum(np.abs(self.values) ** 2) * self.dx)

    def boundary_decayed(self) -> bool:
        peak = float(np.max(np.abs(self.values)))
        if peak == 0.0:
            return True
        edge = max(abs(self.values[0]), abs(self.values[-1]))
        return edge <= 1e-12 * peak


def grid_from_freq_data(fhat, n: int, L: float) -> Grid1D:
    """Sample fhat on the grid frequencies and invert (paper convention).

    u(x) = (2pi)^{-1} int fhat(k) e^{ikx} dk  ~  (1/dx) ifft(fhat(k) e^{-iLk}).
    """
    g = Grid1D(n, L)
    fk = np.asarray(fhat(g.k), dtype=complex)
    phase = np.exp(-1j * g.L * g.k)
    g.values = np.fft.ifft(fk * phase) / g.dx
    return g


def schro_fft_1d(g: Grid1D, t: float, check_boundary: bool = True) -> Grid1D:
    """Evolve a 1-D grid by the spectral multiplier e^{-i t k^2}."""
    if check_boundary and not g.boundary_decayed():
        raise ValueError("grid data has not decayed at the boundary (periodisation)")
    fk = np.fft.fft(g.values)
    out = np.fft.ifft(fk * np.exp(-1j * t * g.k ** 2))
    return Grid1D(g.n, g.L, out)
