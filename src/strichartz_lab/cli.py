"""Command-line verification suites.

Each subcommand runs one named suite at desk scale, prints a human
summary, optionally writes machine-readable JSON-lines reports (one
object per case, schema: suite, case_id, lhs, rhs, constant, ratio,
deficit, stderr, seed, pass), and exits 0 iff every case passed.
Reports are byte-deterministic for fixed seeds; wall-clock metadata
goes to a separate --meta-out file, never into the report stream.
"""

from __future__ import annotations

import argparse
import math
import sys
import time
from dataclasses import replace

import numpy as np

from . import constants as C
from . import functionals as FN
from . import profiles as P
from . import propagators as PR
from .search import (SUPPORTED_CASES, SearchConfig, search as run_search,
                     symmetry_invariance_audit, trace_to_csv)
from . import shells as SH
from .geometry import ConePoint, boost_defects, paraboloid_defect
from .mc import chunk_generator


def _case(suite, case_id, lhs, rhs, constant, ok, stderr=0.0, seed=0, **extra):
    ratio = lhs / (constant * rhs) if constant * rhs != 0 else math.inf
    row = {
        "suite": suite,
        "case_id": case_id,
        "lhs": float(lhs),
        "rhs": float(rhs),
        "constant": float(constant),
        "ratio": float(ratio),
        "deficit": float(1.0 - ratio),
        "stderr": float(stderr),
        "seed": int(seed),
        "pass": bool(ok),
    }
    row.update(extra)
    return row


def _flag(args, name, default):
    """args.<name>, or the suite's default when the flag was not given;
    an explicit 0 is kept, so the flag checks see it."""
    value = getattr(args, name)
    return default if value is None else value


def _check_constants(args):
    """Catalog rows of the constants suite, d in 2..6 and k in 2..4 unless
    --d, --k or --family narrow them; ValueError when the flags leave no
    catalog row."""
    ds = list(range(2, 7)) if args.d is None else [args.d]
    ks = [2, 3, 4] if args.k is None else [args.k]
    fams = list(C.FAMILIES) if args.family is None else [args.family]
    rows = C.constants_rows(ds, ks, fams)
    if not rows:
        raise ValueError(f"constants has no catalog row for d in {ds}, k in {ks}, "
                         f"family in {fams}")
    return rows


def suite_constants(args, rows):
    """Catalog W(d,k), S(d,k) plus the published-formula consistency checks."""
    cases = []
    for row in rows:
        fam, d, k, const = row["family"], row["d"], row["k"], row["constant"]
        # W(d,k) and S(d,k) = (2pi)^{1-d(2k-1)} I_k, the weighted
        # cone or paraboloid shell constant at (1, 0).
        if fam == C.WAVE:
            unit = SH.i_weighted(d, k, ConePoint(1.0, np.zeros(d))).value
        else:
            unit = SH.schro_shell(d, k, 1.0, np.zeros(d)).weighted
        alt = (2.0 * math.pi) ** (1 - d * (2 * k - 1)) * unit
        # An underflowed (0) or overflowed side is no check at all.
        ok = (all(math.isfinite(v) and v > 0.0 for v in (const, alt))
              and abs(const - alt) <= 1e-12 * const)
        cases.append(
            _case("constants", f"{fam}_d{d}_k{k}", const, alt, 1.0, ok,
                  exponent=row["exponent"], attained=C.EstimateScale(d, k, fam).attained)
        )
    s12 = C.schrodinger_sharp_constant(1, 2)
    cases.append(
        _case("constants", "schro_identity_factor_2", s12,
              C.schro_identity_constant(), 2.0,
              abs(s12 - 2.0 * C.schro_identity_constant()) < 1e-15 * s12)
    )
    if args.out_csv:
        C.write_constants_csv(args.out_csv, rows)
    return cases


def _check_shells(args):
    """(d, k, cone point) of the shells suite, the point (1, 0) unless
    --point is given; ValueError on --d or --k below 2, a non-positive or
    non-finite --epsilon, too few --samples, or a malformed, non-finite or
    exterior --point."""
    d, k = _flag(args, "d", 3), _flag(args, "k", 2)
    if d < C.DIM_FLOOR[C.WAVE]:
        raise ValueError(f"shells needs --d >= {C.DIM_FLOOR[C.WAVE]}, got {d}")
    if k < 2:
        raise ValueError(f"shells needs --k >= 2, got {k}")
    if not 0.0 < args.epsilon < math.inf:
        raise ValueError(f"shells needs --epsilon > 0 and finite (a smoothing width), "
                         f"got {args.epsilon}")
    if args.samples < SH.MIN_MC_SAMPLES:
        raise ValueError(f"shells needs --samples >= {SH.MIN_MC_SAMPLES}")
    if not args.point:
        return d, k, ConePoint(1.0, np.zeros(d))
    vals = [float(x) for x in args.point.split(",")]
    if len(vals) != d + 1:
        raise ValueError(f"--point needs tau and {d} coordinates for d = {d}, "
                         f"got {len(vals)} values")
    if not all(map(math.isfinite, vals)):
        raise ValueError(f"--point needs finite values, got {args.point}")
    pt = ConePoint(vals[0], np.array(vals[1:]))
    if not pt.interior:
        raise ValueError("--point must lie inside the forward cone (tau > |xi|)")
    return d, k, pt


def suite_shells(args, checked):
    """Closed form vs recursion vs Monte Carlo for the cone shell."""
    d, k, pt = checked
    closed = SH.itilde_closed(d, k, pt)
    rec = SH.itilde_recursive(d, k, pt, tol=1e-10)
    mc = SH.itilde_montecarlo(d, k, pt, epsilon=args.epsilon, n_samples=args.samples,
                              seed=args.seed)
    ok_rec = abs(rec.value - closed.value) <= 1e-8 * closed.value
    ok_mc = abs(mc.value - closed.value) <= 3.0 * mc.stderr
    return [
        _case("shells", f"recursion_d{d}_k{k}", rec.value, closed.value, 1.0, ok_rec),
        _case("shells", f"montecarlo_d{d}_k{k}", mc.value, closed.value, 1.0, ok_mc,
              stderr=mc.stderr, seed=args.seed),
    ]


def _check_bilinear(args):
    """(d, k) of the bilinear suite; ValueError unless the flags name a
    k-linear wave estimate with a finite right-hand side and a finite
    Monte Carlo error bar."""
    d, k = _flag(args, "d", 5), _flag(args, "k", 2)
    if d < C.DIM_FLOOR[C.WAVE]:
        raise ValueError(f"bilinear needs --d >= {C.DIM_FLOOR[C.WAVE]}, got {d}")
    if k < 2:
        raise ValueError(f"bilinear needs --k >= 2 (a k-linear estimate), got {k}")
    if not C.rhs_finite(C.WAVE, d, k):
        raise ValueError(f"bilinear has no finite right-hand side at --d {d} --k {k}")
    if args.samples < 2:
        raise ValueError(f"bilinear needs --samples >= 2 for a Monte Carlo error bar, "
                         f"got {args.samples}")
    if args.random_cases < 0:
        raise ValueError(f"--random-cases must be >= 0, got {args.random_cases}")
    return d, k


def suite_bilinear(args, checked):
    """Sharp k-linear wave inequality: extremal ratio 1, random ratios < 1."""
    d, k = checked
    rng = chunk_generator(args.seed, 1)
    tuples = [("extremal", [P.wave_profile(d, -1.0, c=0.1 * j) for j in range(k)], args.seed)]
    for trial in range(args.random_cases):
        profs = [
            P.wave_profile(
                d,
                complex(-math.exp(rng.normal(scale=0.4)), 0.4 * rng.normal()),
                c=complex(0.3 * rng.normal(), math.pi * rng.random()),
            )
            for _ in range(k)
        ]
        tuples.append((f"random{trial}", profs, args.seed + trial + 1))
    cases = []
    for name, profs, seed in tuples:
        rep = FN.multilinear_quotient(profs, args.samples, seed)
        band = 3.0 * rep.combined_err
        ok = abs(rep.ratio - 1.0) <= band if name == "extremal" else rep.ratio <= 1.0 + band
        if k == 2 and d >= 3:
            # The closed-form RHS holds the Monte Carlo RHS of the extremal case
            # at 3 sigma plus rounding (at d = 3, alpha = 0, the weights are
            # constant), and a random case's LHS below the bound to 3x its error.
            exact = FN.radial_pair_rhs(*profs)
            if name == "extremal":
                ok = ok and abs(rep.rhs - exact) <= 3.0 * rep.rhs_err + 1e-12 * exact
            else:
                ok = ok and rep.lhs / (rep.constant * exact) <= 1.0 + 3.0 * rep.lhs_err / rep.lhs
        cases.append(_case("bilinear", f"{name}_d{d}_k{k}", rep.lhs, rep.rhs, rep.constant, ok,
                           stderr=rep.rhs_err, seed=seed))
    return cases


def _check_corollary(args):
    """d of the corollary suite; ValueError unless it has a one-function case."""
    d = _flag(args, "d", 5)
    if d not in C.WAVE_ALPHA1_DEGREE:
        raise ValueError(f"corollary needs --d in {sorted(C.WAVE_ALPHA1_DEGREE)} "
                         f"(the one-function cases), got {d}")
    return d


def suite_corollary(args, d):
    """One-function sharp estimates and the d = 5 energy quotient."""
    cases = []
    prof = P.wave_profile(d, -1.0)
    rep = FN.onesided_quotient(prof)
    cases.append(
        _case("corollary", f"onesided_extremal_d{d}", rep.lhs, rep.rhs, rep.constant,
              abs(rep.deficit) < 5e-3)
    )
    if d == 5:
        ev = PR.RadialEvaluator(prof)
        val, err = FN.product_l2_sq([ev, ev])
        target = 1.0 / (6144.0 * math.pi ** 8)
        cases.append(
            _case("corollary", "quartic_norm_d5", val, target, 1.0,
                  abs(val - target) <= 5e-3 * target)
        )
        fp, fm = P.canonical_energy_pair()
        erep = FN.energy_quotient(fp, fm)
        cases.append(
            _case("corollary", "energy_quotient_canonical", erep.lhs, erep.rhs,
                  erep.constant, abs(erep.deficit) < 5e-3)
        )
        broken = FN.energy_quotient(fp, replace(fm, a=-1.3))
        cases.append(
            _case("corollary", "energy_quotient_broken", broken.lhs, broken.rhs,
                  broken.constant, broken.strict())
        )
        gap = FN.cross_term_gap("paper")
        cases.append(
            _case("corollary", "cross_term_gap_d2", gap["numerator"], gap["denominator"],
                  1.0, (1.0 - gap["ratio"]) > 10.0 * gap["err"])
        )
    return cases


def suite_schro_identity(args, _):
    res = FN.schro_identity_check(n=args.grid)
    ok = res["rel_err"] < 0.01
    case = _case("schrodinger-identity", f"grid{args.grid}", res["lhs"], res["rhs"], 1.0, ok)
    mixed = FN.mixed_norm_quotient(P.schrodinger_profile(4, -1.0))
    case2 = _case("schrodinger-identity", "mixed_norm_gaussian_d4", mixed.lhs, mixed.rhs,
                  mixed.constant, abs(mixed.deficit) < 1e-4)
    return [case, case2]


def _check_search(args):
    """(d, k, family) of the search suite; ValueError on an unsupported
    case or a budget or restart count below 1."""
    case = (_flag(args, "d", 4), _flag(args, "k", 2), _flag(args, "family", C.SCHRODINGER))
    if case not in SUPPORTED_CASES:
        raise ValueError(f"search supports (d, k, family) in {sorted(SUPPORTED_CASES)}, "
                         f"got {case}")
    if args.budget < 1:
        raise ValueError(f"search needs --budget >= 1, got {args.budget}")
    if args.restarts < 1:
        raise ValueError(f"search needs --restarts >= 1, got {args.restarts}")
    return case


def suite_search(args, checked):
    d, k, family = checked
    cfg = SearchConfig(budget=args.budget, seed=args.seed, restarts=args.restarts)
    prof, trace, diag = run_search(d, k, family, cfg)
    qs = trace.quotients
    monotone = all(qs[i] <= qs[i + 1] + 1e-12 for i in range(len(qs) - 1))
    no_super = max(qs) <= 1.0 + 5e-3
    ok = diag["best_quotient"] >= 0.99 and monotone and no_super
    if args.trace_csv:
        trace_to_csv(trace, args.trace_csv)
    return [
        _case("search", f"{family}_d{d}_k{k}", diag["best_quotient"], 1.0, 1.0, ok,
              seed=args.seed, fit_residual=diag["fit_residual"],
              evaluations=diag["evaluations"], terminated_by=trace.terminated_by)
    ]


def suite_audit(args, _):
    """Geometry invariances and the symmetry behaviour of the quotients."""
    rng = chunk_generator(args.seed, 2)
    cases = []
    worst_form, worst_det, worst_group = boost_defects(rng, 200)
    cases.append(_case("audit", "lorentz_form_invariance", worst_form, 1e-10, 1.0,
                       worst_form < 1e-10, seed=args.seed))
    cases.append(_case("audit", "boost_determinant", worst_det, 1e-10, 1.0,
                       worst_det < 1e-10, seed=args.seed))
    cases.append(_case("audit", "boost_group_inverse", worst_group, 1e-9, 1.0,
                       worst_group < 1e-9, seed=args.seed))
    worst_par = paraboloid_defect(rng, 200)
    cases.append(_case("audit", "galilean_paraboloid", worst_par, 1e-12, 1.0,
                       worst_par < 1e-12, seed=args.seed))

    # Translations, rescalings and phases leave the d = 5 quotient
    # unchanged to quadrature noise.
    worst_w = symmetry_invariance_audit(
        P.wave_profile(5, -1.0),
        {"translate": P.Translate(t0=0.7, x0=(0.0,) * 5),
         "rescale": P.Scaling(lam1=1.3, lam2=2.0),
         "phase": P.Phase(theta=1.1)},
        lambda p: FN.onesided_quotient(p).ratio,
    )["max_change"]
    cases.append(_case("audit", "wave_symmetry_invariance", worst_w, 1e-6, 1.0,
                       worst_w < 1e-6))

    # Translations, rescalings and phases preserve the mixed-norm
    # quotient; the Galilean boost does not.
    changes = symmetry_invariance_audit(
        P.schrodinger_profile(4, -1.0),
        {"translate": P.Translate(t0=0.5, x0=(0.2, 0.0, 0.0, 0.0)),
         "rescale": P.Scaling(1.2, 1.5),
         "phase": P.Phase(0.8),
         "galilean": P.GalileanBoost((0.3, 0.0, 0.0, 0.0))},
        lambda p: FN.mixed_norm_quotient(p).ratio,
    )["changes"]
    galilean = changes.pop("galilean")
    worst_s = max(changes.values())
    cases.append(_case("audit", "schro_symmetry_invariance", worst_s, 1e-9, 1.0,
                       worst_s < 1e-9))
    cases.append(_case("audit", "galilean_breaks_mixed_quotient", galilean, 1e-3, 1.0,
                       galilean > 1e-3))
    return cases


# (flag check, suite) per command.  main runs every check once, before
# any suite, so a usage error exits 2 up front, and hands each suite what
# its check returned.
SUITES = {
    "constants": (_check_constants, suite_constants),
    "shells": (_check_shells, suite_shells),
    "bilinear": (_check_bilinear, suite_bilinear),
    "corollary": (_check_corollary, suite_corollary),
    "schrodinger-identity": (lambda args: PR.check_grid_size(args.grid),
                             suite_schro_identity),
    "search": (_check_search, suite_search),
    "audit": (lambda args: None, suite_audit),
}


def _config_flags(ap, path):
    """The flat `key = value` lines of a config file as `--key=value` flags."""
    options = {a.dest: a.option_strings[-1] for a in ap._actions
               if a.option_strings and a.dest not in ("help", "config")}
    try:
        with open(path) as fh:
            lines = [line.strip() for line in fh]
    except OSError as exc:
        ap.error(f"cannot read config file: {exc}")
    flags = []
    for line in lines:
        if not line or line.startswith("#"):
            continue
        key, _, val = line.partition("=")
        key = key.strip().replace("-", "_")
        if key not in options:
            ap.error(f"unknown config key {key!r}")
        flags.append(f"{options[key]}={val.strip()}")
    return flags


def build_parser():
    ap = argparse.ArgumentParser(
        prog="strichartz-lab",
        description="Numerical verification suites for sharp wave/Schrodinger estimates",
    )
    ap.add_argument("command", choices=list(SUITES) + ["all"])
    ap.add_argument("--config", help="flat key=value file of flag values; flags override")
    ap.add_argument("--d", type=int)
    ap.add_argument("--k", type=int)
    ap.add_argument("--family", choices=list(C.FAMILIES))
    ap.add_argument("--point", help="cone point as tau,x1,...,xd")
    ap.add_argument("--seed", type=int, default=2024)
    ap.add_argument("--samples", type=int, default=200_000)
    ap.add_argument("--epsilon", type=float, default=1e-3)
    ap.add_argument("--grid", type=int, default=4096)
    ap.add_argument("--budget", type=int, default=300)
    ap.add_argument("--restarts", type=int, default=3)
    ap.add_argument("--random-cases", type=int, default=5)
    ap.add_argument("--trace-csv")
    ap.add_argument("--out", help="JSON-lines report path")
    ap.add_argument("--out-csv", help="CSV output (constants table)")
    ap.add_argument("--meta-out", help="separate metadata file (timestamps et al.)")
    return ap


def main(argv=None):
    ap = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = ap.parse_args(argv)
    if args.config:
        # Config values parse as flags placed first, so explicit flags win.
        args = ap.parse_args(_config_flags(ap, args.config) + argv)
    runs = list(SUITES.values()) if args.command == "all" else [SUITES[args.command]]
    try:
        checked = [check(args) for check, _ in runs]
    except ValueError as exc:
        ap.error(str(exc))

    started = time.time()
    cases = []
    for (_, suite), flags in zip(runs, checked):
        cases.extend(suite(args, flags))

    failed = [c for c in cases if not c["pass"]]
    for c in cases:
        status = "PASS" if c["pass"] else "FAIL"
        print(f"[{status}] {c['suite']}/{c['case_id']}: ratio={c['ratio']:.6g} "
              f"deficit={c['deficit']:.3g}")
    print(f"{len(cases) - len(failed)}/{len(cases)} cases passed")

    if args.out:
        with open(args.out, "w") as fh:
            for c in cases:
                fh.write(FN.json_line(c) + "\n")
    if args.meta_out:
        with open(args.meta_out, "w") as fh:
            fh.write(FN.json_line({
                "elapsed_seconds": time.time() - started,
                "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
                "argv": argv,
            }) + "\n")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
