"""In-memory span recorder and the per-layer wrappers of the traced run.

Spans are recorded from the benchmark's side only: each layer's public
functions are replaced, at the module attribute they are looked up by,
with a wrapper that opens a span (name, start, end, parent, case, count,
tag) and closes it when the call returns or raises.  Nothing under src/
changes.  `Tracer.installed()` swaps the wrappers in and restores the
originals on exit, so untraced and traced executions run the same code.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import time

import numpy as np

from strichartz_lab import functionals as FN
from strichartz_lab import propagators as PR
from strichartz_lab import search as SR
from strichartz_lab import shells as SH

# Strata of mc.samples_per_s.d{d}k{k}: every (d, k) the workloads sample.
MC_STRATA = [(d, k) for d in (2, 3, 4, 5) for k in (2, 3, 4)]


class Tracer:
    """Spans of one traced run, kept in memory until the run ends.

    A span is [name, start, end, parent, case, count, tag]; parent is the
    index of the enclosing open span (-1 at top level), count is the work
    the call did (grid points, samples, restarts), and tag is the (d, k)
    stratum inherited by Monte Carlo spans from the caller.
    """

    def __init__(self):
        self.spans = []
        self.case = -1
        self._stack = []
        self._patches = []
        self._build_patches()

    # -- recording ---------------------------------------------------------

    def _open(self, name, count=0, tag=None):
        parent = self._stack[-1] if self._stack else -1
        if tag is None and parent >= 0:
            tag = self.spans[parent][6]
        self.spans.append([name, time.perf_counter(), None, parent, self.case, count, tag])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def _close(self, idx):
        self.spans[idx][2] = time.perf_counter()
        self._stack.pop()

    def _wrap(self, fn, name_of, count_of=None, tag_of=None):
        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            name = name_of(args) if callable(name_of) else name_of
            count = count_of(args, kwargs) if count_of else 0
            tag = tag_of(args) if tag_of else None
            idx = self._open(name, count, tag)
            try:
                return fn(*args, **kwargs)
            finally:
                self._close(idx)

        return wrapper

    # -- the layer boundaries ----------------------------------------------

    def _build_patches(self):
        def grid_points(args, kwargs):
            return int(np.atleast_1d(args[1]).size * np.atleast_1d(args[2]).size)

        def eval_name(args):
            return "propagators.closed" if args[0].has_closed_form else "propagators.quad"

        def mc_samples(args, kwargs):
            return int(args[1] if len(args) > 1 else kwargs["n"])

        def mc_mean(original):
            def traced(sample_weights, *args, **kwargs):
                sampler = self._wrap(sample_weights, "mc.sampler")
                idx = self._open("mc", mc_samples((sample_weights,) + args, kwargs))
                try:
                    return original(sampler, *args, **kwargs)
                finally:
                    self._close(idx)

            return traced

        def quotient_objective(original):
            def traced(*args, **kwargs):
                evaluate = original(*args, **kwargs)

                def objective(profile):
                    idx = self._open("search.objective")
                    try:
                        return evaluate(profile)
                    except Exception:
                        # Counted here, before search.neg_q turns it into 0.
                        self.spans[idx][5] = 1
                        raise
                    finally:
                        self._close(idx)

                return objective

            return traced

        def restarts(args, kwargs):
            cfg = kwargs.get("config", args[3] if len(args) > 3 else SR.SearchConfig())
            return int(cfg.restarts)

        def rhs_tag(args):
            return (args[0][0].d, len(args[0]))

        def shell_tag(args):
            return (args[0], args[1])

        w = self._wrap
        self._patches = [
            (PR.RadialEvaluator, "eval_grid",
             lambda f: w(f, eval_name, grid_points)),
            (FN, "product_l2_sq", lambda f: w(f, "functionals.lhs")),
            (FN, "lp_norm_radial", lambda f: w(f, "functionals.lhs")),
            (FN, "multilinear_rhs", lambda f: w(f, "functionals.rhs", tag_of=rhs_tag)),
            (FN, "schro_quartic_norm4", lambda f: w(f, "functionals.fiber")),
            (FN, "wave_bilinear_lhs_fiber", lambda f: w(f, "functionals.fiber")),
            (FN, "wave_radial_norm_sq", lambda f: w(f, "functionals.radial_norm")),
            (FN, "schro_radial_norm_sq", lambda f: w(f, "functionals.radial_norm")),
            (FN, "mc_mean", mc_mean),
            (SH, "mc_mean", mc_mean),
            (FN, "wave_weight_sq_batch", lambda f: w(f, "geometry.weight_batch")),
            (SH, "itilde_closed", lambda f: w(f, "shells.closed", tag_of=shell_tag)),
            (SH, "itilde_recursive", lambda f: w(f, "shells.recursion", tag_of=shell_tag)),
            (SH, "itilde_montecarlo", lambda f: w(f, "shells.montecarlo", tag_of=shell_tag)),
            (SR, "quotient_objective", quotient_objective),
            (SR, "search", lambda f: w(f, "search", restarts)),
        ]

    @contextlib.contextmanager
    def installed(self, case: int):
        """Swap every wrapper in for one traced case, then restore."""
        originals = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in self._patches]
        self.case = case
        try:
            for (owner, attr, make), (_, _, fn) in zip(self._patches, originals):
                setattr(owner, attr, make(fn))
            yield self
        finally:
            for owner, attr, fn in originals:
                setattr(owner, attr, fn)
            self.case = -1

    # -- output --------------------------------------------------------------

    def write(self, path):
        with open(path, "w") as fh:
            for name, start, end, parent, case, count, tag in self.spans:
                fh.write(json.dumps({
                    "name": name, "start": start, "end": end, "parent": parent,
                    "case": case, "count": count, "tag": list(tag) if tag else None,
                }) + "\n")

    def layer_metrics(self, untraced_s: float, traced_s: float) -> dict:
        """Aggregate the spans into the per-layer metrics (value only)."""
        dur = [end - start for _, start, end, *_ in self.spans]
        child = [0.0] * len(self.spans)
        for i, span in enumerate(self.spans):
            if span[3] >= 0:
                child[span[3]] += dur[i]

        def select(name):
            return [i for i, s in enumerate(self.spans) if s[0] == name]

        def busy(name):
            return sum(dur[i] for i in select(name))

        def self_time(name):
            return sum(dur[i] - child[i] for i in select(name))

        def count(name):
            return sum(self.spans[i][5] for i in select(name))

        def ratio(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        def under(ancestor_name, name):
            """Spans called `name` that sit below a span called `ancestor_name`."""
            out = []
            for i in select(name):
                p = self.spans[i][3]
                while p >= 0 and self.spans[p][0] != ancestor_name:
                    p = self.spans[p][3]
                if p >= 0:
                    out.append(i)
            return out

        m = {}
        for kind in ("closed", "quad"):
            name = f"propagators.{kind}"
            m[f"{name}.calls"] = len(select(name))
            m[f"{name}.points"] = count(name)
            m[f"{name}.busy_s"] = busy(name)
        m["propagators.closed.ns_per_point"] = ratio(
            m["propagators.closed.busy_s"], m["propagators.closed.points"], 1e9)
        m["propagators.quad.us_per_point"] = ratio(
            m["propagators.quad.busy_s"], m["propagators.quad.points"], 1e6)

        lhs_calls = len(select("functionals.lhs"))
        evals_under = (under("functionals.lhs", "propagators.closed")
                       + under("functionals.lhs", "propagators.quad"))
        m["functionals.lhs.calls"] = lhs_calls
        m["functionals.lhs.busy_s"] = busy("functionals.lhs")
        m["functionals.lhs.self_s"] = self_time("functionals.lhs")
        m["functionals.lhs.eval_calls_per_call"] = ratio(len(evals_under), lhs_calls)
        m["functionals.lhs.points_per_call"] = ratio(
            sum(self.spans[i][5] for i in evals_under), lhs_calls)
        m["functionals.rhs.calls"] = len(select("functionals.rhs"))
        m["functionals.rhs.busy_s"] = busy("functionals.rhs")
        m["functionals.rhs.self_s"] = self_time("functionals.rhs")
        m["geometry.weight_batch.busy_s"] = busy("geometry.weight_batch")
        m["functionals.fiber.calls"] = len(select("functionals.fiber"))
        m["functionals.fiber.busy_s"] = busy("functionals.fiber")
        m["functionals.fiber.ms_per_call"] = ratio(
            m["functionals.fiber.busy_s"], m["functionals.fiber.calls"], 1e3)
        m["functionals.radial_norm.busy_s"] = busy("functionals.radial_norm")

        m["mc.calls"] = len(select("mc"))
        m["mc.samples"] = count("mc")
        m["mc.busy_s"] = busy("mc")
        m["mc.sampler_s"] = busy("mc.sampler")
        m["mc.self_s"] = self_time("mc")
        m["mc.samples_per_s"] = ratio(m["mc.samples"], m["mc.busy_s"])
        for d, k in MC_STRATA:
            idx = [i for i in select("mc") if self.spans[i][6] == (d, k)]
            m[f"mc.samples_per_s.d{d}k{k}"] = ratio(
                sum(self.spans[i][5] for i in idx), sum(dur[i] for i in idx))

        m["shells.closed.calls"] = len(select("shells.closed"))
        m["shells.recursion.busy_s"] = busy("shells.recursion")
        m["shells.montecarlo.busy_s"] = busy("shells.montecarlo")
        m["shells.montecarlo.self_s"] = self_time("shells.montecarlo")

        objective = [dur[i] for i in select("search.objective")]
        m["search.restarts"] = count("search")
        m["search.evals"] = len(objective)
        m["search.evals_per_s"] = ratio(len(objective), busy("search"))
        m["search.objective_ms_p50"] = 1e3 * statistics.median(objective) if objective else 0.0
        m["search.self_s"] = self_time("search")
        m["search.failed_evals"] = count("search.objective")
        m["trace.overhead_frac"] = traced_s / untraced_s - 1.0
        return m
