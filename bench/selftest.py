#!/usr/bin/env python3
"""Self-test of the benchmark (about a minute; run from the repository root).

    python3 bench/selftest.py

1. Correctness gate: a closed form scaled by (1 + 1e-3) must be counted
   as a failed case that marks the run incorrect (shell closed form
   against the recursion; Schrodinger closed-form kernel against the
   nested quadrature), while a 3-sigma Monte Carlo miss alone counts
   against pass_frac but not as a failed operation.
2. Smoke run: every workload at tiny sizes, untraced and traced, must
   emit every metric BENCHMARK.json names (run.py refuses to print a set
   that differs; the end-to-end values must be non-zero),
   and the traced counts must repeat between two runs of the same seed.
3. A directory holding only BENCHMARK.json and bench/ must make the
   benchmark exit non-zero without printing a result.
"""

import contextlib
import io
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run

ROOT = run.ROOT
workloads = run.import_lab()

from strichartz_lab import propagators as PR  # noqa: E402  (path set by import_lab)
from strichartz_lab import shells as SH  # noqa: E402


class Warm:
    ok = True


def check_gate_catches_perturbed_closed_forms():
    shell = workloads.ShellMonteCarlo()
    inp = shell.inputs(run.DEFAULT_SEED, 0)
    assert shell.run_case(inp).ok
    original = SH.itilde_closed

    def perturbed(d, k, p):
        res = original(d, k, p)
        return SH.ShellResult(res.value * (1.0 + 1e-3), res.method)

    SH.itilde_closed = perturbed
    try:
        res = shell.run_case(inp)
    finally:
        SH.itilde_closed = original
    correct, failed, missed, summary = run.gate(shell, [res], [None], Warm())
    assert not res.ok and res.exact_miss and failed == missed == 1 and not correct, summary

    nested = workloads.NestedQuadrature()
    prof = nested.inputs(run.DEFAULT_SEED, 0)
    closed_grid = PR.RadialEvaluator._closed_form_grid
    PR.RadialEvaluator._closed_form_grid = lambda self, t, r: closed_grid(self, t, r) * (1.0 + 1e-3)
    try:
        res = nested.run_case(prof)
    finally:
        PR.RadialEvaluator._closed_form_grid = closed_grid
    correct, failed, missed, summary = run.gate(nested, [res], [None], Warm())
    assert dict((n, p) for n, p, _ in res.checks) == {
        "exact_5e-3": True, "closed_route_1e-6": False}, res.checks
    assert failed == missed == 1 and not correct, summary

    res = workloads.CaseResult()
    res.check("montecarlo_3sigma", False, "stat")
    correct, failed, missed, summary = run.gate(shell, [res], [None], Warm())
    assert failed == 0 and missed == 1 and correct, summary
    print("gate: perturbed closed forms counted as failed, a 3-sigma miss as missed")


def shrink():
    """Tiny input sizes; every layer each workload reaches is still reached."""
    W = workloads
    W.BilinearSweep.DK = [(3, 2), (2, 3)]
    W.BilinearSweep.TAIL_FACTOR = 2.0
    W.BilinearSweep.RANDOM_SAMPLES = W.BilinearSweep.EXTREMAL_SAMPLES = 2 * 10 ** 4
    W.BilinearSweep.n_trace = 2
    W.ShellMonteCarlo.SAMPLES = 2 ** 14
    W.ExtremizerSearch.BUDGET = 3
    W.ExtremizerSearch.n_trace = 1
    W.NestedQuadrature.DIMS = (3,)
    W.NestedQuadrature.cycle = W.NestedQuadrature.n_trace = 1


def main_json(argv):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        assert run.main(argv) == 0
    return json.loads(buf.getvalue().strip().splitlines()[-1])


def check_smoke_metrics():
    spec = run.SPEC
    assert {w["name"] for w in spec["workloads"]} == set(workloads.WORKLOADS)
    e2e = [m["name"] for m in spec["end_to_end"]]
    counts = [m["name"] for m in spec["per_layer"] if m["unit"] == "count"]
    shrink()
    for name in workloads.WORKLOADS:
        base = ["--workload", name, "--seed", "7", "--seconds", "0"]
        out = main_json(base + ["--trace", "0"])
        assert out["correct"] and out["attempted"] >= 1, out
        assert all(v["value"] > 0 for v in out["metrics"].values()), out["metrics"]
        first = main_json(base + ["--trace", "1"])
        second = main_json(base + ["--trace", "1"])
        assert first["correct"], first
        moved = {k for k in counts if first["metrics"][k] != second["metrics"][k]}
        assert not moved, moved
        print(f"smoke: {name} emits all {len(e2e)} + {len(spec['per_layer'])} metrics; "
              "counts repeat")


def check_fails_without_lab():
    bare = ROOT / ".bench_out" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    shutil.copytree(ROOT / "bench", bare / "bench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", bare)
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "shell_mc",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=bare, capture_output=True, text=True, timeout=180)
    shutil.rmtree(bare)
    assert proc.returncode != 0 and '"metrics"' not in proc.stdout, proc
    print("bare directory: exit code", proc.returncode, "and no result")


if __name__ == "__main__":
    check_gate_catches_perturbed_closed_forms()
    check_fails_without_lab()
    check_smoke_metrics()
    print("selftest ok")
