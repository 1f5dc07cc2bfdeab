#!/usr/bin/env python3
"""Benchmark of the verification lab: one seeded workload per process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The lab is imported from ./src of the
same checkout.  With --trace 0 the workload runs as a closed loop (one
client, one verification case at a time) for at least S seconds, ending
on a complete stratum cycle, and prints the end-to-end metrics.  With
--trace 1 it runs a fixed number of cases twice each, untraced then
traced, and prints the per-layer metrics from the spans.  Every case is
checked against the lab's own oracles (see bench/workloads.py).

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics; the line before it is the run
record (versions, thread settings, commit, seed, digest, failures).  The
same record, and in traced runs the spans, are written under .bench_out/.
"""

import time

_T0 = time.perf_counter()

import argparse
import hashlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
DEFAULT_SEED = 2024
# Metric names, units and the run length are kept once, in BENCHMARK.json.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TAIL_PERCENTILE = 90
SETUP_SAMPLES = 3
INPUT_POOL = 256
# One process, one thread: the lab's Monte Carlo pool and BLAS are pinned.
PINNED_ENV = {
    "STRICHARTZ_LAB_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
}
# Monte Carlo 3-sigma checks: every miss is a failed case, but the run is
# marked incorrect only when its misses exceed what a per-check miss rate
# of STAT_MISS_RATE explains with probability 1 - STAT_FALSE_ALARM.  The
# smoothed shell weights are heavy-tailed, so their sample stderr is
# itself noisy: at 2^19 samples the measured miss rate is ~1% at k = 2
# and ~6% at k = 4, far above the Gaussian 0.27% (see bench/DESIGN.md).
STAT_MISS_RATE = 0.05
STAT_FALSE_ALARM = 1e-4


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true",
                    help="set up once, print the set-up time and exit")
    return ap.parse_args(argv)


def import_lab():
    """Import the lab from this checkout's src/, and nothing else."""
    if not (SRC / "strichartz_lab" / "__init__.py").is_file():
        sys.exit(f"bench: no lab source at {SRC / 'strichartz_lab'}")
    os.environ.update(PINNED_ENV)
    sys.path.insert(0, str(SRC))
    import strichartz_lab

    if Path(strichartz_lab.__file__).resolve().parent != SRC / "strichartz_lab":
        sys.exit(f"bench: imported the lab from {strichartz_lab.__file__}, not {SRC}")
    import workloads

    return workloads


class Inputs:
    """Seeded case inputs: a pool generated during set-up, extended on demand.

    Case i depends only on (seed, i), so the pool size never changes an input.
    """

    def __init__(self, workload, seed):
        self.workload, self.seed = workload, seed
        self.pool = [workload.inputs(seed, i) for i in range(INPUT_POOL)]

    def __getitem__(self, i):
        while i >= len(self.pool):
            self.pool.append(self.workload.inputs(self.seed, len(self.pool)))
        return self.pool[i]


def set_up(name, seed):
    """Import, input generation and one warm-up case; timed from process start."""
    workloads = import_lab()
    if name not in workloads.WORKLOADS:
        sys.exit(f"bench: unknown workload {name!r}; one of {sorted(workloads.WORKLOADS)}")
    wl = workloads.WORKLOADS[name]
    inputs = Inputs(wl, seed)
    warm = wl.warmup()
    return wl, inputs, warm, time.perf_counter() - _T0


def setup_probe(name, seed):
    """Set-up time of a fresh process running the same set-up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
           "--seed", str(seed), "--setup-probe"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=120,
                         check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])["setup_s"]


def run_one(wl, inp):
    """(CaseResult or None, error text or None, wall seconds) for one case."""
    c0 = time.perf_counter()
    try:
        res, err = wl.run_case(inp), None
    except Exception as exc:  # a raising case is a failed case, not a crash
        res, err = None, f"{type(exc).__name__}: {exc}"
    return res, err, time.perf_counter() - c0


def digest(results):
    """sha256 of the case results at 15 significant digits, in case order."""
    h = hashlib.sha256()
    for res in results:
        h.update((",".join("%.15g" % v for v in res.values) + "\n").encode())
    return h.hexdigest()[:16]


def stat_allowance(n_checks):
    """Largest miss count a STAT_MISS_RATE process exceeds with prob < STAT_FALSE_ALARM."""
    p, tail, m = STAT_MISS_RATE, 1.0, -1
    while tail >= STAT_FALSE_ALARM and m < n_checks:
        m += 1
        tail -= math.comb(n_checks, m) * p ** m * (1 - p) ** (n_checks - m)
    return m


def gate(wl, results, errors, warm):
    """Correctness summary of a run: (correct, failed, missed, summary).

    failed counts failed operations: cases that raised or gave a wrong
    answer (an exact check missed), plus missed run-level checks.  missed
    also counts cases whose only misses are 3-sigma Monte Carlo bands; a
    correct program misses those at random, so they move pass_frac and,
    past the allowance, the verdict, but are not failed operations.
    """
    failures, stat_checks, stat_misses, exact_misses = [], 0, 0, 0
    for i, (res, err) in enumerate(zip(results, errors)):
        if err is not None:
            failures.append({"case": i, "raised": err})
            continue
        stat_checks += res.stat_checks
        missed = [name for name, passed, _ in res.checks if not passed]
        stat_misses += sum(1 for _, passed, kind in res.checks if kind == "stat" and not passed)
        exact_misses += res.exact_miss
        if missed:
            failures.append({"case": i, "missed": missed})
    for name, passed in wl.run_checks([r for r in results if r is not None]):
        if not passed:
            exact_misses += 1
            failures.append({"run_check": name})
    raised = sum(err is not None for err in errors)
    failed = raised + sum(r is not None and r.exact_miss for r in results) + (
        sum("run_check" in f for f in failures))
    allowance = stat_allowance(stat_checks)
    correct = (raised == 0 and exact_misses == 0 and warm.ok
               and stat_misses <= allowance)
    summary = {
        "raised": raised,
        "exact_misses": exact_misses,
        "stat_checks": stat_checks,
        "stat_misses": stat_misses,
        "stat_miss_allowance": allowance,
        "warmup_ok": warm.ok,
        "failed": failed,
        "missed": len(failures),
        "failures": failures,
    }
    return correct, failed, len(failures), summary


def tail_of(durations):
    """TAIL_PERCENTILE-th percentile of the case times and the cases above it.

    Linear interpolation between order statistics ('inclusive'), so with
    few cases it sits between the slowest cases rather than on one of them.
    """
    if len(durations) == 1:
        return durations[0], 0
    tail = statistics.quantiles(durations, n=100, method="inclusive")[TAIL_PERCENTILE - 1]
    return tail, sum(dt > tail for dt in durations)


def with_units(values, kind):
    """{name: {value, unit}} in BENCHMARK.json's order; the names must match it."""
    spec = {m["name"]: m["unit"] for m in SPEC[kind]}
    if set(values) != set(spec):
        raise RuntimeError(f"bench: {kind} metrics {sorted(set(values) ^ set(spec))} "
                           "are computed or named, not both")
    return {name: {"value": values[name], "unit": unit} for name, unit in spec.items()}


def timed_run(wl, inputs, seconds):
    results, errors, durations = [], [], []
    start = time.perf_counter()
    while True:
        res, err, dt = run_one(wl, inputs[len(results)])
        results.append(res)
        errors.append(err)
        durations.append(dt)
        if len(results) % wl.cycle == 0 and time.perf_counter() - start >= seconds:
            return results, errors, durations, time.perf_counter() - start


def traced_run(wl, inputs, tracing):
    """n_trace cases, each untraced then traced; answers must not move."""
    tracer = tracing.Tracer()
    results, errors = [], []
    untraced_s = traced_s = 0.0
    for i in range(wl.n_trace):
        res_u, err_u, dt_u = run_one(wl, inputs[i])
        with tracer.installed(i):
            res_t, err_t, dt_t = run_one(wl, inputs[i])
        untraced_s += dt_u
        traced_s += dt_t
        err = err_u or err_t
        if err is None and res_u.values != res_t.values:
            err = "traced answer differs from untraced answer"
        results.append(res_u)
        errors.append(err)
    return tracer, results, errors, untraced_s, traced_s


def environment(seed):
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "threads_env": {k: os.environ.get(k) for k in
                        ("STRICHARTZ_LAB_THREADS", "OPENBLAS_NUM_THREADS",
                         "OMP_NUM_THREADS", "MKL_NUM_THREADS")},
        "commit": git_commit(),
        "src_sha256": src_hash(),
        "seed": seed,
    }


def git_commit():
    """Commit of a git checkout; None in an exported tree."""
    try:
        ref = (ROOT / ".git" / "HEAD").read_text().strip()
        if ref.startswith("ref: "):
            ref = (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def src_hash():
    h = hashlib.sha256()
    for path in sorted((SRC / "strichartz_lab").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def main(argv=None):
    args = parse_args(argv)
    wl, inputs, warm, own_setup = set_up(args.workload, args.seed)
    if args.setup_probe:
        print(json.dumps({"setup_s": own_setup}))
        return 0
    import tracing

    record = {"workload": wl.name, "seconds": args.seconds, "trace": args.trace}
    if args.trace:
        tracer, results, errors, untraced_s, traced_s = traced_run(wl, inputs, tracing)
        metrics = with_units(tracer.layer_metrics(untraced_s, traced_s), "per_layer")
        correct, failed, _, summary = gate(wl, results, errors, warm)
        record.update(cases=len(results), untraced_s=untraced_s, traced_s=traced_s,
                      spans=len(tracer.spans))
    else:
        results, errors, durations, elapsed = timed_run(wl, inputs, args.seconds)
        setups = [own_setup] + [setup_probe(wl.name, args.seed) for _ in range(SETUP_SAMPLES - 1)]
        tail, above_tail = tail_of(durations)
        correct, failed, missed, summary = gate(wl, results, errors, warm)
        values = {
            "setup_s": statistics.median(setups),
            "cases_per_s": len(durations) / elapsed,
            "case_p50_s": statistics.median(durations),
            "case_tail_s": tail,
            "pass_frac": 1.0 - missed / len(durations),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = with_units(values, "end_to_end")
        record.update(cases=len(durations), elapsed_s=elapsed, setup_samples_s=setups,
                      case_tail_percentile=TAIL_PERCENTILE, case_tail_samples=len(durations),
                      case_tail_cases_above=above_tail, case_s=durations)
    record.update(summary)
    ok_prefix = wl.n_trace <= len(results) and all(e is None for e in errors[:wl.n_trace])
    record["digest_cases"] = wl.n_trace
    record["digest"] = digest(results[:wl.n_trace]) if ok_prefix else None
    if args.seed == DEFAULT_SEED:
        reference = json.loads((BENCH / "digests.json").read_text()).get(wl.name)
        record["digest_reference"] = reference
        record["digest_match"] = record["digest"] == reference
    record["environment"] = environment(args.seed)

    OUT_DIR.mkdir(exist_ok=True)
    stem = OUT_DIR / f"{wl.name}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(record, indent=1) + "\n")
    if args.trace:
        tracer.write(stem.with_suffix(".spans.jsonl"))
    print(json.dumps(record))
    print(json.dumps({"correct": correct, "attempted": len(results), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
