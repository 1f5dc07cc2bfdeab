"""Seeded Monte Carlo plumbing: splittable streams and mean/stderr reports.

All randomness in the package flows through Philox streams keyed by
(seed, stream index).  Philox is counter-based, so the streams are
independent; Monte Carlo means use one stream per chunk, and the
estimate for a given (seed, n) is bit-identical no matter how chunks
are scheduled across workers: partial results are reduced in chunk order
after the fact.  The variance is merged from per-chunk means and
centred sums of squares (Chan, Golub & LeVeque), so constant weights
give a standard error at rounding level rather than the cancellation
noise of E[w^2] - E[w]^2.
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

CHUNK = 1 << 17  # samples per Philox stream

THREADS_ENV = "STRICHARTZ_LAB_THREADS"


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo result: sample mean, standard error, count, seed."""

    mean: float
    stderr: float
    n: int
    seed: int


def chunk_generator(seed: int, index: int) -> np.random.Generator:
    """Independent stream `index` of one seeded run (seeds wrap mod 2^64)."""
    key = np.array([np.uint64(seed & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))


def _worker_count() -> int:
    raw = os.environ.get(THREADS_ENV, "1")
    try:
        return max(1, int(raw))
    except ValueError:
        return 1


def mc_mean(sample_weights, n: int, seed: int) -> McEstimate:
    """Estimate E[w] where sample_weights(rng, m) returns m weights.

    The callable must be a pure function of the generator state; chunk
    results are combined in index order so thread count cannot change
    the outcome.
    """
    if n < 1:
        raise ValueError("need at least one sample")
    sizes = []
    remaining = n
    while remaining > 0:
        m = min(CHUNK, remaining)
        sizes.append(m)
        remaining -= m

    def run(idx_size):
        idx, m = idx_size
        w = np.asarray(sample_weights(chunk_generator(seed, idx), m), dtype=float)
        if w.size != m:
            raise ValueError("sampler returned wrong batch size")
        total = float(np.sum(w))
        dev = w - total / m
        return total, float(np.sum(dev * dev)), m

    tasks = list(enumerate(sizes))
    workers = _worker_count()
    if workers > 1 and len(tasks) > 1:
        with ThreadPoolExecutor(max_workers=workers) as pool:
            partials = list(pool.map(run, tasks))
    else:
        partials = [run(t) for t in tasks]

    mean = math.fsum(p[0] for p in partials) / n
    count, run_mean, m2 = 0, 0.0, 0.0
    for total, chunk_m2, m in partials:
        delta = total / m - run_mean
        count += m
        run_mean += delta * m / count
        m2 += chunk_m2 + delta * delta * (count - m) * m / count
    stderr = math.sqrt(m2 / n / n) if n > 1 else float("inf")
    return McEstimate(mean=mean, stderr=stderr, n=n, seed=seed)
