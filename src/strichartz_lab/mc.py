"""Seeded Monte Carlo plumbing: splittable streams and mean/stderr reports.

All randomness in the package flows through Philox streams keyed by
(seed, stream index).  Philox is counter-based, so the streams are
independent; Monte Carlo means draw chunk i of CHUNK samples from stream
i and merge the chunks in index order, so the estimate for a given
(seed, n) is fixed.  The variance is merged from per-chunk means and
centred sums of squares (Chan, Golub & LeVeque), so constant weights
give a standard error at rounding level rather than the cancellation
noise of E[w^2] - E[w]^2.

A sampler streams each chunk through row blocks of ROW_BLOCK samples
(`blockwise`), drawing a block's direction normals just before its
weights.  A generator fills its draws in order from one bit stream, so
normals drawn block by block have the bits of one whole draw, and the
samples do not depend on ROW_BLOCK.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .constants import whole

CHUNK = 1 << 17  # samples per Philox stream
ROW_BLOCK = 1 << 14  # samples a sampler processes at once
ORDERED_TERMS = 8  # numpy adds a row of fewer terms in index order


@dataclass(frozen=True)
class McEstimate:
    """Monte Carlo result: sample mean and its standard error."""

    mean: float
    stderr: float


def chunk_generator(seed: int, index: int) -> np.random.Generator:
    """Independent stream `index` of one seeded run (whole-number seeds wrap mod 2^64)."""
    if not whole(seed):
        raise ValueError(f"seed must be a whole number, got seed = {seed!r}")
    key = np.array([np.uint64(operator.index(seed) & 0xFFFFFFFFFFFFFFFF), np.uint64(index)])
    return np.random.Generator(np.random.Philox(key=key))


def mc_mean(sample_weights, n: int, seed: int) -> McEstimate:
    """Estimate E[w] where sample_weights(rng, m) returns m weights.

    The callable must be a pure function of the generator state; chunk i
    holds min(CHUNK, n - i*CHUNK) samples from `chunk_generator(seed, i)`.
    """
    if not whole(n) or n < 1:
        raise ValueError(f"need a whole number of samples >= 1, got {n!r}")
    totals, count, run_mean, m2 = [], 0, 0.0, 0.0
    for idx in range(-(-n // CHUNK)):
        m = min(CHUNK, n - count)
        w = np.asarray(sample_weights(chunk_generator(seed, idx), m), dtype=float)
        if w.size != m:
            raise ValueError("sampler returned wrong batch size")
        total = float(np.sum(w))
        dev = w - total / m
        totals.append(total)
        delta = total / m - run_mean
        count += m
        run_mean += delta * m / count
        m2 += float(np.sum(dev * dev)) + delta * delta * (count - m) * m / count
        del w, dev  # free this chunk before the next one is drawn
    stderr = math.sqrt(m2 / n / n) if n > 1 else float("inf")
    return McEstimate(mean=math.fsum(totals) / n, stderr=stderr)


def row_blocks(m: int) -> list:
    """Slices of at most ROW_BLOCK consecutive rows that cover range(m)."""
    return [slice(lo, lo + ROW_BLOCK) for lo in range(0, m, ROW_BLOCK)]


def blockwise(m: int, draw, weights, *arrays) -> np.ndarray:
    """The m weights of one chunk over its row_blocks, in order: for a block
    of n rows, weights(*(a[rows] for a in arrays), draw(n)).  The arrays hold
    samples drawn whole beforehand, draw(n) draws the block's fresh ones;
    weights keep their bits, and draws and temporaries are a block's size."""
    w = np.empty(m)
    for rows in row_blocks(m):
        w[rows] = weights(*(a[rows] for a in arrays), draw(min(rows.stop, m) - rows.start))
    return w


def row_sum(a: np.ndarray) -> np.ndarray:
    """a.sum(axis=-1), bit for bit, from the columns of a."""
    if a.shape[-1] >= ORDERED_TERMS:
        return a.sum(axis=-1)
    total = a[..., 0].copy()
    for j in range(1, a.shape[-1]):
        total += a[..., j]
    return total


def row_norm(a: np.ndarray) -> np.ndarray:
    """np.linalg.norm(a, axis=-1) of a real array, bit for bit, from its columns."""
    if a.shape[-1] >= ORDERED_TERMS:
        return np.linalg.norm(a, axis=-1)
    sq = a[..., 0] * a[..., 0]
    for c in range(1, a.shape[-1]):
        sq += a[..., c] * a[..., c]
    return np.sqrt(sq, out=sq)


def unit_directions(rng: np.random.Generator, m: int, k: int, d: int) -> np.ndarray:
    """m samples of k independent uniform directions on S^{d-1}, shape (m, k, d).

    One normal draw of shape (m, k, d), each d-vector scaled to unit length;
    the samplers ask for one row block at a time (`blockwise`).
    """
    dirs = rng.normal(size=(m, k, d))
    for j in range(k):
        u = dirs[:, j]
        length = row_norm(u)
        for c in range(d):
            u[:, c] /= length
    return dirs
