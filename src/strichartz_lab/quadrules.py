"""Cached Gauss-Legendre rules (node generation is O(n^2); reuse them),
the panel and angular rules built on them, the one exception every
adaptive quadrature raises, and the lazy binding of scipy.special, the
one scipy subpackage the lab uses.  No other module calls leggauss."""

from __future__ import annotations

import importlib.util
import math
import sys
from functools import lru_cache

import numpy as np


def lazy_module(name: str):
    """Module `name`, imported on its first attribute access, so a process
    pays the import time and memory of scipy.special only on the routes
    that call it."""
    if name in sys.modules:
        return sys.modules[name]
    spec = importlib.util.find_spec(name)
    spec.loader = importlib.util.LazyLoader(spec.loader)
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module
    spec.loader.exec_module(module)
    return module


@lru_cache(maxsize=64)
def leggauss(n: int):
    x, w = np.polynomial.legendre.leggauss(n)
    x.setflags(write=False)
    w.setflags(write=False)
    return x, w


def gauss_nodes(n: int, lo: float, hi: float):
    """GL nodes/weights on [lo, hi]."""
    x, w = leggauss(n)
    return 0.5 * (hi + lo) + 0.5 * (hi - lo) * x, 0.5 * (hi - lo) * w


def panel_nodes(edges, n: int):
    """n-point GL nodes/weights on every panel between consecutive edges
    along the last axis, flattened along it: edges of shape (..., m + 1)
    give nodes and weights of shape (..., m * n), each row equal bit for
    bit to the call on that row alone."""
    x, w = leggauss(n)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[..., 1:] + edges[..., :-1])
    shape = half.shape[:-1] + (-1,)
    nodes = (mid[..., None] + half[..., None] * x).reshape(shape)
    return nodes, (half[..., None] * w).reshape(shape)


def uniform_panels(n_panels: int, n: int):
    """n-point GL nodes/weights on the unit panels of [0, n_panels]: panel
    i, node j sits at i + (1 + x_j)/2 with weight w_j/2.  Scaling by h
    gives the rule on [0, h * n_panels]; every prefix of n * m entries
    is the rule on [0, m]."""
    x, w = leggauss(n)
    nodes = (np.arange(n_panels)[:, None] + 0.5 * (1.0 + x)).ravel()
    return nodes, np.tile(0.5 * w, n_panels)


def angular_nodes(d: int, n: int):
    """Nodes/weights for int_{-1}^1 (1-u^2)^{(d-3)/2} h(u) du.

    Written as int_0^pi sin^{d-2}(theta) h(cos theta) dtheta, which is
    smooth at the endpoints for every d >= 2, so Gauss-Legendre in theta
    converges spectrally (the raw u-form has endpoint singularities for
    even d).
    """
    theta, w = gauss_nodes(n, 0.0, math.pi)
    return np.cos(theta), w * np.sin(theta) ** (d - 2)


class QuadratureError(RuntimeError):
    """Adaptive quadrature missed its tolerance; carries the best estimate
    and, where one exists, its error estimate."""

    def __init__(self, message, best=None, error=None):
        super().__init__(message)
        self.best = best
        self.error = error
