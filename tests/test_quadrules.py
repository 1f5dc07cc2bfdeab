"""One source of Gauss-Legendre panels: the uniform panel rule, the cone
and rung rules scaled from it, and no leggauss outside quadrules."""

import re
from pathlib import Path

import numpy as np
import pytest

import strichartz_lab
from strichartz_lab import functionals as FN
from strichartz_lab import propagators as PR
from strichartz_lab.quadrules import leggauss, panel_nodes, uniform_panels


@pytest.mark.parametrize("n_panels, n", [(1, 8), (7, 8), (24, 12), (96, 12)])
def test_uniform_panels_is_the_panel_rule_on_unit_edges(n_panels, n):
    nodes, weights = uniform_panels(n_panels, n)
    want_nodes, want_weights = panel_nodes(np.arange(n_panels + 1.0), n)
    assert nodes.size == weights.size == n * n_panels
    assert np.allclose(nodes, want_nodes, rtol=0.0, atol=4 * n_panels * np.finfo(float).eps)
    assert np.array_equal(weights, want_weights)
    # Exact for x^(2n-1) on every panel, so on [0, n_panels].
    p = 2 * n - 1
    assert np.dot(weights, nodes ** p) == pytest.approx(n_panels ** (p + 1) / (p + 1),
                                                        rel=1e-13)


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_cone_core_and_rungs_are_scalings_of_the_uniform_panel_rule(d):
    nodes, weights = uniform_panels(500, 8)
    core, core_w = FN._unit_core(d, 500)
    assert np.array_equal(core, nodes)
    assert np.array_equal(core_w, weights * nodes ** (d - 1))
    # A row reads the first m panels, so a short build is a bit-for-bit
    # prefix of a long one: rows never depend on the largest row of a pass.
    small, small_w = FN._unit_core(d, 7)
    assert np.array_equal(small, core[:56]) and np.array_equal(small_w, core_w[:56])

    R = 7.3 * d
    x, w = leggauss(12)
    for rung in (0, 1, 3):
        n = PR._MIN_PANELS << rung
        h = R / n
        nodes, weights = uniform_panels(n, 12)
        rho, rho_w = PR._rung_rule(R, rung)
        assert np.array_equal(rho, h * nodes)
        assert np.array_equal(rho_w, h * weights)
        # The same weights as half-widths of linspace edges times w.
        assert np.array_equal(rho_w, np.tile(0.5 * np.linspace(0.0, R, n + 1)[1] * w, n))


def test_leggauss_is_called_only_in_quadrules():
    src = Path(strichartz_lab.__file__).parent
    users = sorted(p.name for p in src.glob("*.py")
                   if re.search(r"leggauss|legendre", p.read_text()))
    assert users == ["quadrules.py"]
