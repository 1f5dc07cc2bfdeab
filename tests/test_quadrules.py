"""One source of Gauss-Legendre panels: the panel rule (row by row on
batched edges), the uniform panel rule and the rung rules scaled from
it, and no leggauss outside quadrules; scipy subpackages load on first use,
and scipy.integrate not at all."""

import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import strichartz_lab
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


def test_batched_panel_nodes_equal_the_per_row_calls():
    # The cone driver builds a chunk of graded rows in one call; each row
    # must be the 1-D rule on its own edges, bit for bit, zero-width
    # (clipped) panels included.
    rng = np.random.default_rng(3)
    edges = np.sort(np.clip(rng.normal(scale=4.0, size=(2, 5, 17)), -1.0, 6.0), axis=-1)
    nodes, weights = panel_nodes(edges, 8)
    assert nodes.shape == weights.shape == (2, 5, 16 * 8)
    assert np.any(weights == 0.0)
    for idx in np.ndindex(edges.shape[:-1]):
        want_nodes, want_weights = panel_nodes(edges[idx], 8)
        assert np.array_equal(nodes[idx], want_nodes)
        assert np.array_equal(weights[idx], want_weights)
    # 1-D edges give the flat rule of the rectangular driver, as before.
    x, w = leggauss(8)
    row = edges[0, 0]
    half, mid = 0.5 * np.diff(row), 0.5 * (row[1:] + row[:-1])
    flat_nodes, flat_weights = panel_nodes(row, 8)
    assert np.array_equal(flat_nodes, (mid[:, None] + half[:, None] * x[None, :]).ravel())
    assert np.array_equal(flat_weights, (half[:, None] * w[None, :]).ravel())


@pytest.mark.parametrize("d", [2, 3, 4, 5])
def test_rungs_are_scalings_of_the_uniform_panel_rule(d):
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


def test_no_module_names_scipy_integrate():
    # The shell recursion's radial integral is a Gauss-Legendre rule, so
    # scipy.integrate (which imports scipy.optimize and scipy.special) is
    # left to the tests, as an oracle.
    src = Path(strichartz_lab.__file__).parent
    assert [p.name for p in src.glob("*.py") if "scipy.integrate" in p.read_text()] == []


# Per subpackage, a module that only executing its __init__ imports, so a
# placeholder left in sys.modules by a lazy loader does not count as loaded.
_SCIPY_IMPL = {"special": "scipy.special._ufuncs",
               "integrate": "scipy.integrate._quadpack_py",
               "optimize": "scipy.optimize._minimize"}


@pytest.mark.parametrize("code, loaded, not_loaded", [
    ("import contextlib, io, strichartz_lab, strichartz_lab.cli as cli\n"
     "with contextlib.redirect_stdout(io.StringIO()):\n"
     "    assert cli.main(['constants']) == 0",
     [], ["special", "integrate", "optimize"]),
    ("import numpy as np\nfrom strichartz_lab import propagators as PR\n"
     "PR.angular_kernel(4, np.linspace(0.0, 9.0, 7))",
     ["special"], ["integrate", "optimize"]),
    ("from strichartz_lab import geometry as G, shells as SH\n"
     "SH.itilde_recursive(3, 3, G.ConePoint(2.0, (0.3, 0.1, 0.0)))\n"
     "SH.itilde_recursive(5, 4, G.ConePoint(2.0, (0.3, 0.1, 0.0, 0.2, 0.0)))",
     [], ["special", "integrate", "optimize"]),
    ("import strichartz_lab.search as S\n"
     "S.search(4, 2, 'schrodinger', S.SearchConfig(budget=1))",
     ["optimize"], []),
], ids=["cli_constants", "angular_kernel", "itilde_recursive", "search"])
def test_scipy_subpackages_load_on_first_use(code, loaded, not_loaded):
    # A fresh interpreter, so no earlier test has imported scipy already.
    src = str(Path(strichartz_lab.__file__).resolve().parents[1])
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    probe = (code + "\nimport sys\nprint(*sorted(k for k, m in %r.items() if m in sys.modules))"
             % _SCIPY_IMPL)
    out = subprocess.run([sys.executable, "-c", probe], env=dict(os.environ, PYTHONPATH=path),
                         capture_output=True, text=True, timeout=120, check=True).stdout
    have = set(out.split())
    assert set(loaded) <= have and not have & set(not_loaded), have
