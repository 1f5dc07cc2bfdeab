"""Session-wide results that more than one test checks.

Each fixture runs one expensive computation once per test session; every
test keeps its own assertions and tolerances on the shared result.
"""

import tracemalloc

import pytest

from strichartz_lab import functionals as FN
from strichartz_lab import profiles as P
from strichartz_lab import propagators as PR


@pytest.fixture(scope="session")
def cross_term_gaps():
    """FN.cross_term_gap for each mode (criterion 09, test_cross_term_gap_modes)."""
    return {mode: FN.cross_term_gap(mode) for mode in ("paper", "coincident", "negated")}


@pytest.fixture(scope="session")
def nested_quartic_d5():
    """(value, error) of ||u||_4^4 for the d = 5 extremal by the nested
    oscillatory quadrature, on the closed kernel's window with tail
    factor 4 (criterion 05, test_quadrature_method_matches_closed_kernel_route)."""
    prof = P.wave_profile(5, -1.0)
    evq = PR.RadialEvaluator(prof, method="quadrature",
                             quad=PR.QuadSpec(rel_tol=1e-6, abs_tol=1e-11))
    win = FN.default_window([PR.RadialEvaluator(prof)], tail_factor=4.0)
    return FN.product_l2_sq([evq, evq], window=win, rel_tol=3e-4,
                            mode="rect", check_window=False, max_levels=3)


@pytest.fixture
def traced_peak():
    """peak(fn, *args, **kw): the tracemalloc peak in bytes of one call
    (numpy reports its array buffers to tracemalloc)."""
    def peak(fn, *args, **kw):
        tracemalloc.start()
        try:
            fn(*args, **kw)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
    return peak
