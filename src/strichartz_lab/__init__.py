"""Numerical verification lab for sharp wave/Schrodinger space-time estimates.

The package evaluates every closed-form constant of the sharp bilinear /
multilinear estimates for the half-wave and Schrodinger propagators,
computes both sides of each inequality at desk scale (quadrature on the
left, importance-sampled Monte Carlo or exact Sobolev integrals on the
right), confirms equality on the extremizer families and strict deficit
off them, and searches for extremizers by direct simplex ascent.
"""

from .constants import (
    EstimateScale,
    SCHRODINGER,
    WAVE,
    alpha_exponent,
    beta_exponent,
    beta_fn,
    schro_identity_constant,
    schro_onefn_constant,
    schrodinger_sharp_constant,
    sphere_area,
    wave_onefn_constant,
    wave_sharp_constant,
)
from .geometry import (
    ConePoint,
    boost_matrix,
    galilean_map,
    lorentz_boost,
    minkowski_form,
    schro_weight,
    wave_weight,
)
from .mc import McEstimate
from .profiles import (
    CauchyData,
    ExtremalProfile,
    canonical_energy_pair,
    data_split,
    schrodinger_profile,
    sobolev_norm_sq,
    symmetry_apply,
    wave_profile,
)
from .propagators import (
    Grid1D,
    RadialEvaluator,
    lambda_amplitude,
    lambda_diagnostics,
    schro_fft_1d,
    schro_gaussian_eval,
    wave_eval,
)
from .shells import i_weighted, itilde_closed, itilde_montecarlo, itilde_recursive, schro_shell
from .functionals import (
    QuotientReport,
    mixed_norm_quotient,
    cross_term_gap,
    energy_quotient,
    functional_eq_residual,
    lp_norm_radial,
    multilinear_rhs,
    orthogonal_split_check,
    schro_identity_check,
    onesided_quotient,
    term_II,
)
# The extremizer search function itself stays at
# strichartz_lab.search.search: exporting the bare name here would shadow
# the submodule.
from .search import AnsatzProfile, SearchConfig, SearchTrace

__version__ = "0.1.0"

__all__ = [name for name in dir() if not name.startswith("_")]
