"""Fractional powers of sub-Laplacians by heat-semigroup subordination.

Builds discrete sub-Laplacians on the Heisenberg group and Euclidean tori,
diagonalizes them, runs the spectral functional calculus (fractional powers,
heat semigroup), solves the associated extension problem by subordination
quadrature, and verifies the boundary-limit identity
lim_{t->0+} t^{1-2s} d_t u = -C(s) J^s phi along with the supporting
kernel estimates.
"""

__version__ = "0.1.0"

from .errors import (
    AccuracyError,
    CapacityError,
    ConfigError,
    EvaluationError,
    GridMismatchError,
    SubfracError,
)
from .group import (
    GridFunction,
    GridSpec,
    gaussian_bump,
    group_convolve,
    integral,
    lp_norm,
    random_bump,
    read_gf1,
    write_gf1,
)
from .stencils import (
    DiscreteOperator,
    apply_multi_index,
    assemble_operator,
    build_vector_field,
    check_homogeneity,
    export_matrix_market,
)
from .spectral import (
    KrylovSpectrum,
    SpectralDecomposition,
    Spectrum,
    delta_function,
    eigen_probe,
    export_spectrum_csv,
    fractional_power,
    heat_apply,
    heat_kernel_column,
    krylov_spectrum,
    spectral_decompose,
)
from .extension import (
    BoundaryLimitResult,
    ExtensionParams,
    ExtensionProfile,
    boundary_limit,
    extension_constant,
    extension_constant_quadrature,
    extension_multiplier_values,
    extension_solve,
    extension_solve_tau_grid,
    path_agreement,
    pde_residual,
    scalar_ode_residual,
    subordination_integral,
)
from .fourier import fourier_decompose
from .estimates import (
    DecayFit,
    GaussianBoundResult,
    fit_loglog,
    gaussian_bound_check,
    kernel_norm_decay,
    kernel_reconstruction_gap,
    measure_ball_volumes,
    volume_growth_fit,
)
