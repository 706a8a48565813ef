"""Self-verifying numerics for representations of the Riemann zeta function
built from Mellin transforms of periodic dilogarithm-related kernels.

Every quantity is computable by at least two independent paths (closed form,
direct period summation, incomplete-gamma series, quadrature), so the exact
identities double as the test suite.
"""

from .core import DomainError, EvalResult, PoleError
from .kernels import (
    PI2_6,
    PI2_12,
    ROOT_HI,
    ROOT_LO,
    TWO_PI,
    KernelId,
    kernel_cosine_partial,
    kernel_eval,
    reduce_period,
)
from .mellin import (
    MellinMethod,
    PeriodSumConfig,
    a_tilde_j,
    a_tilde_series,
    d_closed,
    d_gamma_series,
    d_n_closed,
    d_quad,
    i_alpha,
    kernel_integral,
)
from .muntz import (
    TestFunction,
    gaussian,
    icing_sum_check,
    incomplete_mellin_phi,
    mellin_fourier_phi,
    mellin_numeric,
    muntz_lhs_rhs,
    poisson_check,
    theta,
    theta_check,
    triangle,
    triangle_fourier,
)
from .specfun import (
    a_n_approx,
    inc_gamma,
    zeta_partial,
    zeta_ref,
)
from .zerofree import (
    Certificate,
    ScanReport,
    b_bound,
    c_bracket,
    c_of_u,
    certify,
    scan_line,
    zero_residual,
)
from .zeta_reps import (
    zeta_bound_e,
    zeta_bound_f,
    zeta_via_d,
    zeta_via_e,
    zeta_via_f,
)

__version__ = "0.1.0"

__all__ = [
    "Certificate",
    "DomainError",
    "EvalResult",
    "KernelId",
    "MellinMethod",
    "PeriodSumConfig",
    "PI2_6",
    "PI2_12",
    "PoleError",
    "ROOT_HI",
    "ROOT_LO",
    "ScanReport",
    "TWO_PI",
    "TestFunction",
    "a_n_approx",
    "a_tilde_j",
    "a_tilde_series",
    "b_bound",
    "c_bracket",
    "c_of_u",
    "certify",
    "d_closed",
    "d_gamma_series",
    "d_n_closed",
    "d_quad",
    "gaussian",
    "i_alpha",
    "icing_sum_check",
    "inc_gamma",
    "incomplete_mellin_phi",
    "kernel_cosine_partial",
    "kernel_eval",
    "kernel_integral",
    "mellin_fourier_phi",
    "mellin_numeric",
    "muntz_lhs_rhs",
    "poisson_check",
    "reduce_period",
    "scan_line",
    "theta",
    "theta_check",
    "triangle",
    "triangle_fourier",
    "zero_residual",
    "zeta_bound_e",
    "zeta_bound_f",
    "zeta_partial",
    "zeta_ref",
    "zeta_via_d",
    "zeta_via_e",
    "zeta_via_f",
]
