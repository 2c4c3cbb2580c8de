"""Moments of diagonal Gaussians truncated to a centered Euclidean ball.

The package evaluates Gaussian ball integrals (nested quadrature at
v = 2..4, a chi-square mixture at v = 1 and v >= 5, Monte Carlo), the
conditional moments and sign structure of the squared components, the
large-radius expansion with its coefficient functions, and the exact
combinatorial algebra governing the expansion's asymptotic signs.
"""

from .ball import (
    IntegralValue,
    MCEstimate,
    MultiIndex,
    Spectrum,
    ball_integral,
    ball_integral_1d,
    ball_integral_mc,
    ball_integrals,
    ball_integrals_mc,
    verify_structural,
)
from .errors import (
    CapabilityError,
    DegenerateAcceptanceError,
    DomainError,
    NumericError,
    TruncGaussError,
)
from .eta import asymptotic_checks, coefficient_table, eta_combinatorial, eta_fd_oracle
from .expansion import (
    ConvergenceEstimate,
    ExpansionPartialSum,
    convergence_estimate,
    expand_alpha,
    gamma_nm_cancellation_check,
    gamma_nn_expansion_coeff,
    q_polynomial,
)
from .moments import (
    CorrelationSet,
    HolderReport,
    MomentBatch,
    MomentSet,
    conditional_moments,
    correlation_set,
    holder_report,
    inequality_battery,
    loose_bound_check,
    marginal_density,
    rho_star,
    variance_gap,
)
from .special import (
    double_factorial,
    lower_incomplete_gamma,
    raising_factorial,
    stirling_first_unsigned,
    stirling_second,
)
from .xi import (
    enumerate_exponents,
    gap_convolution_check,
    gap_limit_coefficient,
    inverse_mass_identity_check,
    omega,
    omega_inequality_scan,
    psi,
    psi_grouped,
    xi_alpha_limit,
    xi_product,
)

__version__ = "0.1.0"
