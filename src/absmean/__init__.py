"""Optimal estimation of the mean absolute value of normal means.

Given y_i = theta_i + z_i with standard normal noise, estimate
T(theta) = n^{-1} sum_i |theta_i|.  The package provides:

* Hermite polynomial tools (`hermite`): unbiased estimation of mean powers.
* Polynomial approximation of |x| (`polyapprox`): the Chebyshev truncation
  and the true minimax polynomial, read from a committed table that a Remez
  exchange in the tests derives and certifies.
* Four estimator variants (`estimators`): bounded means, slowly growing
  bound, fully unbounded via sample splitting, and a sparse-normalized form.
* Minimax lower bounds (`lowerbound`): least-favorable prior pairs,
  chi-square distances between Gaussian mixtures, and the constrained
  risk inequality verified by exact enumeration.
* A reproducible Monte Carlo risk harness and CLI (`harness`).

The package level holds the estimators, the lower-bound pipeline and the
rules both run on, and the errors; everything else is imported from its
module (`absmean.lowerbound`, `absmean.polyapprox`, ...).
"""

__version__ = "0.1.0"

from .errors import (
    AbsmeanError,
    ConstructionError,
    DataError,
    DegreeOverflowError,
    DomainError,
    IntegrationError,
    PreconditionError,
    RangeError,
)
from .estimators import (
    EstimatorSpec,
    approx_coefficients,
    estimate_bounded,
    estimate_growing,
    estimate_sparse,
    estimate_unbounded,
    growing_radius,
    run_estimator,
    select_K_growing,
    select_K_star,
)
from .lowerbound import construct_prior_pair, lower_bound_pipeline, scale_prior, select_kn_bounded

__all__ = [
    "AbsmeanError",
    "ConstructionError",
    "DataError",
    "DegreeOverflowError",
    "DomainError",
    "EstimatorSpec",
    "IntegrationError",
    "PreconditionError",
    "RangeError",
    "approx_coefficients",
    "construct_prior_pair",
    "estimate_bounded",
    "estimate_growing",
    "estimate_sparse",
    "estimate_unbounded",
    "growing_radius",
    "lower_bound_pipeline",
    "run_estimator",
    "scale_prior",
    "select_K_growing",
    "select_K_star",
    "select_kn_bounded",
    "__version__",
]
