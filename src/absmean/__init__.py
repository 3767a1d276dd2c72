"""Optimal estimation of the mean absolute value of normal means.

Given y_i = theta_i + z_i with standard normal noise, estimate
T(theta) = n^{-1} sum_i |theta_i|.  The package provides:

* Hermite polynomial tools (`hermite`): unbiased estimation of mean powers.
* Polynomial approximation of |x| (`polyapprox`): the Chebyshev truncation
  and the true minimax polynomial via a Remez exchange.
* Four estimator variants (`estimators`): bounded means, slowly growing
  bound, fully unbounded via sample splitting, and a sparse-normalized form.
* Minimax lower bounds (`lowerbound`): least-favorable prior pairs,
  chi-square distances between Gaussian mixtures, and the constrained
  risk inequality verified by exact enumeration.
* A reproducible Monte Carlo risk harness and CLI (`harness`).
"""

__version__ = "0.1.0"

from .errors import (
    AbsmeanError,
    ConditioningError,
    ConstructionError,
    ConvergenceError,
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
    delta_component,
    estimate_bounded,
    estimate_growing,
    estimate_sparse,
    estimate_unbounded,
    growing_radius,
    hybrid_component,
    run_estimator,
    select_K_growing,
    select_K_star,
    split_samples,
    unbounded_params,
)
from .hermite import hermite_eval, hermite_eval_batch, hermite_second_moment
from .lowerbound import (
    DiscreteModel,
    LowerBoundValue,
    MixtureDistance,
    PriorMoments,
    SymmetricDiscretePrior,
    chi_square_bound_n,
    chi_square_gaussian_mixtures,
    chi_square_mixture_1d,
    chi_square_product_n,
    chi_square_single_term_bound_1d,
    chi_square_tail_bound_1d,
    construct_prior_pair,
    lower_bound_pipeline,
    minimax_lower_bound,
    prior_moments,
    scale_prior,
    select_kn_bounded,
    verify_constrained_risk,
)
from .polyapprox import (
    BERNSTEIN_CONSTANT,
    BestApproxSolution,
    EvenPolynomial,
    bernstein_estimate,
    build_G_K,
    remez_best_approx,
    uniform_error,
)
from .rng import derive_seed, stream

__all__ = [
    "AbsmeanError",
    "BERNSTEIN_CONSTANT",
    "BestApproxSolution",
    "ConditioningError",
    "ConstructionError",
    "ConvergenceError",
    "DataError",
    "DegreeOverflowError",
    "DiscreteModel",
    "DomainError",
    "EstimatorSpec",
    "EvenPolynomial",
    "IntegrationError",
    "LowerBoundValue",
    "MixtureDistance",
    "PreconditionError",
    "PriorMoments",
    "RangeError",
    "SymmetricDiscretePrior",
    "approx_coefficients",
    "bernstein_estimate",
    "build_G_K",
    "chi_square_bound_n",
    "chi_square_gaussian_mixtures",
    "chi_square_mixture_1d",
    "chi_square_product_n",
    "chi_square_single_term_bound_1d",
    "chi_square_tail_bound_1d",
    "construct_prior_pair",
    "delta_component",
    "derive_seed",
    "estimate_bounded",
    "estimate_growing",
    "estimate_sparse",
    "estimate_unbounded",
    "growing_radius",
    "hermite_eval",
    "hermite_eval_batch",
    "hermite_second_moment",
    "hybrid_component",
    "lower_bound_pipeline",
    "minimax_lower_bound",
    "prior_moments",
    "remez_best_approx",
    "run_estimator",
    "scale_prior",
    "select_K_growing",
    "select_K_star",
    "select_kn_bounded",
    "split_samples",
    "stream",
    "uniform_error",
    "unbounded_params",
    "verify_constrained_risk",
    "__version__",
]
