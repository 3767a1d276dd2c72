"""Probabilists' Hermite polynomials and their normal-moment formulas.

The family is defined by H_0 = 1, H_1(y) = y and the three-term recurrence

    H_{k+1}(y) = y * H_k(y) - k * H_{k-1}(y),

orthogonal under the standard normal density phi with integral of
H_k^2 * phi equal to k!.  The property the estimators in this package build
on: for X ~ N(mu, 1), E H_k(X) = mu^k, so empirical means of H_k are
unbiased estimators of pure powers of the mean.  The exact second moment

    E H_k(X)^2 = k! * sum_{j=0..k} C(k, j) mu^{2j} / j!

gives the variance control; it is bounded by e^{mu^2} k^k in general and by
(2 M^2)^k when |mu| <= M with M^2 >= k.

There is one evaluation kernel in the package, numpy.polynomial.hermite_e
(numpy's name for this family is HermiteE).  `hermite_eval` and
`hermite_eval_batch` validate their arguments and read the table that
`hermevander` builds by the recurrence above; the estimators sum their
series with `hermeval`.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermevander

from .errors import DegreeOverflowError, DomainError, RangeError, check_int, check_real

DEFAULT_MAX_DEGREE = 200

_MAX_FLOAT = np.finfo(np.float64).max
_LOG_MAX_FLOAT = math.log(_MAX_FLOAT)
# switch the second-moment accumulation to log-space before intermediates
# can overflow
_DIRECT_LIMIT = 1e300


def _check_degree(k: int, max_degree: int) -> int:
    k = check_int("degree", k, low=0)
    if k > max_degree:
        raise DegreeOverflowError(f"degree {k} exceeds the configured maximum {max_degree}")
    return k


def hermite_eval(k: int, y: float, max_degree: int = DEFAULT_MAX_DEGREE) -> float:
    """Evaluate H_k(y) by the three-term recurrence."""
    return float(hermite_eval_batch(k, float(y), max_degree)[k])


def hermite_eval_batch(k_max: int, y, max_degree: int = DEFAULT_MAX_DEGREE) -> np.ndarray:
    """Evaluate [H_0(y), ..., H_{k_max}(y)] in one recurrence pass.

    `y` may be a scalar or an ndarray; the output has shape
    (k_max + 1,) + shape(y).  Element j agrees exactly with
    hermite_eval(j, y): both read the same recurrence table.
    """
    k_max = _check_degree(k_max, max_degree)
    arr = np.asarray(y, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DomainError("y must be finite")
    # hermevander puts the degree last; moving it back to the front restores
    # the layout the table was built in
    return np.moveaxis(hermevander(arr, k_max), -1, 0).reshape((k_max + 1,) + arr.shape)


def hermite_second_moment(k: int, mu: float, max_degree: int = DEFAULT_MAX_DEGREE) -> float:
    """Exact E H_k(X)^2 for X ~ N(mu, 1).

    Uses the closed form k! * sum_j C(k,j) mu^{2j} / j!, accumulated
    multiplicatively; switches to log-space (logsumexp) if any intermediate
    would exceed the direct-evaluation range.  Raises RangeError when even
    the final value overflows double precision.
    """
    k = _check_degree(k, max_degree)
    mu = check_real("mu", mu)

    if k <= 170:  # k! representable, try the direct accumulation
        term = float(math.factorial(k))
        total = term
        mu2 = mu * mu
        ok = True
        for j in range(k):
            # term ratio: C(k,j+1)/C(k,j) * mu^2 * j!/(j+1)! = mu^2 (k-j)/(j+1)^2
            term *= mu2 * (k - j) / ((j + 1) * (j + 1))
            total += term
            if total > _DIRECT_LIMIT:
                ok = False
                break
        if ok:
            return total

    # log-space path
    if mu == 0.0:
        log_terms = [math.lgamma(k + 1)]
    else:
        log_mu2 = 2.0 * math.log(abs(mu))
        log_terms = []
        for j in range(k + 1):
            log_c = math.lgamma(k + 1) - math.lgamma(j + 1) - math.lgamma(k - j + 1)
            log_terms.append(log_c + j * log_mu2 + math.lgamma(k + 1) - math.lgamma(j + 1))
    peak = max(log_terms)
    log_total = peak + math.log(sum(math.exp(t - peak) for t in log_terms))
    if log_total > _LOG_MAX_FLOAT:
        raise RangeError(f"second moment overflows double range for k={k}, mu={mu}")
    return math.exp(log_total)
