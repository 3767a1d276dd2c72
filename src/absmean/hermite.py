"""Probabilists' Hermite polynomials and their normal-moment formulas.

The family is defined by H_0 = 1, H_1(y) = y and the three-term recurrence

    H_{k+1}(y) = y * H_k(y) - k * H_{k-1}(y),

orthogonal under the standard normal density phi with integral of
H_k^2 * phi equal to k!.  The property the estimators in this package build
on: for X ~ N(mu, 1), E H_k(X) = mu^k, so empirical means of H_k are
unbiased estimators of pure powers of the mean.  The exact second moment

    E H_k(X)^2 = k! * sum_{j=0..k} C(k, j) mu^{2j} / j!

gives the variance control; it is bounded by e^{mu^2} k^k in general and by
(2 M^2)^k when |mu| <= M with M^2 >= k.  `hermite_second_moment` sums it
directly: no term is negative, so no partial sum exceeds the result, and
it raises RangeError exactly where the result leaves the double range
(always for k > 170, where k! alone does).

Every function here takes degrees up to MAX_DEGREE and raises
DegreeOverflowError past it.  `hermite_eval` and `hermite_eval_batch`
validate their arguments, raising DomainError on text (numeric text too)
and RangeError where a value overflows the double range, and read the
table that numpy.polynomial.hermite_e.hermevander builds by the recurrence
above (numpy's name for this family is HermiteE).  The
estimators need only the even polynomials, as a weighted sum; they sum them
with their own kernel, Clenshaw summation in u = y^2 on the recurrence
above taken two degrees at a time (estimators._clenshaw).
"""

from __future__ import annotations

import math

import numpy as np
from numpy.polynomial.hermite_e import hermevander

from .errors import DegreeOverflowError, RangeError, check_int, check_real, check_real_array

MAX_DEGREE = 200


def _check_degree(k: int) -> int:
    k = check_int("degree", k, low=0)
    if k > MAX_DEGREE:
        raise DegreeOverflowError(f"degree {k} exceeds the supported maximum {MAX_DEGREE}")
    return k


def hermite_eval(k: int, y: float) -> float:
    """Evaluate H_k(y) by the three-term recurrence."""
    return float(hermite_eval_batch(k, check_real("y", y))[k])


def hermite_eval_batch(k_max: int, y) -> np.ndarray:
    """Evaluate [H_0(y), ..., H_{k_max}(y)] in one recurrence pass.

    `y` may be a scalar or an ndarray; the output has shape
    (k_max + 1,) + shape(y).  Element j agrees exactly with
    hermite_eval(j, y): both read the same recurrence table.  Entries of
    `y` must be finite Python or numpy integers or floats; text, bools,
    other objects, inf and nan raise DomainError, and an H_k(y) past the
    double range raises RangeError.
    """
    k_max = _check_degree(k_max)
    arr = check_real_array("y", y)
    with np.errstate(over="ignore", invalid="ignore"):
        table = hermevander(arr, k_max)
    if not np.all(np.isfinite(table)):
        raise RangeError(f"H_k(y) overflows the double range for some k <= {k_max}")
    # hermevander puts the degree last; moving it back to the front restores
    # the layout the table was built in
    return np.moveaxis(table, -1, 0).reshape((k_max + 1,) + arr.shape)


def hermite_second_moment(k: int, mu: float) -> float:
    """Exact E H_k(X)^2 for X ~ N(mu, 1).

    Sums the closed form k! * sum_j C(k,j) mu^{2j} / j! term by term.  No
    term is negative, so the running total is the largest number formed and
    overflows only when the result does; RangeError then.
    """
    k = _check_degree(k)
    mu = check_real("mu", mu)
    total = math.inf
    if k <= 170:   # past that, the j = 0 term k! alone leaves the double range
        term = total = float(math.factorial(k))
        mu2 = mu * mu
        for j in range(k):
            # term ratio: C(k,j+1)/C(k,j) * mu^2 * j!/(j+1)! = mu^2 (k-j)/(j+1)^2
            term *= mu2 * (k - j) / ((j + 1) * (j + 1))
            total += term
    if not math.isfinite(total):
        raise RangeError(f"second moment overflows double range for k={k}, mu={mu}")
    return total
