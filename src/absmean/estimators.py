"""Series estimators of the mean absolute value of normal means.

Observation model: y_i = theta_i + z_i with z_i iid standard normal.  The
target is T(theta) = n^{-1} sum_i |theta_i|; the sparse variant renormalizes
by a known support size k_n instead of n.

All variants follow one scheme: replace |t| on a working interval [-M, M]
by an even polynomial sum_k g_{2k} t^{2k} (rescaled from the unit interval,
so the coefficient of B_{2k} is g_{2k} M^{-2k+1}), then estimate each power
unbiasedly through the Hermite sample means B_{2k} = n^{-1} sum_i H_{2k}(y_i).
They differ in how the interval and the series cutoff K grow with n and in
how coordinates that may fall outside the interval are handled:

* bounded   -- M supplied by the caller, K* = round(ln n / (2 ln ln n)),
               best-approximation coefficients by default;
* growing   -- the bounded series with M_n = sqrt(c ln n) for a caller-chosen
               c > 1, K = max(1, floor(log2(n)/7 - sqrt(ln n))), truncated
               Chebyshev coefficients;
* unbounded -- sample splitting plus a per-coordinate hybrid: the series
               component on the half-sample coordinate when the other half
               looks small, |x| itself otherwise;
* sparse    -- the unbounded hybrid with the constant term dropped, the cap
               raised from n to n^2, and normalization by k_n.

Every variant evaluates the same object, the per-coordinate even series
S(y_i) = sum_k g_{2k} M^{1-2k} H_{2k}(y_i), with one kernel:
numpy.polynomial.hermite_e.hermeval (Clenshaw summation) on a coefficient
vector whose odd slots are zero.  The bounded and growing estimates are the
mean of S over the coordinates; the hybrids cap S and branch per coordinate.
`resolve_parameters` is the one place that turns an EstimatorSpec and n into
the (K, M) the estimator runs with.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.hermite_e import hermeval

from .errors import DataError, DomainError, RangeError
from .polyapprox import build_G_K, remez_best_approx
from .rng import stream

VARIANTS = ("bounded", "growing", "unbounded", "sparse")
BASES = ("best", "chebyshev")

_SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# cutoff and interval rules

def select_K_star(n: int) -> int:
    """Series cutoff for the bounded variant: round(ln n / (2 ln ln n)), at least 1."""
    if not isinstance(n, (int, np.integer)) or n < 17:
        raise DomainError(f"n must be an integer >= 17, got {n!r}")
    return max(1, round(math.log(n) / (2.0 * math.log(math.log(n)))))


def select_K_growing(n: int) -> int:
    """Cutoff for the growing-interval variant: max(1, floor(log2(n)/7 - sqrt(ln n)))."""
    if not isinstance(n, (int, np.integer)) or n < 17:
        raise DomainError(f"n must be an integer >= 17, got {n!r}")
    return max(1, math.floor(math.log2(n) / 7.0 - math.sqrt(math.log(n))))


def growing_radius(n: int, c: float) -> float:
    """Working interval half-width sqrt(c ln n) for the growing variant."""
    if not isinstance(n, (int, np.integer)) or n < 17:
        raise DomainError(f"n must be an integer >= 17, got {n!r}")
    if not (isinstance(c, (int, float)) and math.isfinite(c)) or c <= 1.0:
        raise DomainError(f"c must be a finite number > 1, got {c!r}")
    return math.sqrt(c * math.log(n))


def unbounded_params(n: int) -> tuple[float, int, float]:
    """(M_n, K, threshold) for the hybrid variants.

    M_n = 8 sqrt(ln n), K = max(1, floor(log2(n)/12)), and the small-signal
    test threshold 2 sqrt(2 ln n) applied to the second half-sample.
    """
    if not isinstance(n, (int, np.integer)) or n < 17:
        raise DomainError(f"n must be an integer >= 17, got {n!r}")
    log_n = math.log(n)
    return 8.0 * math.sqrt(log_n), max(1, math.floor(math.log2(n) / 12.0)), 2.0 * math.sqrt(2.0 * log_n)


@lru_cache(maxsize=None)
def approx_coefficients(K: int, basis: str) -> tuple[float, ...]:
    """Unit-interval coefficients g_{2k}, k = 0..K, for the requested basis."""
    if basis == "best":
        return remez_best_approx(K).poly.half_coeffs
    if basis == "chebyshev":
        return build_G_K(K).half_coeffs
    raise DomainError(f"basis must be one of {BASES}, got {basis!r}")


# ---------------------------------------------------------------------------
# data handling and the series kernel

def _as_data(y) -> np.ndarray:
    arr = np.asarray(y, dtype=np.float64)
    if arr.ndim != 1 or arr.size == 0:
        raise DataError("observations must form a nonempty 1-d vector")
    finite = np.isfinite(arr)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise DataError(f"non-finite observation at index {idx}: {float(arr[idx])}", index=idx)
    return arr


def _even_series(x: np.ndarray, scaled: np.ndarray) -> np.ndarray:
    """sum_k scaled[k] * H_{2k}(x_i) for every coordinate."""
    coeffs = np.zeros(2 * len(scaled) - 1)
    coeffs[::2] = scaled
    return hermeval(x, coeffs)


def _scaled_coeffs(g: tuple[float, ...], M: float) -> np.ndarray:
    k = np.arange(len(g))
    return np.asarray(g) * M ** (1.0 - 2.0 * k)


# ---------------------------------------------------------------------------
# estimators

def estimate_bounded(y, M: float, K: int, basis: str = "best") -> float:
    """Series estimate of n^{-1} sum |theta_i| under the promise max |theta_i| <= M.

    Returns sum_{k=0..K} g_{2k} M^{-2k+1} B_{2k}.  With basis "best" the
    g_{2k} come from the degree-2K best uniform approximation of |x|; with
    "chebyshev" from the truncated Chebyshev expansion.  Raises RangeError
    when the series overflows the double range on the data.
    """
    arr = _as_data(y)
    if not (isinstance(M, (int, float)) and math.isfinite(M)) or M <= 0:
        raise DomainError(f"M must be a finite positive number, got {M!r}")
    if not isinstance(K, (int, np.integer)) or K < 1:
        raise DomainError(f"K must be a positive integer, got {K!r}")
    scaled = _scaled_coeffs(approx_coefficients(int(K), basis), float(M))
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(np.mean(_even_series(arr, scaled)))
    if not math.isfinite(value):
        peak = float(np.max(np.abs(arr)))
        raise RangeError(f"the degree-{2 * int(K)} series overflows the double range at |y| up to {peak:.6g}")
    return value


def estimate_growing(y, c: float = 2.0, K: int | None = None) -> float:
    """Bounded-variant series on the slowly growing interval M_n = sqrt(c ln n)."""
    arr = _as_data(y)
    n = arr.size
    cutoff = select_K_growing(n) if K is None else K
    return estimate_bounded(arr, growing_radius(n, c), cutoff, "chebyshev")


def split_samples(y, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Randomize y into two independent copies carrying the rescaled means.

    With z_i iid N(0,1) drawn from the seed's stream, x1 = (y + z)/sqrt(2)
    and x2 = (y - z)/sqrt(2) are independent, each coordinate
    N(theta_i/sqrt(2), 1).  The same seed reproduces the same split
    bit-for-bit.
    """
    arr = _as_data(y)
    z = stream(seed).standard_normal(arr.size)
    return (arr + z) / _SQRT2, (arr - z) / _SQRT2


def _hybrid_coeffs(n: int) -> np.ndarray:
    """Scaled Chebyshev coefficients g_{2k} M_n^{1-2k} of the hybrid series at n."""
    M_n, K, _ = unbounded_params(n)
    return _scaled_coeffs(approx_coefficients(K, "chebyshev"), M_n)


def _hybrid_terms(x1: np.ndarray, x2: np.ndarray, n: int, scaled: np.ndarray, cap: float) -> np.ndarray:
    """Per coordinate: min(S(x1), cap) where |x2| <= 2 sqrt(2 ln n), |x1| elsewhere."""
    _, _, threshold = unbounded_params(n)
    capped = np.minimum(_even_series(x1, scaled), cap)
    return np.where(np.abs(x2) <= threshold, capped, np.abs(x1))


def delta_component(x, n: int):
    """Series component min(S_K(x), n) of the hybrid estimator.

    S_K(x) = sum_{k=0..K} g_{2k} M_n^{-2k+1} H_{2k}(x) with Chebyshev
    coefficients, M_n = 8 sqrt(ln n) and K = max(1, floor(log2(n)/12)).
    `x` may be a scalar or a vector; n is the calibration sample size.
    """
    arr = np.asarray(x, dtype=np.float64)
    if not np.all(np.isfinite(arr)):
        raise DataError("non-finite value passed to the series component")
    out = np.minimum(_even_series(np.atleast_1d(arr), _hybrid_coeffs(n)), float(n))
    return float(out[0]) if arr.ndim == 0 else out


def hybrid_component(x1, x2, n: int):
    """Per-coordinate hybrid xi: the capped series on x1 when the companion
    coordinate x2 looks small, |x1| itself otherwise.

    xi = min(S_K(x1), n) 1{|x2| <= 2 sqrt(2 ln n)} + |x1| 1{otherwise}.
    Scalar or vector inputs; x1 and x2 must have matching shapes.
    """
    a1 = np.asarray(x1, dtype=np.float64)
    a2 = np.asarray(x2, dtype=np.float64)
    if a1.shape != a2.shape:
        raise DataError("the two sample halves must have matching shapes")
    if not np.all(np.isfinite(a1)):
        raise DataError("non-finite value passed to the series component")
    out = _hybrid_terms(np.atleast_1d(a1), np.atleast_1d(a2), n, _hybrid_coeffs(n), float(n))
    return float(out[0]) if a1.ndim == 0 else out


def estimate_unbounded(y, seed: int) -> float:
    """Hybrid estimate with no bound on the means.

    Splits the sample, then per coordinate uses the truncated series on x1
    when |x2| <= 2 sqrt(2 ln n) and |x1| itself otherwise; the sqrt(2)
    factor undoes the split's rescaling of the means.
    """
    arr = _as_data(y)
    n = arr.size
    x1, x2 = split_samples(arr, seed)
    return float(_SQRT2 * np.mean(_hybrid_terms(x1, x2, n, _hybrid_coeffs(n), float(n))))


def estimate_sparse(y, k_n: int, seed: int) -> float:
    """Hybrid estimate of k_n^{-1} sum |theta_i| for k_n-sparse means.

    Same split and branch rule as the unbounded variant, but the series
    component drops the constant term (so exact zeros contribute no bias
    in expectation), truncates at n^2 instead of n, and the sum is
    normalized by the known support size k_n.
    """
    arr = _as_data(y)
    n = arr.size
    if not isinstance(k_n, (int, np.integer)) or not 1 <= k_n <= n:
        raise DomainError(f"k_n must be an integer in [1, n], got {k_n!r}")
    x1, x2 = split_samples(arr, seed)
    scaled = _hybrid_coeffs(n)
    scaled[0] = 0.0   # constant term omitted
    xi = _hybrid_terms(x1, x2, n, scaled, float(n) ** 2)
    return float(_SQRT2 * xi.sum() / float(k_n))


# ---------------------------------------------------------------------------
# declarative estimator description used by the harness and the CLI

@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run and with what parameters.

    `n` is optional; when set it must match the data length (the owning
    scenario is the source of truth in harness runs).  `K_override` replaces
    the variant's cutoff rule.  `basis` is honored by the bounded variant
    (default "best"); the other variants are defined through the Chebyshev
    coefficients.
    """

    variant: str
    M: float | None = None
    K_override: int | None = None
    basis: str | None = None
    k_n: int | None = None
    c: float = 2.0
    seed: int = 0
    n: int | None = None

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        if self.variant == "bounded":
            if self.M is None or not math.isfinite(self.M) or self.M <= 0:
                raise DomainError("bounded variant requires a finite M > 0")
        if self.basis is not None:
            if self.basis not in BASES:
                raise DomainError(f"basis must be one of {BASES}, got {self.basis!r}")
            if self.variant != "bounded" and self.basis != "chebyshev":
                raise DomainError(f"variant {self.variant!r} is defined with chebyshev coefficients")
        if self.K_override is not None:
            if not isinstance(self.K_override, int) or self.K_override < 1:
                raise DomainError(f"K_override must be a positive integer, got {self.K_override!r}")
            if self.variant in ("unbounded", "sparse"):
                raise DomainError(f"the {self.variant!r} variant fixes its own cutoff from n")
        if self.variant == "sparse":
            if self.k_n is None or not isinstance(self.k_n, int) or self.k_n < 1:
                raise DomainError("sparse variant requires an integer k_n >= 1")
        if self.variant == "growing" and not self.c > 1.0:
            raise DomainError(f"growing variant requires c > 1, got {self.c!r}")
        if not isinstance(self.seed, int) or self.seed < 0:
            raise DomainError(f"seed must be a nonnegative integer, got {self.seed!r}")
        if self.n is not None and (not isinstance(self.n, int) or self.n < 1):
            raise DomainError(f"n must be a positive integer, got {self.n!r}")

    @property
    def resolved_basis(self) -> str:
        if self.variant == "bounded":
            return self.basis or "best"
        return "chebyshev"


def resolve_parameters(spec: EstimatorSpec, n: int) -> tuple[int, float]:
    """Effective (K, M) the estimator described by `spec` uses on data of length n."""
    if spec.variant == "bounded":
        K = spec.K_override if spec.K_override is not None else select_K_star(n)
        return K, float(spec.M)
    if spec.variant == "growing":
        K = spec.K_override if spec.K_override is not None else select_K_growing(n)
        return K, growing_radius(n, spec.c)
    M_n, K, _ = unbounded_params(n)
    return K, M_n


def run_estimator(spec: EstimatorSpec, y, seed: int | None = None) -> float:
    """Apply the estimator described by `spec` to the data vector."""
    arr = _as_data(y)
    n = arr.size
    if spec.n is not None and spec.n != n:
        raise DomainError(f"spec.n = {spec.n} does not match data length {n}")
    use_seed = spec.seed if seed is None else seed
    if spec.variant == "bounded":
        K, M = resolve_parameters(spec, n)
        return estimate_bounded(arr, M, K, spec.resolved_basis)
    if spec.variant == "growing":
        K, _ = resolve_parameters(spec, n)
        return estimate_growing(arr, spec.c, K)
    if spec.variant == "unbounded":
        return estimate_unbounded(arr, use_seed)
    if spec.k_n > n:
        raise DomainError(f"k_n = {spec.k_n} exceeds data length {n}")
    return estimate_sparse(arr, spec.k_n, use_seed)
