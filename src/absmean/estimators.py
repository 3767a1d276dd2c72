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
S(y_i) = sum_k g_{2k} M^{1-2k} H_{2k}(y_i), with one kernel: Clenshaw
summation in u = y^2, K steps where a Hermite evaluation in y takes 2K (see
`_clenshaw`).  `run_estimator` makes one pass over the data, _CHUNK
coordinates at a time, with in-place ufuncs on work arrays of chunk length
that stay in cache: the hybrids draw the chunk's split noise and form its
two halves, the kernel sums S, the hybrids cap S and branch per coordinate,
and the chunk is reduced to its sum.  The estimate is the sum of the chunk
sums over n (times sqrt(2) for the hybrids, over k_n for the sparse one).
So an estimate allocates nothing of length n beyond a boolean finiteness
mask of the data, and with a single chunk (n <= _CHUNK) its arithmetic is
that of one pass over the whole vector.  That pass is the only chunk loop:
`split_samples` and the hybrid components call the same per-chunk helpers
once on their whole input, with scratch of its length (every step is
elementwise, so a coordinate gets the bits it gets in the pass).  `_as_data`
is the one check of observations, at all four entry points.

There is one estimator body, `run_estimator`, and every `estimate_*` is a
call to it with an EstimatorSpec.  The spec fixes the estimator; the split
seed of the hybrids is an argument of the call.  `resolve_parameters` is
the one place that turns a spec and n into the (K, M) the estimator runs
with, and `_scaled_coefficients` the one place that turns them into the
scaled coefficients g_{2k} M^{1-2k} (without the constant term for the
sparse variant); the hybrid components use it with the unbounded spec.  The
parameters are resolved, and so validated, on every call; the scaled
array is built once per (K, M, basis, constant term) and shared read-only.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np

from .errors import MAX_COUNT, MAX_N, DataError, DegreeOverflowError, DomainError, RangeError, check_int, check_real
from .polyapprox import _MAX_GK, _MAX_REMEZ_K, build_G_K, remez_best_approx
from .rng import MAX_SEED, stream

VARIANTS = ("bounded", "growing", "unbounded", "sparse")
BASES = ("best", "chebyshev")

_SQRT2 = math.sqrt(2.0)
# coordinates per pass of the estimator: its work arrays of this length
# (128 KiB each; four, or six with the split halves) stay in cache
_CHUNK = 1 << 14


# ---------------------------------------------------------------------------
# cutoff and interval rules

def select_K_star(n: int) -> int:
    """Series cutoff for the bounded variant: round(ln n / (2 ln ln n)), at least 1."""
    n = check_int("n", n, 17, MAX_N)
    return max(1, round(math.log(n) / (2.0 * math.log(math.log(n)))))


def select_K_growing(n: int) -> int:
    """Cutoff for the growing-interval variant: max(1, floor(log2(n)/7 - sqrt(ln n)))."""
    n = check_int("n", n, 17, MAX_N)
    return max(1, math.floor(math.log2(n) / 7.0 - math.sqrt(math.log(n))))


def growing_radius(n: int, c: float) -> float:
    """Working interval half-width sqrt(c ln n) for the growing variant."""
    n = check_int("n", n, 17, MAX_N)
    return math.sqrt(check_real("c", c, above=1.0) * math.log(n))


def unbounded_params(n: int) -> tuple[float, int, float]:
    """(M_n, K, threshold) for the hybrid variants.

    M_n = 8 sqrt(ln n), K = max(1, floor(log2(n)/12)), and the small-signal
    test threshold 2 sqrt(2 ln n) applied to the second half-sample.
    """
    n = check_int("n", n, 17, MAX_N)
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

def _as_data(y, scalar: bool = False) -> np.ndarray:
    """`y` as float64, or DataError unless it is a nonempty 1-d vector (or,
    with `scalar`, a single number) of finite reals: not text, complex,
    ragged or 2-d data.  Objects that convert (Fractions, Decimals, big ints)
    pass; text, even numeric text, does not."""
    try:
        arr = np.asarray(y)
        if arr.dtype.kind == "O" and not any(isinstance(v, (str, bytes, complex, np.complexfloating))
                                             for v in arr.flat):
            arr = arr.astype(np.float64)
        real = arr.dtype.kind in "biuf"
    except (TypeError, ValueError):   # ragged nesting, or objects that are not numbers
        real = False
    if not real:
        raise DataError("observations must be real numbers, not text, complex values or ragged lists")
    arr = arr.astype(np.float64, copy=False)
    if arr.ndim > 1 or arr.size == 0 or (arr.ndim == 0 and not scalar):
        raise DataError("observations must form a nonempty 1-d vector" + (" or a scalar" if scalar else ""))
    finite = np.isfinite(arr)
    if not finite.all():
        idx = int(np.argmin(finite))
        raise DataError(f"non-finite observation at index {idx}: {float(arr.flat[idx])}", index=idx)
    return arr


def _clenshaw(x: np.ndarray, scaled: np.ndarray, out: np.ndarray, u: np.ndarray, o: np.ndarray,
              t: np.ndarray) -> None:
    """out = sum_k scaled[k] H_{2k}(x) on one chunk; u, o and t are scratch of x's length.

    Clenshaw summation in u = x^2.  The even polynomials satisfy
        H_{2k+2} = (u - (4k+1)) H_{2k} - 2k(2k-1) H_{2k-2},
    but near x = 0 the two terms on the right nearly cancel, so the
    recurrence runs as the pair it comes from, with R_k = x H_{2k+1}:
        R_k = u H_{2k} - 2k R_{k-1},    H_{2k+2} = R_k - (2k+1) H_{2k}.
    Its Clenshaw sums run from e_K = c_K, o_K = 0 down to the sum e_0:
        o_k = u e_{k+1} - (2k+2) o_{k+1},    e_k = c_k + o_k - (2k+1) e_{k+1},
    K steps of at most six in-place passes, as accurate as Clenshaw in x over
    2K steps.
    """
    K = len(scaled) - 1   # at least 1: every coefficient builder requires it
    np.multiply(x, x, out=u)
    # the first step, from the scalars e_K = c_K and o_K = 0
    np.multiply(u, scaled[K], out=o)
    np.add(o, -(2.0 * K - 1.0) * scaled[K], out=out)
    out += scaled[K - 1]
    for k in range(K - 2, -1, -1):
        np.multiply(u, out, out=t)
        o *= -(2.0 * k + 2.0)
        o += t
        out *= -(2.0 * k + 1.0)
        out += o
        out += scaled[k]


# ---------------------------------------------------------------------------
# declarative estimator description used by the harness and the CLI

@dataclass(frozen=True)
class EstimatorSpec:
    """Which estimator to run and with what parameters.

    `K_override` replaces the variant's cutoff rule.  `basis` is honored by
    the bounded variant (default "best"); the other variants are defined
    through the Chebyshev coefficients.  `c` must exceed 1 whatever the
    variant; only the growing variant reads it.  Numeric fields are checked
    by the package's argument policy and stored as Python ints and floats.
    The hybrids' split seed is an argument of `run_estimator`, not a field.
    """

    variant: str
    M: float | None = None
    K_override: int | None = None
    basis: str | None = None
    k_n: int | None = None
    c: float = 2.0

    def __post_init__(self):
        if self.variant not in VARIANTS:
            raise DomainError(f"variant must be one of {VARIANTS}, got {self.variant!r}")
        _store_checked(self, "c", check_real("c", self.c, above=1.0))
        if self.M is not None or self.variant == "bounded":
            _store_checked(self, "M", check_real("M", self.M, above=0.0))
        if self.k_n is not None or self.variant == "sparse":
            _store_checked(self, "k_n", check_int("k_n", self.k_n, 1, MAX_COUNT))
        if self.K_override is not None:
            _store_checked(self, "K_override", check_int("K_override", self.K_override, 1, MAX_COUNT))
            if self.variant in ("unbounded", "sparse"):
                raise DomainError(f"the {self.variant!r} variant fixes its own cutoff from n")
        if self.basis is not None:
            if self.basis not in BASES:
                raise DomainError(f"basis must be one of {BASES}, got {self.basis!r}")
            if self.variant != "bounded" and self.basis != "chebyshev":
                raise DomainError(f"variant {self.variant!r} is defined with chebyshev coefficients")

    @property
    def resolved_basis(self) -> str:
        if self.variant == "bounded":
            return self.basis or "best"
        return "chebyshev"


def _store_checked(spec: EstimatorSpec, name: str, value) -> None:
    """Store a checked field back on the frozen spec as the Python int or float
    the check returned, unless that is the argument itself (the common case)."""
    if value is not getattr(spec, name):
        object.__setattr__(spec, name, value)


_UNBOUNDED = EstimatorSpec("unbounded")


# ---------------------------------------------------------------------------
# estimators

def estimate_bounded(y, M: float, K: int, basis: str = "best") -> float:
    """Series estimate of n^{-1} sum |theta_i| under the promise max |theta_i| <= M.

    Returns sum_{k=0..K} g_{2k} M^{-2k+1} B_{2k}.  With basis "best" the
    g_{2k} come from the degree-2K best uniform approximation of |x|; with
    "chebyshev" from the truncated Chebyshev expansion.  Raises RangeError
    when the series overflows the double range on the data.
    """
    # K and basis are required here: EstimatorSpec reads None as the K* rule and the best basis
    if basis is None:
        raise DomainError(f"basis must be one of {BASES}, got None")
    return run_estimator(EstimatorSpec("bounded", M=M, K_override=check_int("K", K, low=1), basis=basis), y)


def estimate_growing(y, c: float = EstimatorSpec.c, K: int | None = None) -> float:
    """Bounded-variant series on the slowly growing interval M_n = sqrt(c ln n)."""
    return run_estimator(EstimatorSpec("growing", K_override=K, c=c), y)


def split_samples(y, seed: int) -> tuple[np.ndarray, np.ndarray]:
    """Randomize y into two independent copies carrying the rescaled means.

    With z_i iid N(0,1) drawn from the seed's stream, x1 = (y + z)/sqrt(2)
    and x2 = (y - z)/sqrt(2) are independent, each coordinate
    N(theta_i/sqrt(2), 1).  The same seed reproduces the same split
    bit-for-bit.
    """
    arr = _as_data(y)
    x1, x2 = np.empty(arr.size), np.empty(arr.size)
    _split_chunk(arr, stream(seed), x1, x2)
    return x1, x2


def _split_chunk(a: np.ndarray, gen: np.random.Generator, x1: np.ndarray, x2: np.ndarray) -> None:
    """x1 = (a + z)/sqrt(2), x2 = (a - z)/sqrt(2) with z the next a.size draws of `gen`.

    Drawn chunk by chunk, z has the bits of one draw of the whole vector.
    """
    gen.standard_normal(out=x2)   # z, until x2 takes over its buffer
    np.add(a, x2, out=x1)
    x1 /= _SQRT2
    np.subtract(a, x2, out=x2)
    x2 /= _SQRT2


def _hybrid_chunk(a: np.ndarray, b: np.ndarray, scaled: np.ndarray, threshold: float, cap: float,
                  out: np.ndarray, u: np.ndarray, o: np.ndarray, t: np.ndarray,
                  mask: np.ndarray) -> float:
    """out = min(S(a), cap) where |b| <= threshold, |a| elsewhere, on one chunk
    of run_estimator's pass or on a hybrid component's whole input.

    u, o, t and the boolean mask are scratch of a's length.  The series may
    overflow on coordinates that take the |a| branch, so the caller runs
    this with numpy's overflow and invalid warnings off, and only the terms
    are checked: returns the largest |a| whose term is not finite (such a
    term can only come from the series branch), or -inf if every term is.
    """
    _clenshaw(a, scaled, out, u, o, t)
    np.minimum(out, cap, out=out)
    np.abs(b, out=u)
    np.greater(u, threshold, out=mask)
    np.abs(a, out=t)
    np.copyto(out, t, where=mask)
    np.isfinite(out, out=mask)
    if mask.all():
        return -math.inf
    return float(np.max(t[~mask]))


def _check_hybrid(peak: float) -> None:
    """Raise RangeError for the largest overflowing |x| _hybrid_chunk reported."""
    if peak > -math.inf:
        raise RangeError(f"the hybrid series overflows the double range at |x| up to {peak:.6g}")


def delta_component(x, n: int):
    """Series component min(S_K(x), n) of the hybrid estimator.

    S_K(x) = sum_{k=0..K} g_{2k} M_n^{-2k+1} H_{2k}(x) with Chebyshev
    coefficients, M_n = 8 sqrt(ln n) and K = max(1, floor(log2(n)/12)).
    `x` may be a scalar or a vector; n is the calibration sample size.
    Raises RangeError when the series overflows the double range.
    """
    arr = _as_data(x, scalar=True)
    # a zero companion coordinate always passes the small-signal test
    return _hybrid(arr, np.zeros_like(arr), n)


def hybrid_component(x1, x2, n: int):
    """Per-coordinate hybrid xi: the capped series on x1 when the companion
    coordinate x2 looks small, |x1| itself otherwise.

    xi = min(S_K(x1), n) 1{|x2| <= 2 sqrt(2 ln n)} + |x1| 1{otherwise}.
    Scalar or vector inputs; x1 and x2 must have matching shapes.  Raises
    RangeError when a series term it returns overflows the double range.
    """
    a1, a2 = _as_data(x1, scalar=True), _as_data(x2, scalar=True)
    if a1.shape != a2.shape:
        raise DataError("the two sample halves must have matching shapes")
    return _hybrid(a1, a2, n)


def _hybrid(a1: np.ndarray, a2: np.ndarray, n: int):
    """hybrid_component on checked data of one shape."""
    scaled, threshold = _scaled_coefficients(_UNBOUNDED, n)
    a, b = np.atleast_1d(a1, a2)
    out, (u, o, t) = np.empty(a.size), np.empty((3, a.size))
    with np.errstate(over="ignore", invalid="ignore"):
        peak = _hybrid_chunk(a, b, scaled, threshold, float(n), out, u, o, t, np.empty(a.size, dtype=bool))
    _check_hybrid(peak)
    return float(out[0]) if a1.ndim == 0 else out


def estimate_unbounded(y, seed: int) -> float:
    """Hybrid estimate with no bound on the means.

    Splits the sample, then per coordinate uses the truncated series on x1
    when |x2| <= 2 sqrt(2 ln n) and |x1| itself otherwise; the sqrt(2)
    factor undoes the split's rescaling of the means.
    """
    return run_estimator(_UNBOUNDED, y, seed=seed)


def estimate_sparse(y, k_n: int, seed: int) -> float:
    """Hybrid estimate of k_n^{-1} sum |theta_i| for k_n-sparse means.

    Same split and branch rule as the unbounded variant, but the series
    component drops the constant term (so exact zeros contribute no bias
    in expectation), truncates at n^2 instead of n, and the sum is
    normalized by the known support size k_n.
    """
    return run_estimator(EstimatorSpec("sparse", k_n=k_n), y, seed=seed)


def resolve_parameters(spec: EstimatorSpec, n: int) -> tuple[int, float]:
    """Effective (K, M) the estimator described by `spec` uses on data of length n.

    Raises DomainError where that estimator cannot run at n: n below a cutoff
    rule's minimum, K past its basis' limit, or k_n > n.  Arithmetic only, so
    a whole config is checked before any coefficients are built.
    """
    return _resolve(spec, n)[:2]


def _resolve(spec: EstimatorSpec, n: int) -> tuple[int, float, float]:
    """resolve_parameters' (K, M) plus the hybrids' small-signal threshold
    2 sqrt(2 ln n); the bounded and growing variants have none (inf)."""
    if spec.variant in ("unbounded", "sparse"):
        M_n, K, threshold = unbounded_params(n)
        if spec.variant == "sparse":
            check_int("k_n", spec.k_n, 1, n)
        return K, M_n, threshold
    if spec.variant == "bounded":
        K, M = spec.K_override or select_K_star(n), spec.M
    else:
        K, M = spec.K_override or select_K_growing(n), growing_radius(n, spec.c)
    limit = _MAX_REMEZ_K if spec.resolved_basis == "best" else _MAX_GK
    if K > limit:
        raise DegreeOverflowError(f"K = {K} exceeds the supported maximum {limit}")
    return K, M, math.inf


def _scaled_coefficients(spec: EstimatorSpec, n: int) -> tuple[np.ndarray, float]:
    """(g_{2k} M^{1-2k} for k = 0..K, threshold) of the series `spec` runs on n coordinates.

    The one place the coefficients are built: (K, M) and the threshold from
    _resolve on every call, so every check runs, then the scaled array in
    the spec's basis, without the constant term for the sparse variant.
    """
    K, M, threshold = _resolve(spec, n)
    return _coefficient_table(K, M, spec.resolved_basis, spec.variant == "sparse"), threshold


@lru_cache(maxsize=256)
def _coefficient_table(K: int, M: float, basis: str, sparse: bool) -> np.ndarray:
    """The scaled coefficients for (K, M, basis), read-only, since every
    estimate with these parameters shares the array.  Keyed on the
    parameters, never on a spec."""
    scaled = np.asarray(approx_coefficients(K, basis)) * M ** (1.0 - 2.0 * np.arange(K + 1))
    if sparse:
        scaled[0] = 0.0   # constant term omitted
    scaled.flags.writeable = False
    return scaled


def run_estimator(spec: EstimatorSpec, y, seed: int = 0) -> float:
    """Apply the estimator described by `spec` to the data vector.

    The bounded and growing variants average the even series over the
    coordinates; the hybrids split the sample with the stream of `seed`,
    and combine the capped terms.  `seed` is checked for every variant.
    Every public estimator runs through here.
    """
    arr = _as_data(y)
    seed = check_int("seed", seed, 0, MAX_SEED)
    n = arr.size
    scaled, threshold = _scaled_coefficients(spec, n)
    hybrid = spec.variant in ("unbounded", "sparse")
    if hybrid:
        gen = stream(seed)
        cap = float(n) if spec.variant == "unbounded" else float(n) ** 2
    part, u, o, t, x1, x2 = np.empty((6, min(n, _CHUNK)))   # x1 and x2 only for the hybrids
    large = np.empty(u.size, dtype=bool)
    total, peak = 0.0, -math.inf
    with np.errstate(over="ignore", invalid="ignore"):
        for lo in range(0, n, _CHUNK):
            a = arr[lo:lo + _CHUNK]
            m = a.size
            if hybrid:
                _split_chunk(a, gen, x1[:m], x2[:m])
                peak = max(peak, _hybrid_chunk(x1[:m], x2[:m], scaled, threshold, cap,
                                               part[:m], u[:m], o[:m], t[:m], large[:m]))
            else:
                _clenshaw(a, scaled, part[:m], u[:m], o[:m], t[:m])
            total += float(part[:m].sum())
    if hybrid:
        _check_hybrid(peak)
        if spec.variant == "unbounded":
            return _SQRT2 * (total / n)
        return _SQRT2 * total / spec.k_n
    value = total / n
    if not math.isfinite(value):
        peak, degree = float(np.max(np.abs(arr))), 2 * (scaled.size - 1)
        raise RangeError(f"the degree-{degree} series overflows the double range at |y| up to {peak:.6g}")
    return value
