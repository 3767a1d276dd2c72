"""Minimax lower-bound machinery for mean-absolute-value estimation.

Three ingredients:

* A constructive pair of symmetric priors on [-1, 1] whose moments agree
  up to order k while their means of |t| differ by 2 * delta_k, where
  delta_k is the best uniform error of degree-k even polynomial
  approximation to |x|.  The construction solves a small linear system on
  the alternation points of the best approximation, with the alternation
  signs prescribing which prior receives each atom.  The system is written
  in the Chebyshev basis T_i(2t^2 - 1), tabulated by the exchange's own
  table (polyapprox._even_cheb_table, bit-identical to numpy's chebvander),
  and stays well conditioned for every supported k (condition numbers about
  10 up to k = 80); a solve past the condition limit raises
  ConditioningError rather than returning untrusted weights.

* Chi-square distances between the induced Gaussian mixtures: a fixed
  composite Gauss-Legendre rule on equal panels across the window, whatever
  the number of atoms, with a two-resolution error estimate for one
  coordinate, evaluated in log space so that tails and far-apart atoms
  keep their value (+inf past the double range), the exact product identity
  I_n^2 = (1 + I_1^2)^n - 1 for n independent coordinates, and closed-form
  upper bounds driven by the number of matched moments.

* The constrained risk inequality: if an estimator does very well under
  one prior, it must pay under another, quantitatively in terms of the
  chi-square distance.  ``verify_constrained_risk`` checks all three forms
  of the inequality by exact enumeration on finite discrete models.

``lower_bound_pipeline`` assembles the three.  Everything but n depends on
the pair (k, M) alone: the scaled priors, their moments, delta_k, I_1^2 and
its tail bound are computed once per pair (a bounded cache) and reused for
every n, which enters only through v0^2 = Var / n and the product identity.
Where I_1^2 may be cancellation roundoff in f1 - f0 (at most
_ROUNDOFF_FLOOR), the pipeline uses the smaller of it and the proven tail
bound, which keeps the lower bound valid at any n.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import (
    MAX_COUNT,
    MAX_N,
    ConditioningError,
    ConstructionError,
    DomainError,
    IntegrationError,
    PreconditionError,
    check_int,
    check_real,
)
from .polyapprox import _even_cheb_table, remez_best_approx

_COND_LIMIT = 1e12
_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_TINY = math.log(1e-30)

# Chi-square quadrature: the window tiled by equal panels, at most
# _PANEL_WIDTH wide and at most _MAX_PANELS of them, with no break at the
# atoms (the integrand is entire, a sum of unit-variance Gaussians, which a
# 32-point panel of width 1 resolves wherever the atoms fall).  Each panel is
# summed by the 32-point and by the 16-point Gauss-Legendre rule (nodes side
# by side, the 32-point ones first).  Nodes are evaluated _BLOCK node-atom
# pairs at a time, which bounds the working memory on wide windows.
_PANEL_WIDTH = 1.0
_MAX_PANELS = 1 << 14
_GL_FINE = 32
_GL_NODES, _GL_WEIGHTS = np.hstack([leggauss(_GL_FINE), leggauss(_GL_FINE // 2)])
_BLOCK = 1 << 16

# Roundoff floor of the one-coordinate distance.  f0 and f1 are sums of
# unit-variance bumps, each computed to a relative error of a few eps
# (2.2e-16), so (f1 - f0)^2 / f0 integrates to noise of order (c eps)^2
# once the moments match well: 1.7e-32 to 8.5e-31 (0.3 to 17 eps^2) over
# k = 2..80 and M = 0.25..3, where the proven tail bound can be 1e-170.
# A value at or below the floor (2000 eps^2) may be that noise, so the
# pipeline takes min(quadrature, tail bound) there; above it the quadrature
# stands, and MixtureDistance still checks it against the bound.
_ROUNDOFF_FLOOR = 1e-28
# (k, M) pairs whose distance terms are kept: every even k in 2..80 at 25 radii
_PAIR_CACHE = 1024


# ---------------------------------------------------------------------------
# priors

@dataclass(frozen=True)
class SymmetricDiscretePrior:
    """Finitely supported symmetric probability measure, atoms scaled by M.

    positions/weights list every atom (mirror atoms listed explicitly);
    construction validates symmetry and total mass 1.
    """

    positions: tuple[float, ...]
    weights: tuple[float, ...]
    M: float = 1.0

    def __post_init__(self):
        if len(self.positions) != len(self.weights) or len(self.positions) == 0:
            raise ConstructionError("positions and weights must be nonempty and aligned")
        p = np.asarray(self.positions, dtype=float)
        finite = np.isfinite(p)
        if not finite.all():
            raise ConstructionError(f"prior positions must be finite, got {p[np.argmin(finite)]}")
        w = np.asarray(self.weights, dtype=float)
        if not (w >= 0).all():   # NaN included
            raise ConstructionError("prior weights must be nonnegative")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise ConstructionError(f"prior weights sum to {total}, expected 1")
        # atoms merged at 12 decimals (a no-op from 2^13 on, where doubles lie
        # more than 1e-12 apart, and there t * 1e12 could overflow); entered
        # once more at -t with weight -w, each merged atom sums to mass(t) - mass(-t)
        small = np.abs(p) < 8192.0
        keys = np.where(small, np.where(small, p, 0.0).round(12), p)
        both = np.concatenate((keys, -keys))
        order = both.argsort()
        ranked = both[order]
        atom = np.empty(both.size, dtype=np.intp)
        atom[order] = np.cumsum(np.concatenate(([0], ranked[1:] != ranked[:-1])))
        net = np.bincount(atom, weights=np.concatenate((w, -w)))
        bad = np.flatnonzero(np.abs(net[atom[: keys.size]]) > 1e-9)
        if bad.size:
            raise ConstructionError(f"prior is not symmetric at t = {keys[bad[0]]}")

    def moment(self, order: int) -> float:
        p = np.asarray(self.positions)
        w = np.asarray(self.weights)
        return float(np.dot(w, p ** order))

    def mean_abs(self) -> float:
        p = np.asarray(self.positions)
        w = np.asarray(self.weights)
        return float(np.dot(w, np.abs(p)))

    def sample(self, rng: np.random.Generator, size: int) -> np.ndarray:
        """`size` iid draws from the prior, grouped by atom in `positions` order.

        One multinomial draw gives the atom counts and np.repeat lays them
        out, so equal atoms are adjacent; shuffle the result where the
        order of the coordinates matters.
        """
        size = check_int("size", size, 0, MAX_COUNT)
        w = np.asarray(self.weights)
        return np.repeat(np.asarray(self.positions), rng.multinomial(size, w / w.sum()))


def scale_prior(prior: SymmetricDiscretePrior, M: float) -> SymmetricDiscretePrior:
    """Push the prior forward by t -> M t."""
    M = check_real("M", M, above=0.0)
    return SymmetricDiscretePrior(tuple(M * t for t in prior.positions), prior.weights, M=prior.M * M)


@lru_cache(maxsize=None)
def _prior_pair_data(k: int) -> tuple[SymmetricDiscretePrior, SymmetricDiscretePrior, float]:
    """The validated pair for an even k in 2..80, built once per k (the priors are frozen)."""
    sol = remez_best_approx(k // 2)
    K = k // 2
    # nonnegative alternation points with their error signs
    half = [(x, s) for x, s in zip(sol.alternation_points, sol.alternation_signs) if x >= 0.0]
    pts = np.asarray([x for x, _ in half])
    signs = np.asarray([s for _, s in half], dtype=float)
    if pts[0] != 0.0 or len(pts) != K + 2:
        raise ConstructionError("unexpected alternation structure from the exchange solve")

    # Unknown magnitudes v_j >= 0 of the signed measure with weight v_0 at 0
    # and v_j at each of +-t_j.  Moment conditions are expressed through
    # T_i(2t^2 - 1) (same span as the monomials t^{2i}, i <= K, but well
    # conditioned); the last row fixes total variation 2.
    mult = np.where(pts > 0.0, 2.0, 1.0)   # mirror atoms counted once
    A = np.vstack([((signs * mult)[:, None] * _even_cheb_table(pts, K)).T, mult])
    b = np.zeros(K + 2)
    b[K + 1] = 2.0

    cond = float(np.linalg.cond(A))
    if not np.isfinite(cond) or cond > _COND_LIMIT:
        raise ConditioningError(
            f"prior-pair system for k={k} has condition number {cond:.3g}", condition_estimate=cond
        )
    mag = np.linalg.solve(A, b)
    if np.any(mag < -1e-9):
        raise ConstructionError(f"negative weight where a positive one was expected: {mag}")
    mag = np.clip(mag, 0.0, None)

    def collect(which_sign):
        pts_out, w_out = [], []
        for t, s, w in zip(pts, signs, mag):
            if s != which_sign or w == 0.0:
                continue
            if t == 0.0:
                pts_out.append(0.0)
                w_out.append(float(w))
            else:
                pts_out.extend([-float(t), float(t)])
                w_out.extend([float(w), float(w)])
        total = sum(w_out)
        if abs(total - 1.0) > 1e-8:
            raise ConstructionError(f"prior part sums to {total}, expected 1")
        return tuple(pts_out), tuple(w / total for w in w_out)

    nu0 = SymmetricDiscretePrior(*collect(-1.0))   # error -delta at these atoms
    nu1 = SymmetricDiscretePrior(*collect(+1.0))
    return nu0, nu1, float(sol.delta)


def construct_prior_pair(k: int) -> tuple[SymmetricDiscretePrior, SymmetricDiscretePrior, float]:
    """Symmetric priors (nu0, nu1) on [-1,1] matching moments to order k.

    Returns (nu0, nu1, delta_k): all moments of order <= k agree, while
    mean_abs(nu1) - mean_abs(nu0) = 2 delta_k.  nu1 sits on the alternation
    points where the best-approximation error is +delta, nu0 where it is
    -delta (always including the origin).
    """
    return _prior_pair_data(_check_k(k))


def _check_k(k) -> int:
    """The prior order as an int, or DomainError unless it is even and in 2..80."""
    k = check_int("k", k, 2, 80)
    if k % 2 != 0:
        raise DomainError(f"k must be even, got {k}")
    return k


# ---------------------------------------------------------------------------
# moments of the functional under a prior

@dataclass(frozen=True)
class PriorMoments:
    """Means of |theta| under two priors and the per-coordinate variance term.

    v0_sq is Var_{mu0}(|theta_1|) / n: the variance of the n-average of
    |theta_i| when coordinates are drawn iid from mu0.
    """

    m0: float
    m1: float
    v0_sq: float

    @property
    def gap(self) -> float:
        return abs(self.m1 - self.m0)


def prior_moments(mu0: SymmetricDiscretePrior, mu1: SymmetricDiscretePrior, n: int) -> PriorMoments:
    n = check_int("n", n, 1, MAX_N)
    m0 = mu0.mean_abs()
    var0 = mu0.moment(2) - m0 * m0
    return PriorMoments(m0=m0, m1=mu1.mean_abs(), v0_sq=max(var0, 0.0) / n)


# ---------------------------------------------------------------------------
# chi-square distances

def chi_square_gaussian_mixtures(
    positions0, weights0, positions1, weights1, abs_tol: float = 1e-10
) -> float:
    """Squared chi-square distance between two unit-variance Gaussian mixtures.

    Integrates (f1 - f0)^2 / f0 over the real line, where
    f_i(y) = sum_j w_ij phi(y - t_ij), by a fixed composite Gauss-Legendre
    rule.  The window reaches 10 past every atom and past every bump
    2a - b of the integrand (a an atom of f1, b an atom of f0).  Equal
    panels tile it, at most 1 wide, narrower where atoms of f0 lie more
    than 4 apart, so the node count depends on the window alone and not
    on the number of atoms.  Each node's densities are scaled by their
    largest exponent, so f0 does not underflow in the tails.  The same
    panels are summed with 32 and with 16 nodes, and the difference is the
    error estimate: IntegrationError when it exceeds
    max(abs_tol, 1e-8 * value), or when the window needs more than 2^14
    panels.  A distance past the double range is +inf.  No symmetry is
    required of the mixing measures.
    """
    abs_tol = check_real("abs_tol", abs_tol, above=0.0)
    p0 = np.asarray(positions0, dtype=float)
    w0 = np.asarray(weights0, dtype=float)
    p1 = np.asarray(positions1, dtype=float)
    w1 = np.asarray(weights1, dtype=float)
    for p, w in ((p0, w0), (p1, w1)):
        if p.ndim != 1 or p.shape != w.shape or not np.all(np.isfinite(p)):
            raise DomainError("mixture positions must be finite and aligned with the weights")
        if not (w >= 0).all() or abs(w.sum() - 1.0) > 1e-9:   # NaN included
            raise DomainError("mixture weights must be nonnegative and sum to 1")
    # weightless atoms change neither density, but would set a node's scale
    p0, w0, p1, w1 = p0[w0 > 0], w0[w0 > 0], p1[w1 > 0], w1[w1 > 0]
    lo = min(p0.min(), p1.min(), 2.0 * p1.min() - p0.max()) - 10.0
    hi = max(p0.max(), p1.max(), 2.0 * p1.max() - p0.min()) + 10.0

    # Between two atoms of f0 a distance D apart, 1/f0 peaks over a width of
    # about 1/D, so the panels narrow to 4/D for the widest such gap.
    sorted0, sorted1 = np.sort(p0), np.sort(p1)
    width = _PANEL_WIDTH / max(1.0, float(np.diff(sorted0).max(initial=0.0)) / 4.0)
    panels = (hi - lo) / width   # +inf when the window overflows
    if panels > _MAX_PANELS:
        raise IntegrationError(
            f"the mixtures' atoms span {hi - lo:.3g}: more than {_MAX_PANELS} quadrature panels"
        )
    panels = math.ceil(panels)
    half = (hi - lo) / (2 * panels)
    mid = lo + (2 * np.arange(panels) + 1) * half
    nodes = (mid[:, None] + half * _GL_NODES).ravel()

    # per node: log scale t and scaled integrand q, (f1 - f0)^2 / f0 = q e^t
    atoms = np.concatenate([p0, p1])
    n0 = p0.size
    t = np.empty(nodes.size)
    q = np.empty(nodes.size)
    step = max(1, _BLOCK // atoms.size)
    # one block buffer per call: a block per pass keeps two alive at once, and
    # freeing them lets the allocator return the pages, which the next call
    # then faults in again
    block = np.empty((min(step, nodes.size), atoms.size))
    for start in range(0, nodes.size, step):
        y = nodes[start:start + step]
        z = np.subtract(y[:, None], atoms, out=block[: y.size])
        z *= z
        z *= -0.5
        s0 = _nearest_exponent(y, sorted0)
        s1 = _nearest_exponent(y, sorted1)
        z[:, :n0] -= s0[:, None]
        z[:, n0:] -= s1[:, None]
        np.exp(z, out=z)
        f0 = z[:, :n0] @ w0   # f0 e^{-s0}, at least the weight of the nearest atom
        f1 = z[:, n0:] @ w1   # f1 e^{-s1}
        c = np.maximum(s1 - s0, 0.0)
        diff = f1 * np.exp(s1 - s0 - c) - f0 * np.exp(-c)
        q[start:start + step] = diff * diff / f0
        t[start:start + step] = s0 + 2.0 * c
    top = float(t.max())
    terms = (half / _SQRT_2PI * _GL_WEIGHTS) * (q * np.exp(t - top)).reshape(panels, -1)
    fine = float(terms[:, :_GL_FINE].sum())
    err = abs(fine - float(terms[:, _GL_FINE:].sum()))
    achieved = _unscale(err, top)
    # achieved > max(abs_tol, 1e-8 value), the relative part on the common scale e^top
    if err > 1e-8 * fine and achieved > abs_tol:
        raise IntegrationError(
            f"quadrature error estimate {achieved:.3e} exceeds the requested tolerance",
            achieved_tolerance=achieved,
        )
    return _unscale(fine, top)


def _nearest_exponent(y: np.ndarray, atoms: np.ndarray) -> np.ndarray:
    """max_j -(y - atoms_j)^2 / 2 for sorted atoms: the exponent of the nearest one."""
    i = np.searchsorted(atoms, y)
    left = atoms[np.maximum(i - 1, 0)] - y
    right = atoms[np.minimum(i, atoms.size - 1)] - y
    return -0.5 * np.minimum(left * left, right * right)


def _unscale(x: float, top: float) -> float:
    """x e^top for x >= 0, or +inf past the double range."""
    if x == 0.0:
        return 0.0
    log_x = top + math.log(x)
    return math.inf if log_x > _LOG_MAX else math.exp(log_x)


def chi_square_mixture_1d(mu0: SymmetricDiscretePrior, mu1: SymmetricDiscretePrior) -> float:
    """Squared chi-square distance for one coordinate under the two priors."""
    return chi_square_gaussian_mixtures(mu0.positions, mu0.weights, mu1.positions, mu1.weights)


def chi_square_product_n(I1_sq: float, n: int) -> float:
    """Exact product identity: I_n^2 = (1 + I_1^2)^n - 1, in log space."""
    if I1_sq != math.inf and check_real("I1_sq", I1_sq) < 0:   # +inf: a saturated distance
        raise DomainError(f"I1_sq must be nonnegative, got {I1_sq!r}")
    n = check_int("n", n, 1, MAX_N)
    if math.isinf(I1_sq):
        return math.inf
    log_total = n * math.log1p(I1_sq)
    if log_total > _LOG_MAX:
        return math.inf
    return float(math.expm1(log_total))


def chi_square_tail_bound_1d(M: float, k_n: int) -> float:
    """Moment-matching tail bound e^{M^2/2} sum_{k > k_n} M^{2k}/k! for one coordinate.

    Summed in log space; +inf past the double range.
    """
    M = check_real("M", M, above=0.0)
    k_n = check_int("k_n", k_n, 1, MAX_COUNT)
    m2 = M * M
    log_m2 = 2.0 * math.log(M)   # M * M may underflow
    # term-by-term from k_n+1; no cancellation, geometric-factorial decay
    log_term = (k_n + 1) * log_m2 - math.lgamma(k_n + 2)
    log_total = -math.inf
    k = k_n + 1
    while log_term > _LOG_TINY + max(log_total, 0.0) or k <= k_n + 3:
        high, low = max(log_total, log_term), min(log_total, log_term)
        log_total = high + math.log1p(math.exp(low - high))
        if 0.5 * m2 + log_total > _LOG_MAX:
            return math.inf
        k += 1
        log_term += log_m2 - math.log(k)
        if k > k_n + 10000:
            break
    return math.exp(0.5 * m2 + log_total)


def chi_square_single_term_bound_1d(M: float, k_n: int) -> float:
    """Single-term form e^{3M^2/2} (e M^2 / k_n)^{k_n} dominating the tail bound."""
    M = check_real("M", M, above=0.0)
    k_n = check_int("k_n", k_n, 1, MAX_COUNT)
    log_val = 1.5 * M * M + k_n * (1.0 + 2.0 * math.log(M) - math.log(k_n))
    if log_val > _LOG_MAX:
        return math.inf
    return math.exp(log_val)


def chi_square_bound_n(M: float, k_n: int, n: int) -> float:
    """(1 + e^{3M^2/2}(e M^2/k_n)^{k_n})^n - 1, saturating to inf, in log space."""
    n = check_int("n", n, 1, MAX_N)
    return chi_square_product_n(chi_square_single_term_bound_1d(M, k_n), n)


def select_kn_bounded(n: int) -> int:
    """Smallest even integer >= ln n/ln ln n + ln n/(ln ln n)^{3/2}."""
    n = check_int("n", n, 17, MAX_N)
    log_n = math.log(n)
    loglog = math.log(log_n)
    target = log_n / loglog + log_n / loglog ** 1.5
    k = math.ceil(target)
    return k + (k % 2)


@dataclass(frozen=True)
class MixtureDistance:
    """Chi-square distance between n-fold product mixtures, with its analytic bound."""

    I: float
    I_squared_bound: float
    n: int

    def __post_init__(self):
        if self.I < 0:
            raise ConstructionError("distance must be nonnegative")
        if math.isfinite(self.I_squared_bound) and self.I * self.I > self.I_squared_bound * (1 + 1e-9) + 1e-12:
            raise ConstructionError(
                f"I^2 = {self.I**2} exceeds its analytic bound {self.I_squared_bound}"
            )


# ---------------------------------------------------------------------------
# the constrained risk inequality

@dataclass(frozen=True)
class LowerBoundValue:
    value: float
    hypothesis_holds: bool   # whether |m1 - m0| > v0 * I


def minimax_lower_bound(pm: PriorMoments, I: float) -> LowerBoundValue:
    """(|m1 - m0| - v0 I)^2 / (I + 2)^2 when the gap beats v0 I, else 0."""
    if I != math.inf and check_real("I", I) < 0:   # +inf: a saturated distance
        raise DomainError(f"I must be a nonnegative real, got {I!r}")
    v0 = math.sqrt(pm.v0_sq)
    if math.isinf(I) or pm.gap <= v0 * I:
        return LowerBoundValue(0.0, False)
    num = pm.gap - v0 * I
    return LowerBoundValue((num / (I + 2.0)) ** 2, True)


@dataclass(frozen=True)
class DiscreteModel:
    """Finite experiment: parameter i has functional value T_values[i] and
    observation distribution obs_probs[i] over a finite alphabet."""

    T_values: tuple[float, ...]
    obs_probs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        if len(self.T_values) == 0 or len(self.obs_probs) != len(self.T_values):
            raise ConstructionError("need one observation row per parameter")
        width = len(self.obs_probs[0])
        for row in self.obs_probs:
            if len(row) != width or any(p <= 0 for p in row) or abs(sum(row) - 1.0) > 1e-9:
                raise ConstructionError("observation rows must be positive and sum to 1")


@dataclass(frozen=True)
class CriVerification:
    """Exact enumeration record for the three risk inequalities on one rule."""

    I: float
    m0: float
    m1: float
    v0: float
    risk0: float
    risk1: float
    lb1_lhs: float
    lb1_rhs: float
    bayes_ok: bool
    minimax_rhs: float
    lambda_star_matches: bool

    @property
    def lb1_ok(self) -> bool:
        return self.lb1_lhs >= self.lb1_rhs - 1e-10

    @property
    def minimax_ok(self) -> bool:
        return max(self.risk0, self.risk1) >= self.minimax_rhs - 1e-10

    @property
    def all_ok(self) -> bool:
        return self.lb1_ok and self.bayes_ok and self.minimax_ok and self.lambda_star_matches


def verify_constrained_risk(model: DiscreteModel, mu0, mu1, rule, eps: float) -> CriVerification:
    """Check the constrained risk inequality by exact enumeration.

    mu0/mu1: prior weights over the model's parameters.  rule: the
    estimator, one real per observation symbol.  eps: risk budget under
    mu0; the precondition risk0 <= eps^2 is enforced.
    """
    eps = check_real("eps", eps)
    T = np.asarray(model.T_values, dtype=float)
    P = np.asarray(model.obs_probs, dtype=float)
    u0 = np.asarray(mu0, dtype=float)
    u1 = np.asarray(mu1, dtype=float)
    d = np.asarray(rule, dtype=float)
    for u in (u0, u1):
        if u.shape != T.shape or np.any(u < 0) or abs(u.sum() - 1.0) > 1e-9:
            raise DomainError("priors must be distributions over the parameter set")
    if d.shape != (P.shape[1],):
        raise DomainError("rule must assign one value per observation symbol")

    sq_err = (d[None, :] - T[:, None]) ** 2          # (params, symbols)
    risk_theta = np.sum(P * sq_err, axis=1)
    risk0 = float(np.dot(u0, risk_theta))
    risk1 = float(np.dot(u1, risk_theta))
    if risk0 > eps * eps * (1.0 + 1e-12) + 1e-15:
        raise PreconditionError(f"risk under mu0 is {risk0}, exceeding eps^2 = {eps * eps}")

    m0 = float(np.dot(u0, T))
    m1 = float(np.dot(u1, T))
    v0 = math.sqrt(max(float(np.dot(u0, (T - m0) ** 2)), 0.0))

    f0 = u0 @ P
    f1 = u1 @ P
    I = math.sqrt(max(float(np.sum((f1 - f0) ** 2 / f0)), 0.0))

    bias = P @ d - T                                  # B(theta)
    lb1_lhs = abs(float(np.dot(u1, bias)) - float(np.dot(u0, bias)))
    lb1_rhs = abs(m1 - m0) - (eps + v0) * I

    gap = abs(m1 - m0) - v0 * I
    if gap > 0:
        lams = np.concatenate([np.linspace(0.0, 1.0, 11), [(I + 1.0) / (I + 2.0)]])
        rhs = lams * (1 - lams) * gap * gap / (lams + (1 - lams) * (I + 1.0) ** 2)
        lhs = lams * risk0 + (1 - lams) * risk1
        bayes_ok = bool(np.all(lhs >= rhs - 1e-10))
        minimax_rhs = gap * gap / (I + 2.0) ** 2
        lam_star = (I + 1.0) / (I + 2.0)
        star_rhs = lam_star * (1 - lam_star) * gap * gap / (lam_star + (1 - lam_star) * (I + 1.0) ** 2)
        lambda_star_matches = abs(star_rhs - minimax_rhs) <= 1e-12 * max(minimax_rhs, 1.0)
    else:
        bayes_ok = True
        minimax_rhs = 0.0
        lambda_star_matches = True

    return CriVerification(
        I=I, m0=m0, m1=m1, v0=v0, risk0=risk0, risk1=risk1,
        lb1_lhs=lb1_lhs, lb1_rhs=lb1_rhs, bayes_ok=bayes_ok,
        minimax_rhs=minimax_rhs, lambda_star_matches=lambda_star_matches,
    )


def random_discrete_model(
    rng: np.random.Generator, max_params: int = 4, max_outcomes: int = 6
) -> tuple[DiscreteModel, np.ndarray, np.ndarray]:
    """A random finite experiment with strictly positive observation rows."""
    p = int(rng.integers(2, max_params + 1))
    m = int(rng.integers(2, max_outcomes + 1))
    T = rng.uniform(-1.0, 1.0, size=p)
    probs = rng.dirichlet(np.ones(m), size=p) * 0.9 + 0.1 / m   # keep rows >= 0.1/m
    probs /= probs.sum(axis=1, keepdims=True)
    mu0 = rng.dirichlet(np.ones(p))
    mu1 = rng.dirichlet(np.ones(p))
    model = DiscreteModel(tuple(T), tuple(tuple(row) for row in probs))
    return model, mu0, mu1


# ---------------------------------------------------------------------------
# end-to-end pipeline used by the CLI

def lower_bound_pipeline(n: int, M: float, k_n: int | None = None) -> dict:
    """Construct priors at scale M, compute distances, and evaluate the bound.

    Returns the record emitted by the command-line `lowerbound` subcommand:
    keys k_n, delta_k, m_gap, v0_sq, I, bound_value.  The arguments are
    checked first (k_n even in 2..80, default select_kn_bounded(n); M a
    finite real > 0; n an integer in 1..MAX_N).  The priors, their moments,
    delta_k, I_1^2 and its tail bound depend on (k_n, M) alone and are
    computed once per pair; n enters through v0^2 = Var / n and the product
    identity.  Where I_1^2 is at the roundoff floor, the smaller of it and
    the tail bound is used, so the bound stays valid at any n.
    """
    if k_n is None:
        k_n = select_kn_bounded(n)
    k_n = _check_k(k_n)
    M = check_real("M", M, above=0.0)
    n = check_int("n", n, 1, MAX_N)
    delta, pm, I1_sq, tail = _pair_terms(k_n, M)
    pm = PriorMoments(m0=pm.m0, m1=pm.m1, v0_sq=pm.v0_sq / n)
    I_n = math.sqrt(chi_square_product_n(I1_sq, n))
    # tail-sum bound per coordinate is valid whenever moments match to k_n;
    # the dataclass check below ties the quadrature back to the analytics
    MixtureDistance(I=I_n, I_squared_bound=chi_square_product_n(tail, n), n=n)
    bound = minimax_lower_bound(pm, I_n)
    return {
        "k_n": k_n,
        "delta_k": float(delta),
        "m_gap": pm.gap,
        "v0_sq": pm.v0_sq,
        "I": I_n,
        "bound_value": bound.value,
    }


@lru_cache(maxsize=_PAIR_CACHE)
def _pair_terms(k: int, M: float) -> tuple[float, PriorMoments, float, float]:
    """(delta_k, moments with v0_sq = Var_{mu0}|theta|, I_1^2, tail bound) for checked (k, M)."""
    nu0, nu1, delta = construct_prior_pair(k)
    mu0 = scale_prior(nu0, M)
    mu1 = scale_prior(nu1, M)
    tail = chi_square_tail_bound_1d(M, k)
    I1_sq = chi_square_mixture_1d(mu0, mu1)
    if I1_sq <= _ROUNDOFF_FLOOR:
        I1_sq = min(I1_sq, tail)
    return delta, prior_moments(mu0, mu1, 1), I1_sq, tail
