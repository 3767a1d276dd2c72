"""Minimax lower-bound machinery for mean-absolute-value estimation.

Three ingredients:

* A constructive pair of symmetric priors on [-1, 1] whose moments agree
  up to order k while their means of |t| differ by 2 * delta_k, where
  delta_k is the best uniform error of degree-k even polynomial
  approximation to |x|.  The atoms are the alternation points of the best
  approximation, the alternation signs prescribing which prior receives
  each atom.  On the K + 2 = k/2 + 2 nonnegative ones t_j, the signed
  measure that annihilates every polynomial of degree <= K in
  u = 2t^2 - 1 is unique up to scale and has a closed form, the
  divided-difference weights 1 / prod_{i != j} (u_j - u_i); no linear
  system is solved.  Signs that do not alternate like those weights raise
  ConstructionError.

* Chi-square distances between the induced Gaussian mixtures: a fixed
  composite Gauss-Legendre rule on equal panels across the window, whatever
  the number of atoms, with a two-resolution error estimate for one
  coordinate, evaluated in log space so that tails and far-apart atoms
  keep their value (+inf past the double range).  The exponents fill a
  contiguous atoms-by-nodes block; each node is scaled by its column
  maximum, the exponent of its nearest atom.  When both mixtures are
  exactly mirror-symmetric, as the scaled prior pairs are by construction,
  the integrand is even and only the half window [0, hi] is integrated and
  doubled.  For n independent coordinates, the exact product identity
  I_n^2 = (1 + I_1^2)^n - 1, and the tail-sum upper bound driven by the
  number of matched moments.

* The constrained risk inequality: if an estimator does very well under
  one prior, it must pay under another, quantitatively in terms of the
  chi-square distance.  ``minimax_lower_bound`` is its minimax form, which
  the pipeline ships; ``verify_constrained_risk`` checks that form and the
  other two by exact enumeration on finite discrete models.

``lower_bound_pipeline`` assembles the three.  Everything but n depends on
the pair (k, M) alone: delta_k, |m1 - m0|, Var_{mu0}|theta|, I_1^2 and its
tail bound are plain floats computed once per pair (a bounded cache) and
reused for every n, which enters only through v0^2 = Var / n and the product identity.
The prior pair is built and checked once per k; each M scales it without a
second check (exactly mirror-symmetric on [-1, 1], it stays finite and
mirrored), and chi_square_mixture_1d integrates priors, checked when built,
without repeating chi_square_gaussian_mixtures's argument checks.
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
    ConstructionError,
    DomainError,
    IntegrationError,
    PreconditionError,
    RangeError,
    check_int,
    check_real,
    check_real_array,
)
from .polyapprox import remez_best_approx

_SQRT_2PI = math.sqrt(2.0 * math.pi)
_LOG_MAX = math.log(np.finfo(float).max)
_LOG_TINY = math.log(1e-30)

# Chi-square quadrature: the window tiled by equal panels, at most
# _PANEL_WIDTH wide and at most _MAX_PANELS of them, with no break at the
# atoms (the integrand is entire, a sum of unit-variance Gaussians, which a
# 32-point panel of width 1 resolves wherever the atoms fall).  Each panel is
# summed by the 32-point and by the 16-point Gauss-Legendre rule (nodes side
# by side, the 32-point ones first).  Nodes are evaluated _BLOCK node-atom
# pairs at a time, which bounds the working memory on wide windows.  The
# 32-point sum stands when the two differ by at most max(_ABS_TOL, 1e-8 value).
_PANEL_WIDTH = 1.0
_ABS_TOL = 1e-10
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
# stands, and the pipeline still checks it against the bound.
_ROUNDOFF_FLOOR = 1e-28
# (k, M) pairs whose distance terms are kept: every even k in 2..80 at 25 radii
_PAIR_CACHE = 1024


# ---------------------------------------------------------------------------
# priors

@dataclass(frozen=True)
class SymmetricDiscretePrior:
    """Finitely supported symmetric probability measure.

    positions/weights list every atom (mirror atoms listed explicitly);
    construction validates real entries, total mass 1 and symmetry: with
    atoms merged at 12 decimals, each mass equals its mirror's within 1e-9.
    """

    positions: tuple[float, ...]
    weights: tuple[float, ...]

    def __post_init__(self):
        p = check_real_array("prior positions", self.positions, ConstructionError)
        w = check_real_array("prior weights", self.weights, ConstructionError)
        if p.ndim != 1 or p.shape != w.shape or p.size == 0:
            raise ConstructionError("positions and weights must be nonempty, one-dimensional and aligned")
        finite = np.isfinite(p)
        if not finite.all():
            raise ConstructionError(f"prior positions must be finite, got {p[np.argmin(finite)]}")
        if not (w >= 0).all():   # NaN included
            raise ConstructionError("prior weights must be nonnegative")
        total = sum(self.weights)
        if abs(total - 1.0) > 1e-9:
            raise ConstructionError(f"prior weights sum to {total}, expected 1")
        # the first merged atom, in order of appearance, whose mirror's mass differs is reported
        mass = {}
        for t, m in zip(p.tolist(), w.tolist()):
            mass[round(t, 12)] = mass.get(round(t, 12), 0.0) + m
        for t, m in mass.items():
            if abs(mass.get(-t, 0.0) - m) > 1e-9:
                raise ConstructionError(f"prior is not symmetric at t = {t}")

    def moment(self, order: int) -> float:
        """sum_j w_j t_j^order; RangeError where that leaves the double range."""
        order = check_int("order", order, 0, MAX_COUNT)
        p = np.asarray(self.positions)
        w = np.asarray(self.weights)
        with np.errstate(over="ignore", invalid="ignore"):
            out = float(np.dot(w, p ** order))
        if not math.isfinite(out):
            raise RangeError(f"the prior's moment of order {order} overflows the double range")
        return out

    def mean_abs(self) -> float:
        p = np.asarray(self.positions)
        w = np.asarray(self.weights)
        return float(np.dot(w, np.abs(p)))


def scale_prior(prior: SymmetricDiscretePrior, M: float) -> SymmetricDiscretePrior:
    """Push the prior forward by t -> M t."""
    M = check_real("M", M, above=0.0)
    return SymmetricDiscretePrior(tuple(M * t for t in prior.positions), prior.weights)


def _prior_unchecked(positions: tuple[float, ...], weights: tuple[float, ...]) -> SymmetricDiscretePrior:
    """A SymmetricDiscretePrior built without __post_init__, for atoms valid by construction."""
    prior = object.__new__(SymmetricDiscretePrior)
    object.__setattr__(prior, "positions", positions)
    object.__setattr__(prior, "weights", weights)
    return prior


@lru_cache(maxsize=None)
def _prior_pair_data(k: int) -> tuple[SymmetricDiscretePrior, SymmetricDiscretePrior, float]:
    """The validated pair for an even k in 2..80, built once per k (the priors are frozen)."""
    K = k // 2
    sol = remez_best_approx(K)
    # the nonnegative half of the alternation set, 0 = t_0 < ... < t_{K+1} <= 1, with its error signs
    t = np.asarray(sol.alternation_points[K + 1:])
    signs = np.asarray(sol.alternation_signs[K + 1:], dtype=float)
    if len(t) != K + 2 or t[0] != 0.0 or not np.all(t[1:] > t[:-1]) or t[-1] > 1.0:
        raise ConstructionError("unexpected alternation structure from remez_best_approx")

    # On the K + 2 distinct nodes u_j = 2 t_j^2 - 1, the signed measure that annihilates every
    # polynomial of degree <= K in u (so every even one of degree <= k in t) is unique up to
    # scale: the divided-difference weights y_j = 1 / prod_{i != j} (u_j - u_i), written with
    # u_j - u_i = 2 (t_j - t_i)(t_j + t_i) to avoid cancellation (the common 2^{K+1} dropped).
    # Their signs alternate, and must be the error signs up to one overall sign.
    factors = (t[:, None] - t) * (t[:, None] + t)
    np.fill_diagonal(factors, 1.0)
    y = 1.0 / factors.prod(axis=1)
    if not (np.all(signs * y > 0.0) or np.all(signs * y < 0.0)):
        raise ConstructionError(f"alternation signs for k={k} do not alternate like the divided-difference weights")
    mass = np.abs(y) * (2.0 / np.abs(y).sum())   # total variation 2: mass 1 on each side

    def collect(which_sign):
        pts_out, w_out = [], []
        for tj, s, m in zip(t.tolist(), signs, mass.tolist()):
            if s != which_sign:
                continue
            if tj == 0.0:
                pts_out.append(0.0)
                w_out.append(m)
            else:
                pts_out.extend([-tj, tj])
                w_out.extend([0.5 * m, 0.5 * m])
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
# chi-square distances

def chi_square_gaussian_mixtures(positions0, weights0, positions1, weights1) -> float:
    """Squared chi-square distance between two unit-variance Gaussian mixtures.

    Integrates (f1 - f0)^2 / f0 over the real line, where
    f_i(y) = sum_j w_ij phi(y - t_ij), by a fixed composite Gauss-Legendre
    rule.  The window reaches 10 past every atom and past every bump
    2a - b of the integrand (a an atom of f1, b an atom of f0).  When both
    mixtures are exactly mirror-symmetric (after weightless atoms are
    dropped, the sorted positions equal their negated reverse and the
    weights in that order equal their reverse), the integrand is even:
    only [0, hi] is integrated, and the value and its error estimate are
    doubled.  Otherwise, symmetric to a tolerance included, the whole
    window is.  Equal panels tile the window integrated, at most 1 wide,
    narrower where atoms of f0 lie more than 4 apart, so the node count
    depends on the window alone and not on the number of atoms.  Each
    node's densities are scaled by their largest exponent, so f0 does not
    underflow in the tails.  The same panels are summed with 32 and with 16
    nodes, and the difference is the error estimate: IntegrationError when
    it exceeds max(1e-10, 1e-8 * value), or when the window integrated
    needs more than 2^14 panels.  A distance past the double range is +inf.
    Positions and weights must be Python or numpy integers or floats (text
    raises DomainError).
    """
    p0 = check_real_array("positions0", positions0)
    w0 = check_real_array("weights0", weights0)
    p1 = check_real_array("positions1", positions1)
    w1 = check_real_array("weights1", weights1)
    for p, w in ((p0, w0), (p1, w1)):
        if p.ndim != 1 or p.shape != w.shape or not np.all(np.isfinite(p)):
            raise DomainError("mixture positions must be finite and aligned with the weights")
        if not (w >= 0).all() or abs(w.sum() - 1.0) > 1e-9:   # NaN included
            raise DomainError("mixture weights must be nonnegative and sum to 1")
    return _chi_square(p0, w0, p1, w1)


def _chi_square(p0: np.ndarray, w0: np.ndarray, p1: np.ndarray, w1: np.ndarray) -> float:
    """chi_square_gaussian_mixtures on checked float arrays: finite 1-d positions aligned
    with nonnegative weights that sum to 1."""
    # weightless atoms change neither density, but would set a node's scale
    p0, w0, p1, w1 = p0[w0 > 0], w0[w0 > 0], p1[w1 > 0], w1[w1 > 0]
    (a0, b0), (a1, b1) = ((float(p.min()), float(p.max())) for p in (p0, p1))   # Python floats overflow to inf quietly
    lo = min(a0, a1, 2.0 * a1 - b0) - 10.0
    hi = max(b0, b1, 2.0 * b1 - a0) + 10.0
    # two mirror-symmetric mixtures give an even integrand: integrate [0, hi] and double it
    sorted0, mirror0 = _sort_atoms(p0, w0)
    _, mirror1 = _sort_atoms(p1, w1)
    fold = 2.0 if mirror0 and mirror1 else 1.0
    if fold == 2.0:
        lo = 0.0

    # Between two atoms of f0 a distance D apart, 1/f0 peaks over a width of
    # about 1/D, so the panels narrow to 4/D for the widest such gap.
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
    buf = np.empty(min(step, nodes.size) * atoms.size)
    for start in range(0, nodes.size, step):
        y = nodes[start:start + step]
        # atoms by nodes, contiguous: every pass runs along rows, the scales broadcast as a row
        z = np.subtract(atoms[:, None], y, out=buf[: atoms.size * y.size].reshape(atoms.size, y.size))
        z *= z
        z *= -0.5
        s0 = z[:n0].max(axis=0)   # each node's exponent of its nearest atom of f0
        s1 = z[n0:].max(axis=0)
        z[:n0] -= s0
        z[n0:] -= s1
        np.exp(z, out=z)
        f0 = w0 @ z[:n0]   # f0 e^{-s0}, at least the weight of the nearest atom
        f1 = w1 @ z[n0:]   # f1 e^{-s1}
        c = np.maximum(s1 - s0, 0.0)
        diff = f1 * np.exp(s1 - s0 - c) - f0 * np.exp(-c)
        q[start:start + step] = diff * diff / f0
        t[start:start + step] = s0 + 2.0 * c
    top = float(t.max())
    terms = (fold * half / _SQRT_2PI * _GL_WEIGHTS) * (q * np.exp(t - top)).reshape(panels, -1)
    fine = float(terms[:, :_GL_FINE].sum())
    err = abs(fine - float(terms[:, _GL_FINE:].sum()))
    achieved = _unscale(err, top)
    # achieved > max(_ABS_TOL, 1e-8 value), the relative part on the common scale e^top
    if err > 1e-8 * fine and achieved > _ABS_TOL:
        raise IntegrationError(
            f"quadrature error estimate {achieved:.3e} exceeds the requested tolerance",
            achieved_tolerance=achieved,
        )
    return _unscale(fine, top)


def _sort_atoms(p: np.ndarray, w: np.ndarray) -> tuple[np.ndarray, bool]:
    """The atoms sorted by one stable argsort, and whether they equal their negated
    reverse and the weights in that order their reverse: exact mirror symmetry."""
    order = np.argsort(p, kind="stable")
    p, w = p[order], w[order]
    return p, bool(np.array_equal(p, -p[::-1]) and np.array_equal(w, w[::-1]))


def _unscale(x: float, top: float) -> float:
    """x e^top for x >= 0, or +inf past the double range."""
    if x == 0.0:
        return 0.0
    log_x = top + math.log(x)
    return math.inf if log_x > _LOG_MAX else math.exp(log_x)


def chi_square_mixture_1d(mu0: SymmetricDiscretePrior, mu1: SymmetricDiscretePrior) -> float:
    """Squared chi-square distance for one coordinate under the two priors.

    Two SymmetricDiscretePriors passed chi_square_gaussian_mixtures's checks when they were
    built, so their atoms go straight to its quadrature; anything else with positions and
    weights is checked there.
    """
    if isinstance(mu0, SymmetricDiscretePrior) and isinstance(mu1, SymmetricDiscretePrior):
        return _chi_square(*(np.asarray(a, dtype=float)
                             for a in (mu0.positions, mu0.weights, mu1.positions, mu1.weights)))
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
    return math.exp(0.5 * m2 + log_total)


def select_kn_bounded(n: int) -> int:
    """Smallest even integer >= ln n/ln ln n + ln n/(ln ln n)^{3/2}."""
    n = check_int("n", n, 17, MAX_N)
    log_n = math.log(n)
    loglog = math.log(log_n)
    target = log_n / loglog + log_n / loglog ** 1.5
    k = math.ceil(target)
    return k + (k % 2)


# ---------------------------------------------------------------------------
# the constrained risk inequality

@dataclass(frozen=True)
class LowerBoundValue:
    value: float
    hypothesis_holds: bool   # whether |m1 - m0| > v0 * I


def minimax_lower_bound(gap: float, v0: float, I: float) -> LowerBoundValue:
    """(gap - v0 I)^2 / (I + 2)^2 if gap > v0 I, else 0 (also at I = +inf, a saturated distance),
    where gap = |m1 - m0| and v0 is the sd of the functional under mu0."""
    gap, v0 = check_real("gap", gap), check_real("v0", v0)
    if v0 < 0:
        raise DomainError(f"v0 must be >= 0, got {v0!r}")
    if I != math.inf and check_real("I", I) < 0:
        raise DomainError(f"I must be a nonnegative real, got {I!r}")
    if math.isinf(I) or gap <= v0 * I:
        return LowerBoundValue(0.0, False)
    return LowerBoundValue(((gap - v0 * I) / (I + 2.0)) ** 2, True)


@dataclass(frozen=True)
class DiscreteModel:
    """Finite experiment: parameter i has functional value T_values[i] and
    observation distribution obs_probs[i] over a finite alphabet."""

    T_values: tuple[float, ...]
    obs_probs: tuple[tuple[float, ...], ...]

    def __post_init__(self):
        T = check_real_array("T_values", self.T_values, ConstructionError)
        P = check_real_array("observation rows", self.obs_probs, ConstructionError)
        if T.ndim != 1 or T.size == 0 or P.ndim != 2 or len(P) != T.size:
            raise ConstructionError("need one observation row per parameter")
        if not np.isfinite(T).all():
            raise ConstructionError("T_values must be finite")
        if not (P > 0).all() or np.any(np.abs(P.sum(axis=1) - 1.0) > 1e-9):   # NaN included
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
    mu0, at least 0; the precondition risk0 <= eps^2 is enforced.  Priors and
    rule must hold finite reals (DomainError otherwise).  The minimax side is
    minimax_lower_bound's value, which the Bayes form must equal at lambda*.
    """
    eps = check_real("eps", eps)
    if eps < 0:
        raise DomainError(f"eps must be >= 0, got {eps!r}")
    T = np.asarray(model.T_values, dtype=float)
    P = np.asarray(model.obs_probs, dtype=float)
    u0 = check_real_array("mu0", mu0)
    u1 = check_real_array("mu1", mu1)
    d = check_real_array("rule", rule)
    if not all(np.isfinite(v).all() for v in (u0, u1, d)):
        raise DomainError("priors and rule must be finite")
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

    minimax = minimax_lower_bound(abs(m1 - m0), v0, I)
    bayes_ok = lambda_star_matches = True
    if minimax.hypothesis_holds:
        margin = abs(m1 - m0) - v0 * I
        # the last lambda, (I + 1) / (I + 2), is the one whose Bayes bound is the minimax bound
        lams = np.concatenate([np.linspace(0.0, 1.0, 11), [(I + 1.0) / (I + 2.0)]])
        rhs = lams * (1 - lams) * margin * margin / (lams + (1 - lams) * (I + 1.0) ** 2)
        lhs = lams * risk0 + (1 - lams) * risk1
        bayes_ok = bool(np.all(lhs >= rhs - 1e-10))
        lambda_star_matches = abs(rhs[-1] - minimax.value) <= 1e-12 * max(minimax.value, 1.0)

    return CriVerification(
        I=I, m0=m0, m1=m1, v0=v0, risk0=risk0, risk1=risk1,
        lb1_lhs=lb1_lhs, lb1_rhs=lb1_rhs, bayes_ok=bayes_ok,
        minimax_rhs=minimax.value, lambda_star_matches=lambda_star_matches,
    )


def random_discrete_model(rng: np.random.Generator) -> tuple[DiscreteModel, np.ndarray, np.ndarray]:
    """A random finite experiment: 2..4 parameters, 2..6 observation symbols,
    strictly positive observation rows."""
    p = int(rng.integers(2, 5))
    m = int(rng.integers(2, 7))
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
    checked first (k_n even in 2..80, default select_kn_bounded(n), which
    passes 80 from n = 1e143; M a finite real > 0; n an integer in 1..MAX_N).  The priors, their moments,
    delta_k, I_1^2 and its tail bound depend on (k_n, M) alone and are
    computed once per pair; n enters through v0^2 = Var / n and the product
    identity.  Where I_1^2 is at the roundoff floor, the smaller of it and
    the tail bound is used, so the bound stays valid at any n.
    """
    if k_n is None:
        k_n = select_kn_bounded(n)
        if k_n > 80:
            raise DomainError(f"select_kn_bounded(n) = {k_n} at n = {n:.6g} exceeds the largest prior "
                              "order 80; pass k_n")
    k_n = _check_k(k_n)
    M = check_real("M", M, above=0.0)
    n = check_int("n", n, 1, MAX_N)
    delta, gap, var0, I1_sq, tail = _pair_terms(k_n, M)
    v0_sq = var0 / n
    I_n = math.sqrt(chi_square_product_n(I1_sq, n))
    # the tail-sum bound holds whenever the moments match to k_n: the quadrature must respect it
    I_sq_bound = chi_square_product_n(tail, n)
    if math.isfinite(I_sq_bound) and I_n * I_n > I_sq_bound * (1 + 1e-9) + 1e-12:
        raise ConstructionError(f"I^2 = {I_n**2} exceeds its analytic bound {I_sq_bound}")
    return {
        "k_n": k_n,
        "delta_k": delta,
        "m_gap": gap,
        "v0_sq": v0_sq,
        "I": I_n,
        "bound_value": minimax_lower_bound(gap, math.sqrt(v0_sq), I_n).value,
    }


@lru_cache(maxsize=_PAIR_CACHE)
def _pair_terms(k: int, M: float) -> tuple[float, float, float, float, float]:
    """(delta_k, |m1 - m0|, Var_{mu0}|theta|, I_1^2, tail bound) for checked (k, M)."""
    nu0, nu1, delta = construct_prior_pair(k)
    # the pair is exactly mirror-symmetric on [-1, 1], so for every M that check_real
    # accepts, M t is finite and mirrored: scale_prior's result, without its second check
    mu0, mu1 = (_prior_unchecked(tuple(M * t for t in nu.positions), nu.weights) for nu in (nu0, nu1))
    tail = chi_square_tail_bound_1d(M, k)
    I1_sq = chi_square_mixture_1d(mu0, mu1)
    if I1_sq <= _ROUNDOFF_FLOOR:
        I1_sq = min(I1_sq, tail)
    m0 = mu0.mean_abs()
    var0 = max(mu0.moment(2) - m0 * m0, 0.0)
    return delta, abs(mu1.mean_abs() - m0), var0, I1_sq, tail
