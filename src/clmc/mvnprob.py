"""Multivariate normal rectangle probabilities and simultaneous quantiles.

The rectangle probability P(l < Z < u) for Z ~ N(0, R) is computed with the
sequential-conditioning reformulation: after a Cholesky factorization
R = L L', the integral over the rectangle becomes an integral over the unit
cube in which coordinate i is sampled conditionally on coordinates < i.
R may be singular (all-pairwise contrasts of p coefficients give c =
p(p-1)/2 statistics of rank p-1): L is then the c x r lower-trapezoidal
factor of an unpivoted semidefinite Cholesky, r = rank R, and the integral
runs over r-1 cube dimensions instead of c-1.  A dependent row, one that
opens no new column, is folded into the stage of its last nonzero column,
where its limits are intersected with those of the other rows of that stage
(Genz & Bretz 2009, Sec. 4.1.3).  For a full-rank R every stage has one row.
The cube integral is evaluated with randomized quasi-Monte Carlo (scrambled
Sobol points); independent scrambles ("shifts") give an empirical standard
error.  One rule sizes every estimate: it is accepted when 3 standard errors
fit in the requested absolute error, a bound on its true error, and a miss
doubles the point count per shift (Genz & Bretz 2009, Ch. 4).  Variables are
pre-ordered by ascending univariate interval probability, which reduces the
variance of the conditioned integrand.
R is validated, never repaired: the semidefinite Cholesky's rank tolerance
absorbs the negative eigenvalue noise of an estimated singular R.

The equicoordinate quantile solves P(max_i |Z_i| <= q) = 1 - alpha with a
safeguarded secant on Phi^-1(P(q)) - Phi^-1(1 - alpha), on one fixed Sobol
stack so the estimate is a smooth function of q.  The root lies between the
naive two-sided normal cutoff (a lower bound) and the Bonferroni cutoff (an
upper bound, by the union bound; Sidak 1967, JASA 62:626); the search starts
at the Bonferroni end and stops when the estimate is within
target_abs_error / 200 of 1 - alpha.  On a stack of at least 4096 points per
shift it runs in two stages: first on the stack's first 1/16 points per
shift (a power-of-two prefix of a scrambled Sobol sequence is itself a
randomized net) to target_abs_error / 20, then on the full stack from that
root; the point count is sized there at 1 standard error.  Adjusted p-values
start on the same prefix, or on the quantile's points without a prefix
stage, and follow the 3-SE rule; one near alpha, or whose side of alpha
disagrees with the cutoff's decision, is taken on the quantile's points
instead.  All estimates are deterministic functions of the configured seed.

A single-step max-T test rejects |t_i| exactly when P(|t_i|) > 1 - alpha
(Hothorn, Bretz & Westfall 2008), so `equicoordinate_rejects` runs no
search: it takes P at each statistic between the univariate and Bonferroni
cutoffs, largest first, from a 64-point prefix per shift doubled until 4
standard errors settle the side of 1 - alpha (or 1 SE fits in the target on
at least the whole stack).  Its contract: where the true P is at least
twice the target from 1 - alpha, no decision is wrong.

Tukey's cutoff is scipy.stats.studentized_range at infinite degrees of
freedom; the normal and chi-square cutoffs are scipy.special's, at the caller.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy.special import ndtr, ndtri
from scipy.stats import qmc, studentized_range

__all__ = [
    "QmcConfig",
    "ProbEstimate",
    "mvn_rectangle_prob",
    "equicoordinate_quantile",
    "equicoordinate_rejects",
    "studentized_range_quantile",
    "QuantileConvergenceError",
]

_PROB_FLOOR = 1e-300
_PROB_CEIL = float(np.nextafter(1.0, 0.0))


class QuantileConvergenceError(RuntimeError):
    """Raised when a quantile search cannot reach its probability tolerance."""


@dataclass(frozen=True)
class QmcConfig:
    """Settings for the randomized quasi-Monte Carlo integrator.

    `points_per_shift`, rounded up to a power of two, is the starting Sobol
    stack per shift.  From 4096 points the quantile search and the adjusted
    p-values start on its first 1/16; a smaller stack is used whole.  A
    rectangle probability or an adjusted p-value is accepted when 3 standard
    errors fit in `target_abs_error`, so a printed 4-digit mnq p-value
    carries up to `target_abs_error` of QMC error; the quantile's points are
    sized at 1 standard error, and the mnq decisions (`equicoordinate_rejects`,
    from 64 points) once 4 standard errors settle a side or 1 SE fits on the
    whole stack.  An estimate that misses doubles its stack, up to 64 times
    the starting one.  The simulations and `clmc test` run at the defaults.
    """

    points_per_shift: int = 4096
    shifts: int = 12
    seed: int = 20240801
    target_abs_error: float = 5e-4

    def __post_init__(self):
        if self.points_per_shift < 16:
            raise ValueError("points_per_shift must be at least 16")
        if self.shifts < 3:
            raise ValueError("need at least 3 shifts for an error estimate")
        if self.target_abs_error <= 0:
            raise ValueError("target_abs_error must be positive")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")


@dataclass(frozen=True)
class ProbEstimate:
    value: float
    std_error: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability {self.value} outside [0,1]")
        if not np.isfinite(self.std_error) or self.std_error < 0:
            raise ValueError("std_error must be finite and nonnegative")


def _prepare_correlation(corr: np.ndarray) -> np.ndarray:
    """Validate a correlation matrix; return it exactly symmetric, unit diagonal.

    An eigenvalue below -1e-10 is an error.  Smaller negative eigenvalues are
    left alone: `_trapezoidal_cholesky` counts them as dependence (_RANK_TOL).
    """
    r = np.asarray(corr, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not np.isfinite(r).all():
        raise ValueError("correlation matrix must be finite")
    if np.max(np.abs(r - r.T)) > 1e-8:
        raise ValueError("correlation matrix must be symmetric")
    if np.max(np.abs(np.diag(r) - 1.0)) > 1e-8:
        raise ValueError("correlation matrix must have unit diagonal")
    r = 0.5 * (r + r.T)
    w = np.linalg.eigvalsh(r)
    if w[0] < -1e-10:
        raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})")
    np.fill_diagonal(r, 1.0)
    return r


# A row whose remaining variance in the Cholesky recursion is at or below
# _RANK_TOL is a linear combination of the rows before it; a loading at or
# below _LOAD_TOL = sqrt(_RANK_TOL) counts as zero when a dependent row's
# stage is chosen (the singular-covariance handling of Genz & Bretz 2009,
# Computation of Multivariate Normal and t Probabilities, Sec. 4.1.3).
_RANK_TOL = 1e-10
_LOAD_TOL = 1e-5

# the QMC point count per shift is doubled at most this many times
_MAX_DOUBLINGS = 6


def _trapezoidal_cholesky(r: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Factor a correlation matrix as L L' with L lower-trapezoidal, c x rank.

    Unpivoted semidefinite Cholesky: row k opens a new column when its
    remaining variance exceeds _RANK_TOL, and is otherwise a dependent row
    with loadings on the columns opened before it.  Each row's stage is the
    last column in which its loading is nonzero.  Returns L with its rows
    sorted by stage, the stages, and the row order: L L' = r[order][:, order].
    A full-rank matrix gives LAPACK's Cholesky factor and stages 0..c-1.

    A singular matrix is factored column by column (outer-product form): each
    opened column is one rank-1 update of the rows after its pivot, so the
    work is rank(r) vectorized steps rather than one triangular solve per row.
    """
    c = len(r)
    try:
        chol = np.linalg.cholesky(r)
        if np.all(np.diag(chol) > _LOAD_TOL):
            return chol, np.arange(c), np.arange(c)
    except np.linalg.LinAlgError:
        pass
    low = np.zeros((c, c))
    # rem[k:, k:] is the covariance of rows k.. left after the opened columns
    rem = r.copy()
    pivots: list[int] = []
    k = 0
    while True:
        opens = np.flatnonzero(np.diag(rem)[k:] > _RANK_TOL)
        if not len(opens):
            break
        k += opens[0]
        col = rem[k:, k] / np.sqrt(rem[k, k])
        low[k:, len(pivots)] = col
        rem[k:, k:] -= np.outer(col, col)
        pivots.append(k)
        k += 1
    rank = len(pivots)
    low = low[:, :rank]
    stage = np.empty(c, dtype=int)
    stage[pivots] = np.arange(rank)
    dependent = np.setdiff1d(np.arange(c), pivots)
    loaded = np.abs(low[dependent]) > _LOAD_TOL
    stage[dependent] = rank - 1 - np.argmax(loaded[:, ::-1], axis=1)
    low[dependent] *= np.arange(rank) <= stage[dependent, None]
    order = np.argsort(stage, kind="stable")
    return low[order], stage[order], order


def _reorder(lower, upper, r):
    """Permute variables by ascending univariate interval probability."""
    widths = ndtr(upper) - ndtr(lower)
    order = np.argsort(widths, kind="stable")
    return lower[order], upper[order], r[np.ix_(order, order)]


@functools.lru_cache(maxsize=32)
def _sobol_stack(dim: int, n: int, shifts: int, seed: int) -> np.ndarray:
    """(shifts, n, dim) stack of independently scrambled Sobol points."""
    out = np.empty((shifts, n, dim))
    for s in range(shifts):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(dim, n, s)))
        eng = qmc.Sobol(d=dim, scramble=True, seed=rng)
        out[s] = eng.random(n)
    out.setflags(write=False)
    return out


def _next_pow2(n: int) -> int:
    return 1 << (int(n) - 1).bit_length()


def _conditioned_means(a, b, chol, stage, points):
    """Sequential-conditioning estimate of the rectangle probability.

    `chol` is the c x rank factor and `stage` the rows' stages from
    `_trapezoidal_cholesky`, with `a` and `b` in its row order; `points` has
    shape (shifts, n, rank-1) and the per-shift means are returned.  Stage j
    draws the j-th standard normal within the intersection of the limits of
    every row whose last nonzero loading is in column j.  The shift axis is
    flattened so each stage runs one vectorized pass over every point of
    every shift.
    """
    c, rank = chol.shape
    shifts, n, _ = points.shape
    total = shifts * n
    pts = points.reshape(total, -1)
    starts = np.searchsorted(stage, np.arange(rank + 1))
    load = chol[np.arange(c), stage, None]
    lower = np.where(load > 0.0, a[:, None], b[:, None])
    upper = np.where(load > 0.0, b[:, None], a[:, None])
    y = np.empty((total, rank - 1))
    with np.errstate(invalid="ignore"):
        for j in range(rank):
            rows = slice(starts[j], starts[j + 1])
            if j:
                t = d + pts[:, j - 1] * (e - d)
                np.maximum(t, _PROB_FLOOR, out=t)
                y[:, j - 1] = ndtri(np.minimum(t, _PROB_CEIL, out=t))
                # conditional means stored (rows, points) so the max/min over
                # a stage's rows runs over contiguous arrays
                mu = np.empty((rows.stop - rows.start, total))
                np.matmul(y[:, :j], chol[rows, :j].T, out=mu.T)
            else:
                # stage 0 has the same limits at every point
                mu = np.zeros((rows.stop - rows.start, 1))
            d = ndtr(((lower[rows] - mu) / load[rows]).max(axis=0))
            e = ndtr(((upper[rows] - mu) / load[rows]).min(axis=0))
            step = np.maximum(e - d, 0.0)
            f = step if j == 0 else f * step
    return f.reshape(shifts, n).mean(axis=1)


def _mean_se(means: np.ndarray) -> tuple[float, float]:
    """Estimate and standard error from the per-shift means."""
    return float(means.mean()), float(means.std(ddof=1) / np.sqrt(len(means)))


def _estimate(per_shift_means, stack: np.ndarray, n: int, cfg: QmcConfig, done=None):
    """per_shift_means on the first n points per shift of `stack`, doubled
    (within `stack`, then on a fresh stack beyond it) until `done(n, estimate,
    SE)` holds, by default when 3 standard errors fit in cfg.target_abs_error,
    or the points reach _MAX_DOUBLINGS doublings of cfg.points_per_shift.
    Returns the points, the estimate and its SE."""
    cap = _next_pow2(cfg.points_per_shift) << _MAX_DOUBLINGS
    while True:
        pts = stack[:, :n] if n <= stack.shape[1] else _sobol_stack(stack.shape[2], n, cfg.shifts, cfg.seed)
        value, se = _mean_se(per_shift_means(pts))
        if n >= cap or (done(n, value, se) if done else 3 * se <= cfg.target_abs_error):
            return pts, value, se
        n *= 2


def mvn_rectangle_prob(lower, upper, corr, cfg: QmcConfig = QmcConfig()) -> ProbEstimate:
    """P(lower < Z < upper) for Z ~ N(0, corr), with a QMC standard error.

    Infinite bounds are allowed.  The result is a deterministic function of
    (lower, upper, corr, cfg).
    """
    a = np.asarray(lower, dtype=float).ravel()
    b = np.asarray(upper, dtype=float).ravel()
    r = _prepare_correlation(corr)
    c = len(r)
    if len(a) != c or len(b) != c:
        raise ValueError("bound lengths do not match the correlation dimension")
    if np.any(a >= b):
        raise ValueError("need lower < upper elementwise")

    a, b, r = _reorder(a, b, r)
    chol, stage, order = _trapezoidal_cholesky(r)
    a, b = a[order], b[order]
    if chol.shape[1] == 1:
        # one variable: the rows' intervals intersect exactly, no QMC needed
        value = _conditioned_means(a, b, chol, stage, np.empty((1, 1, 0)))[0]
        return ProbEstimate(float(np.clip(value, 0.0, 1.0)), 0.0)

    n = _next_pow2(cfg.points_per_shift)
    _, value, se = _estimate(lambda pts: _conditioned_means(a, b, chol, stage, pts),
                             _sobol_stack(chol.shape[1] - 1, n, cfg.shifts, cfg.seed), n, cfg)
    return ProbEstimate(float(np.clip(value, 0.0, 1.0)), se)


class _Quantile(NamedTuple):
    """An equicoordinate quantile and the QMC evidence behind it."""

    q: float
    prob: float  # the estimate of P(max_i |Z_i| <= q) on the quantile's own points
    std_error: float  # its QMC standard error
    passes: int  # integrand passes over the full Sobol stack, point doublings included
    prefix_passes: int  # passes of the search over the stack's prefix
    points_per_shift: int
    exceed: np.ndarray  # P(max_i |Z_i| > t) for each t asked for, on the same factor


# The root is accepted when |P(q) - (1 - alpha)| <= target_abs_error / _ROOT_FRACTION.
# On a stack of at least _PREFIX_SHARE * _MIN_PREFIX points per shift a search
# on its first 1/_PREFIX_SHARE (a power-of-two prefix of a scrambled Sobol
# sequence, itself a randomized net) first stops at target_abs_error /
# _PREFIX_ROOT_FRACTION, and the full stack then takes 1-2 secant steps.  A
# smaller stack has no prefix stage: on the harness's 512 points per shift,
# prefixes of 32-128 saved no passes.  _MAX_STEPS is only a safeguard.
_ROOT_FRACTION = 200
_PREFIX_ROOT_FRACTION = 20
_PREFIX_SHARE = 16
_MIN_PREFIX = 256
_MAX_STEPS = 40


def _independence_slope(q: float, p: float) -> float:
    """d Phi^-1(P)/dq at q for P(q) = (2 Phi(q) - 1)^k, the law of k
    independent coordinates, with k fitted so that P(q) = p."""
    width = 2.0 * ndtr(q) - 1.0
    z = ndtri(p)
    return float(np.log(p) / np.log(width) * p * 2.0 * np.exp(0.5 * (z * z - q * q)) / width)


def _secant(prob_at, q: float, p: float, se: float, slope: float,
            lo: float, hi: float, target: float, tol: float):
    """Safeguarded secant on h(q) = Phi^-1(P(q)) - Phi^-1(target) inside [lo, hi].

    Starts from the evaluated point (q, P(q) = p, its SE) with the given first
    slope; prob_at(q) returns (P(q), SE).  It stops when |P(q) - target| <= tol,
    at lo when P(lo) >= target and at hi when P(hi) <= target.  A step that
    leaves the bracket bisects it, except that one reaching an end not yet
    evaluated evaluates that end.  Returns q, P(q), its SE and the last slope.
    """
    z_target = ndtri(target)

    def h(p: float) -> float:
        return float(ndtri(min(max(p, _PROB_FLOOR), _PROB_CEIL)) - z_target)

    q0, h0 = q, h(p)
    # h(b) > 0 once b_known, and h(a) <= 0 once a_known
    a, b, a_known, b_known = (lo, q, False, True) if h0 > 0.0 else (q, hi, True, False)
    steps = 0
    while not (abs(p - target) <= tol or (q == lo and p >= target) or (q == hi and p <= target)):
        if steps == _MAX_STEPS:
            raise QuantileConvergenceError(
                f"quantile search stalled: |P(q)-(1-alpha)| = {abs(p - target):.2e} after "
                f"{_MAX_STEPS} steps, tolerance {tol:.2e}"
            )
        steps += 1
        q = q0 - h0 / slope if slope > 0.0 else b
        if not a < q < b:
            if q <= lo and not a_known:
                q = lo
            elif q >= hi and not b_known:
                q = hi
            else:
                q = 0.5 * (a + b)
        p, se = prob_at(q)
        h1 = h(p)
        if h1 > 0.0:
            b, b_known = q, True
        else:
            a, a_known = q, True
        slope = (h1 - h0) / (q - q0)
        q0, h0 = q, h1
    return q, p, se, slope


def _max_abs_law(corr, alpha: float):
    """lo, the two-sided univariate cutoff, hi, the Bonferroni cutoff, the QMC
    dimension and means_at(q, pts), the per-shift means of
    P(max_i |Z_i| <= q) for Z ~ N(0, corr) on a point stack."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    r = _prepare_correlation(corr)
    c = len(r)
    # the bounds are the same for every row, so the factor's row order does not matter
    chol, stage, _ = _trapezoidal_cholesky(r)

    def means_at(q: float, pts: np.ndarray) -> np.ndarray:
        bound = np.full(c, q)
        return _conditioned_means(-bound, bound, chol, stage, pts)

    lo, hi = float(ndtri(1.0 - alpha / 2.0)), float(ndtri(1.0 - alpha / (2.0 * c)))
    return lo, hi, chol.shape[1] - 1, means_at


def _quantile(corr, alpha: float, cfg: QmcConfig, exceed_at=()) -> _Quantile:
    """Solve P(max_i |Z_i| <= q) = 1 - alpha for Z ~ N(0, corr), with diagnostics.

    The search runs `_secant` inside [lo, hi], lo the two-sided univariate
    cutoff and hi the Bonferroni cutoff, from hi, with a first slope from the
    law of independent coordinates fitted through P(hi).  On a stack of
    cfg.points_per_shift >= _PREFIX_SHARE * _MIN_PREFIX points it first runs on
    the stack's prefix to a loose tolerance, then on the full stack from the
    prefix root with the prefix's last slope.  The point count is sized by
    `_estimate` at 1 SE at the first full-stack q (the prefix root, or hi
    without a prefix stage) and every later trial q reuses those points.

    `exceed` is 1 - P(t) at each t of `exceed_at`, sized by `_estimate` from
    the prefix, or from the quantile's points without a prefix stage.  A value
    within the target of alpha, or that disagrees on (p <= alpha) with t > q,
    is taken on the quantile's points instead; an estimate already on them is
    kept as it is.
    """
    lo, hi, dim, means_at = _max_abs_law(corr, alpha)
    if dim == 0:
        # rank one: every |Z_i| equals |Z_1|, and P(t) needs no QMC points
        probs = [means_at(t, np.empty((1, 1, 0)))[0] for t in exceed_at]
        return _Quantile(lo, 1.0 - alpha, 0.0, 0, 0, 0, 1.0 - np.clip(probs, 0.0, 1.0))
    target = 1.0 - alpha
    n = _next_pow2(cfg.points_per_shift)
    prefix_n = n // _PREFIX_SHARE
    with_prefix = prefix_n >= _MIN_PREFIX
    passes = prefix_passes = 0

    def full_pass(q: float, pts: np.ndarray) -> np.ndarray:
        nonlocal passes
        passes += 1
        return means_at(q, pts)

    q, slope, stack = hi, None, _sobol_stack(dim, n, cfg.shifts, cfg.seed)
    if with_prefix:
        prefix = np.ascontiguousarray(stack[:, :prefix_n])

        def prefix_prob(q: float) -> tuple[float, float]:
            nonlocal prefix_passes
            prefix_passes += 1
            return _mean_se(means_at(q, prefix))

        p, se = prefix_prob(hi)
        q, _, _, slope = _secant(prefix_prob, hi, p, se, _independence_slope(hi, p), lo, hi,
                                 target, cfg.target_abs_error / _PREFIX_ROOT_FRACTION)
    # the point count is chosen from the SE at the first full-stack q
    pts, p, se = _estimate(functools.partial(full_pass, q), stack, n, cfg,
                           done=lambda m, p, se: se <= cfg.target_abs_error)
    if slope is None:
        slope = _independence_slope(hi, p)
    q, p, se, _ = _secant(lambda q: _mean_se(full_pass(q, pts)), q, p, se, slope, lo, hi,
                          target, cfg.target_abs_error / _ROOT_FRACTION)

    def exceed_prob(t: float) -> float:
        means = functools.partial(means_at, t)

        def on_q_points(p: float) -> bool:
            # near alpha, or on the other side of alpha from the decision t > q
            return abs(1.0 - p - alpha) <= cfg.target_abs_error or (1.0 - p <= alpha) != (t > q)

        used, t_p, _ = _estimate(means, pts, prefix_n if with_prefix else pts.shape[1], cfg,
                                 done=lambda m, p, se: 3 * se <= cfg.target_abs_error
                                 or (m == pts.shape[1] and on_q_points(p)))
        if on_q_points(t_p) and used.shape[1] != pts.shape[1]:
            return _mean_se(means(pts))[0]
        return t_p

    probs = [exceed_prob(t) for t in exceed_at]
    return _Quantile(q, p, se, passes, prefix_passes, pts.shape[1], 1.0 - np.clip(probs, 0.0, 1.0))


def equicoordinate_quantile(corr, alpha: float, cfg: QmcConfig = QmcConfig(), p_values_at=None):
    """Solve P(max_i |Z_i| <= q) = 1 - alpha for Z ~ N(0, corr).

    q lies between the two-sided univariate cutoff and the Bonferroni cutoff.
    A safeguarded secant on Phi^-1(P(q)) - Phi^-1(1 - alpha), on one QMC point
    set reused for every trial q, stops when the estimate of P(q) is within
    cfg.target_abs_error / 200 of 1 - alpha, and raises
    QuantileConvergenceError if it cannot get there.  cfg.points_per_shift is
    the full stack; from 4096 points the search first runs on its first 1/16
    to cfg.target_abs_error / 20, and the full stack continues from there.

    Given statistics `p_values_at`, returns (q, p), p_i = P(max_j |Z_j| > |t_i|).
    p_i starts on the prefix (on the points that gave q without a prefix
    stage) and is accepted when 3 standard errors fit in cfg.target_abs_error.
    A p_i within the target of alpha, or whose side of alpha disagrees with
    |t_i| > q, is estimated on the points that gave q; on those points
    p_i <= alpha exactly where P(|t_i|) >= 1 - alpha.
    """
    res = _quantile(corr, alpha, cfg, () if p_values_at is None else np.abs(p_values_at))
    return res.q if p_values_at is None else (res.q, res.exceed)


# a P(|t_i|) starts on _FIRST_PREFIX points per shift; _SIDE_SES SEs settle its side
_FIRST_PREFIX = 64
_SIDE_SES = 4


def equicoordinate_rejects(corr, t, alpha: float, cfg: QmcConfig = QmcConfig()) -> np.ndarray:
    """The single-step max-T decisions |t_i| > q, q the 1 - alpha quantile of
    max_j |Z_j| for Z ~ N(0, corr), with no search for q.

    |t_i| > q iff P(|t_i|) = P(max_j |Z_j| <= |t_i|) > 1 - alpha (Hothorn,
    Bretz & Westfall 2008).  A |t_i| at most the univariate cutoff is
    accepted, one above the Bonferroni cutoff rejected, and at rank one the
    univariate cutoff is q.  The others are taken largest first: P is
    estimated on a 64-point prefix per shift of the cfg stack, doubled by
    `_estimate` until 4 SEs separate it from 1 - alpha, 1 SE fits in
    cfg.target_abs_error on at least the whole stack, or the cap is reached.
    The first estimate at most 1 - alpha accepts that statistic and every
    smaller one.  Contract, checked at QmcConfig() against fine references:
    where the true P(|t_i|) is at least 2 * cfg.target_abs_error from
    1 - alpha, no decision is wrong.
    """
    lo, hi, dim, means_at = _max_abs_law(corr, alpha)
    abs_t = np.abs(np.asarray(t, dtype=float)).ravel()
    if len(abs_t) != len(np.asarray(corr)):
        raise ValueError("statistics and correlation dimension differ")
    n = _next_pow2(cfg.points_per_shift)

    def settled(m: int, p: float, se: float) -> bool:
        return abs(p - 1.0 + alpha) > _SIDE_SES * se or (m >= n and se <= cfg.target_abs_error)

    for x in np.unique(abs_t[(abs_t > lo) & (abs_t <= hi)])[::-1] if dim else ():
        _, p, _ = _estimate(functools.partial(means_at, x), _sobol_stack(dim, n, cfg.shifts, cfg.seed),
                            min(_FIRST_PREFIX, n), cfg, done=settled)
        if p <= 1.0 - alpha:
            return abs_t > x
    return abs_t > lo


@functools.lru_cache(maxsize=64)
def studentized_range_quantile(k: int, alpha: float) -> float:
    """Infinite-degrees-of-freedom studentized range quantile q_{k;alpha}:
    scipy.stats.studentized_range, exact sqrt(2) z_{alpha/2} at k = 2."""
    if k < 2:
        raise ValueError("need k >= 2 groups")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if k == 2:
        return np.sqrt(2.0) * float(ndtri(1.0 - alpha / 2.0))
    return float(studentized_range.ppf(1.0 - alpha, k, np.inf))
