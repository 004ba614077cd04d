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
error, and the point count per shift is doubled until the requested absolute
error is met.  Variables are pre-ordered by ascending univariate interval
probability, which reduces the variance of the conditioned integrand.
R is validated, never repaired: the semidefinite Cholesky's rank tolerance
absorbs the negative eigenvalue noise of an estimated singular R.

The equicoordinate quantile solves P(max_i |Z_i| <= q) = 1 - alpha with a
safeguarded secant on Phi^-1(P(q)) - Phi^-1(1 - alpha), on one fixed Sobol
stack so the estimate is a smooth function of q.  The root lies between the
naive two-sided normal cutoff (a lower bound) and the Bonferroni cutoff (an
upper bound, by the union bound; Sidak 1967, JASA 62:626); the search starts
at the Bonferroni end and stops when the estimate is within
target_abs_error / 200 of 1 - alpha.  All estimates are deterministic
functions of the configured seed.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
from scipy import integrate, optimize
from scipy.special import chdtri, ndtr, ndtri
from scipy.stats import qmc

__all__ = [
    "QmcConfig",
    "ProbEstimate",
    "std_normal_cdf",
    "std_normal_quantile",
    "mvn_rectangle_prob",
    "equicoordinate_quantile",
    "chi_square_quantile",
    "studentized_range_quantile",
    "QuantileConvergenceError",
]

_PROB_FLOOR = 1e-300
_PROB_CEIL = float(np.nextafter(1.0, 0.0))


class QuantileConvergenceError(RuntimeError):
    """Raised when a quantile search cannot reach its probability tolerance."""


@dataclass(frozen=True)
class QmcConfig:
    """Settings for the randomized quasi-Monte Carlo integrator."""

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


@dataclass(frozen=True)
class ProbEstimate:
    value: float
    std_error: float

    def __post_init__(self):
        if not 0.0 <= self.value <= 1.0:
            raise ValueError(f"probability {self.value} outside [0,1]")
        if not np.isfinite(self.std_error) or self.std_error < 0:
            raise ValueError("std_error must be finite and nonnegative")


def std_normal_cdf(z):
    """Standard normal CDF; tail-safe down to |z| ~ 37 (never exactly 0)."""
    return ndtr(z)


def std_normal_quantile(p):
    """Inverse standard normal CDF for 0 < p < 1."""
    p_arr = np.asarray(p, dtype=float)
    if np.any(p_arr <= 0.0) or np.any(p_arr >= 1.0):
        raise ValueError("quantile requires 0 < p < 1")
    out = ndtri(p_arr)
    return float(out) if np.isscalar(p) or p_arr.ndim == 0 else out


def chi_square_quantile(df: int, p: float) -> float:
    """Inverse chi-square CDF with df degrees of freedom."""
    if df < 1:
        raise ValueError("df must be >= 1")
    if not 0.0 < p < 1.0:
        raise ValueError("quantile requires 0 < p < 1")
    return float(chdtri(df, 1.0 - p))


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


def _doubled_points(dim: int, cfg: QmcConfig, per_shift_means) -> tuple[np.ndarray, float, float]:
    """The Sobol stack, doubled from cfg.points_per_shift at most
    _MAX_DOUBLINGS times until the standard error of per_shift_means(points)
    meets cfg.target_abs_error; returns the points, the estimate and its SE."""
    n = _next_pow2(cfg.points_per_shift)
    for level in range(_MAX_DOUBLINGS + 1):
        pts = _sobol_stack(dim, n << level, cfg.shifts, cfg.seed)
        value, se = _mean_se(per_shift_means(pts))
        if se <= cfg.target_abs_error:
            break
    return pts, value, se


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

    _, value, se = _doubled_points(
        chol.shape[1] - 1, cfg, lambda pts: _conditioned_means(a, b, chol, stage, pts)
    )
    return ProbEstimate(float(np.clip(value, 0.0, 1.0)), se)


class _Quantile(NamedTuple):
    """An equicoordinate quantile and the QMC evidence behind it."""

    q: float
    prob: float  # the estimate of P(max_i |Z_i| <= q) on the quantile's own points
    std_error: float  # its QMC standard error
    passes: int  # integrand passes over the Sobol stack, point doublings included
    points_per_shift: int
    exceed: np.ndarray  # P(max_i |Z_i| > t) for each t asked for, on the same points


# the root is accepted when |P(q) - (1 - alpha)| <= target_abs_error / _ROOT_FRACTION;
# the secant reaches that in 2-4 passes, so _MAX_STEPS is only a safeguard
_ROOT_FRACTION = 200
_MAX_STEPS = 40


def _quantile(corr, alpha: float, cfg: QmcConfig, exceed_at=()) -> _Quantile:
    """Solve P(max_i |Z_i| <= q) = 1 - alpha for Z ~ N(0, corr), with diagnostics.

    The point count is chosen from the SE at the Bonferroni cutoff `hi`, and
    every trial q reuses those points.  From `hi` a secant on
    h(q) = Phi^-1(P(q)) - Phi^-1(1 - alpha) runs inside the bracket
    [lo, hi], lo the two-sided univariate cutoff.  Its first slope is that of
    independent coordinates, P(q) = (2 Phi(q) - 1)^k, with k fitted so the
    law passes through P(hi).  A step that leaves the bracket bisects it,
    except that one reaching lo evaluates lo itself, which is the cutoff when
    P(lo) >= 1 - alpha.  `exceed` is 1 - P(t) at each t of `exceed_at`, on
    these points where their SE meets cfg.target_abs_error, else on doubled ones.
    """
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    r = _prepare_correlation(corr)
    c = len(r)
    lo = float(ndtri(1.0 - alpha / 2.0))
    hi = float(ndtri(1.0 - alpha / (2.0 * c)))
    # the bounds are the same for every row, so the factor's row order does not matter
    chol, stage, _ = _trapezoidal_cholesky(r)
    dim = chol.shape[1] - 1  # QMC dimensions

    def found(q: float, p: float, se: float, pts: np.ndarray) -> _Quantile:
        probs = []
        for t in exceed_at:
            def means(pts, bound=np.full(c, t)):
                return _conditioned_means(-bound, bound, chol, stage, pts)

            t_p, t_se = _mean_se(means(pts)) if passes else (means(pts)[0], 0.0)
            if t_se > cfg.target_abs_error:
                # the points were sized near P = 1 - alpha; a mid-range P(t) can need more
                t_p = _doubled_points(dim, cfg, means)[1]
            probs.append(t_p)
        n = pts.shape[1] if passes else 0
        return _Quantile(q, p, se, passes, n, 1.0 - np.clip(probs, 0.0, 1.0))

    passes = 0
    if dim == 0:
        # rank one: every |Z_i| equals |Z_1|, and P(t) needs no QMC points
        return found(lo, 1.0 - alpha, 0.0, np.empty((1, 1, 0)))
    target = 1.0 - alpha
    tol = cfg.target_abs_error / _ROOT_FRACTION

    def means_at(q: float, pts: np.ndarray) -> np.ndarray:
        nonlocal passes
        passes += 1
        bound = np.full(c, q)
        return _conditioned_means(-bound, bound, chol, stage, pts)

    z_target = ndtri(target)

    def h(p: float) -> float:
        return float(ndtri(min(max(p, _PROB_FLOOR), _PROB_CEIL)) - z_target)

    pts, p, se = _doubled_points(dim, cfg, lambda pts: means_at(hi, pts))
    if p - target <= tol:
        return found(hi, p, se, pts)
    # the first slope is d Phi^-1(P)/dq at hi for P(q) = (2 Phi(q) - 1)^k, the law
    # of k independent coordinates, with k fitted so that P(hi) = p
    width = 2.0 * ndtr(hi) - 1.0
    z = ndtri(p)
    slope = float(np.log(p) / np.log(width) * p * 2.0 * np.exp(0.5 * (z * z - hi * hi)) / width)
    q0, h0 = hi, h(p)
    a, b, a_known = lo, hi, False  # h(b) > 0, and h(a) < 0 once a_known
    for _ in range(_MAX_STEPS):
        q = q0 - h0 / slope if slope > 0.0 else b
        if not a < q < b:
            q = lo if q <= lo and not a_known else 0.5 * (a + b)
        p, se = _mean_se(means_at(q, pts))
        if abs(p - target) <= tol or (q == lo and p >= target):
            return found(q, p, se, pts)
        h1 = h(p)
        if h1 > 0.0:
            b = q
        else:
            a, a_known = q, True
        slope = (h1 - h0) / (q - q0)
        q0, h0 = q, h1
    raise QuantileConvergenceError(
        f"quantile search stalled: |P(q)-(1-alpha)| = {abs(p - target):.2e} after "
        f"{_MAX_STEPS} steps, tolerance {tol:.2e}"
    )


def equicoordinate_quantile(corr, alpha: float, cfg: QmcConfig = QmcConfig(), p_values_at=None):
    """Solve P(max_i |Z_i| <= q) = 1 - alpha for Z ~ N(0, corr).

    q lies between the two-sided univariate cutoff and the Bonferroni cutoff.
    A safeguarded secant on Phi^-1(P(q)) - Phi^-1(1 - alpha), on one QMC point
    set reused for every trial q, stops when the estimate of P(q) is within
    cfg.target_abs_error / 200 of 1 - alpha, and raises
    QuantileConvergenceError if it cannot get there.

    Given statistics `p_values_at`, returns (q, p), p_i = P(max_j |Z_j| > |t_i|)
    to cfg.target_abs_error; where the points that gave q meet that target, p_i
    is estimated on them, so there p_i <= alpha exactly where P(|t_i|) >= 1 - alpha.
    """
    res = _quantile(corr, alpha, cfg, () if p_values_at is None else np.abs(p_values_at))
    return res.q if p_values_at is None else (res.q, res.exceed)


def _range_cdf(q: float, k: int) -> float:
    """P(range of k iid standard normals <= q)."""
    if q <= 0.0:
        return 0.0

    def integrand(z):
        return np.exp(-0.5 * z * z) / np.sqrt(2.0 * np.pi) * (ndtr(z) - ndtr(z - q)) ** (k - 1)

    val, _ = integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-11, epsrel=1e-11)
    return k * val


@functools.lru_cache(maxsize=64)
def studentized_range_quantile(k: int, alpha: float) -> float:
    """Infinite-degrees-of-freedom studentized range quantile q_{k;alpha}.

    Cached per (k, alpha): each call brackets a root of an adaptive quadrature.
    """
    if k < 2:
        raise ValueError("need k >= 2 groups")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    target = 1.0 - alpha
    lo = np.sqrt(2.0) * float(ndtri(1.0 - alpha / 2.0))
    hi = np.sqrt(2.0) * float(ndtri(1.0 - alpha / (k * (k - 1))))
    if k == 2:
        return lo
    g = lambda q: _range_cdf(q, k) - target
    g_lo, g_hi = g(lo), g(hi)
    if g_lo > 0.0 or g_hi < 0.0:
        raise QuantileConvergenceError("range-quantile bracket failed")
    return float(optimize.brentq(g, lo, hi, xtol=1e-8, rtol=1e-12, maxiter=200))
