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
doubles the point count per shift (Genz & Bretz 2009, Ch. 4), integrating
only the new points while they lie within the stack.  Variables are
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
target_abs_error / 200 of 1 - alpha.  It runs in two stages: first on the
stack's first 1/16 points per shift (a power-of-two prefix of a scrambled
Sobol sequence is itself a randomized net) to target_abs_error / 20, then
on the full stack from that root; the point count is sized there at 1
standard error.  The max-T adjusted p-values P(max_j |Z_j| > |t_i|) need no
q: `equicoordinate_p_values` starts each on the same prefix and follows the
3-SE rule, but one within the target of alpha stops as the decisions do, one
whose union bounds (below) lie within the target of each other is their
midpoint, with no QMC pass, and a statistic of 0 has p = 1 exactly.
All estimates are deterministic functions of the configured seed.

A single-step max-T test rejects |t_i| exactly when P(|t_i|) > 1 - alpha
(Hothorn, Bretz & Westfall 2008), so `equicoordinate_rejects`, the one mnq
decision rule, runs no search: it takes each statistic between the
univariate and Bonferroni cutoffs, largest first.  Closed-form bounds on
1 - P from the union's single and pairwise terms (`_UnionBounds`: Dawson &
Sankoff 1967 below, Hunter 1976 above; the pairs by Owen's T) settle its
side first when they clear alpha, exactly and with no factor or QMC point.
Otherwise P is taken
from a 64-point prefix per shift, doubled until 4 standard errors settle
the side of 1 - alpha (or 1 SE fits in the target on at least the whole
stack).  Its contract: where the true P is at least twice
the target from 1 - alpha, no decision is wrong.

The scrambled Sobol points are scipy.stats.qmc.Sobol's, bit for bit, built
in numpy (`_sobol_stack`), so a process that integrates never loads
scipy.stats.  Tukey's cutoff, scipy.stats.studentized_range at infinite
degrees of freedom, is the only user of scipy.stats and imports it on first
use; the normal and chi-square cutoffs are scipy.special's, at the caller.
"""

from __future__ import annotations

import functools
import numbers
import os
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np
import scipy
from scipy.special import ndtr, ndtri, owens_t

__all__ = [
    "QmcConfig",
    "ProbEstimate",
    "mvn_rectangle_prob",
    "equicoordinate_quantile",
    "equicoordinate_rejects",
    "equicoordinate_p_values",
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

    `points_per_shift`, rounded up to a power of two on construction, is the
    starting Sobol stack per shift; the quantile search and
    `equicoordinate_p_values`, which reads no cutoff, start on its first
    1/16.  A rectangle probability or a p-value is accepted when 3 standard
    errors fit in `target_abs_error`, the quantile's points at 1 SE, and an
    mnq decision (from 64 points) once 4 SEs settle its side; near the
    level, decisions and p-values alike stop at 1 SE on at least the whole
    stack.  A miss doubles the stack, up to 64 times.  The simulations and
    `clmc test` run at the defaults.
    """

    points_per_shift: int = 4096
    shifts: int = 12
    seed: int = 20240801
    target_abs_error: float = 5e-4

    def __post_init__(self):
        for name in ("points_per_shift", "shifts", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)}")
        if self.points_per_shift < 16:
            raise ValueError("points_per_shift must be at least 16")
        if self.shifts < 3:
            raise ValueError("need at least 3 shifts for an error estimate")
        if not isinstance(self.target_abs_error, numbers.Real):
            raise ValueError(f"target_abs_error must be a real number, got {self.target_abs_error}")
        object.__setattr__(self, "target_abs_error", float(self.target_abs_error))
        if not 0.0 < self.target_abs_error < np.inf:
            raise ValueError(f"target_abs_error must be positive and finite, got {self.target_abs_error}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        object.__setattr__(self, "points_per_shift", 1 << (int(self.points_per_shift) - 1).bit_length())


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
    The check is a Cholesky factorization of r + 1e-10 I; the eigenvalues are
    computed only when it fails, to refuse r or to accept it at the boundary.
    """
    r = np.asarray(corr, dtype=float)
    if r.ndim != 2 or r.shape[0] != r.shape[1]:
        raise ValueError("correlation matrix must be square")
    if not len(r):
        raise ValueError("correlation matrix must not be empty")
    if not np.isfinite(r).all():
        raise ValueError("correlation matrix must be finite")
    if np.max(np.abs(r - r.T)) > 1e-8:
        raise ValueError("correlation matrix must be symmetric")
    if np.max(np.abs(np.diag(r) - 1.0)) > 1e-8:
        raise ValueError("correlation matrix must have unit diagonal")
    r = 0.5 * (r + r.T)
    try:
        np.linalg.cholesky(r + 1e-10 * np.eye(len(r)))
    except np.linalg.LinAlgError:
        w = np.linalg.eigvalsh(r)
        if w[0] < -1e-10:
            raise ValueError(f"matrix is not positive semidefinite (min eigenvalue {w[0]:.3e})") from None
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


@functools.cache
def _sobol_table() -> tuple[np.ndarray, np.ndarray]:
    """Joe & Kuo's (2008) primitive polynomials and initial direction numbers,
    from the table scipy ships, read without importing scipy.stats (which
    takes about as long as the rest of `import clmc`)."""
    with np.load(os.path.join(scipy.__path__[0], "stats", "_sobol_direction_numbers.npz")) as table:
        return table["poly"], table["vinit"]


@functools.lru_cache(maxsize=32)
def _sobol_stack(dim: int, n: int, shifts: int, seed: int) -> np.ndarray:
    """(shifts, n, dim) stack of independently scrambled Sobol points.

    Shift s is bit for bit scipy.stats.qmc.Sobol(dim, scramble=True) seeded
    with default_rng(SeedSequence(seed, spawn_key=(dim, n, s))), built here in
    numpy so that no integrating process imports scipy.stats: the Joe & Kuo
    (2008) direction numbers that scipy ships, extended to 30 bits by the
    Bratley & Fox (1988) recurrence; the linear matrix scramble plus digital
    shift (LMS + shift) drawn, as scipy does, from the child generator it
    spawns; and the points in Gray-code order, filled by block doubling.
    """
    bits = 30  # scipy's default
    poly, vinit = _sobol_table()
    if dim > len(poly):
        raise ValueError(f"Maximum supported dimensionality is {len(poly)}")
    poly, vinit = poly[:dim], vinit[:dim]
    # direction numbers: column j of row d from its primitive polynomial of
    # degree deg, v_j = v_{j-deg} ^ XOR_k a_k 2^k v_{j-k}, a_k its bit deg-k
    deg = np.frexp(poly)[1] - 1
    k = np.arange(1, vinit.shape[1] + 1)
    coef = (poly[:, None] >> np.maximum(deg[:, None] - k, 0)) & (k <= deg[:, None])
    v = np.zeros((dim, bits), np.int64)
    v[:, :vinit.shape[1]] = vinit
    v[:1] = 1
    rows = np.arange(dim)
    for j in range(1, bits):
        kj = k[:j]
        new = v[rows, j - deg] ^ np.bitwise_xor.reduce((v[:, j - kj] << kj) * coef[:, :j], axis=1)
        v[:, j] = np.where(j >= deg, new, v[:, j])
    order = np.arange(bits)
    msb = bits - 1 - order
    digits = (v << msb)[:, :, None] >> msb & 1  # digit i of v_j, most significant first

    out = np.empty((shifts, n, dim))
    pts = np.empty((n, dim), np.uint32)
    for s in range(shifts):
        # scipy draws from the first child of the generator it is passed
        rng = np.random.Generator(np.random.PCG64(np.random.SeedSequence(seed, spawn_key=(dim, n, s, 0))))
        pts[0] = rng.integers(0, 2, (dim, bits), np.uint32) @ (1 << order)
        ltm = np.tril(rng.integers(0, 2, (dim, bits, bits), np.uint32))
        ltm[:, order, order] = 1
        # scrambled v_j = L v_j over GF(2): the XOR of the columns of L at v_j's digits
        cols = (ltm << msb[:, None]).sum(axis=1)
        sv = np.bitwise_xor.reduce(digits * cols[:, None, :], axis=2).astype(np.uint32)
        # Gray-code order: point 2^i + j is point 2^i - 1 - j with direction i flipped
        for i in range((n - 1).bit_length()):
            h = 1 << i
            m = min(h, n - h)
            np.bitwise_xor(pts[h - 1::-1][:m], sv[:, i], out=pts[h:h + m])
        np.multiply(pts, 2.0 ** -bits, out=out[s])
    out.setflags(write=False)
    return out


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
    Within `stack` a doubling integrates only its new points and averages
    their per-shift means with those of the points before them; a fresh
    stack, whose points differ, is integrated whole.
    Returns the points, the estimate and its SE."""
    cap = cfg.points_per_shift << _MAX_DOUBLINGS
    means, have = 0.0, 0
    while True:
        if n <= stack.shape[1]:
            pts = stack[:, :n]
            means = (have * means + (n - have) * per_shift_means(stack[:, have:n])) / n
            have = n
        else:
            pts = _sobol_stack(stack.shape[2], n, cfg.shifts, cfg.seed)
            means = per_shift_means(pts)
        value, se = _mean_se(means)
        if n >= cap or (done(n, value, se) if done else 3 * se <= cfg.target_abs_error):
            return pts, value, se
        n *= 2


def mvn_rectangle_prob(lower, upper, corr, cfg: QmcConfig = QmcConfig()) -> ProbEstimate:
    """P(lower < Z < upper) for Z ~ N(0, corr), with a QMC standard error.

    Infinite bounds are allowed, NaN bounds are not.  The result is a deterministic function of
    (lower, upper, corr, cfg).
    """
    a = np.asarray(lower, dtype=float).ravel()
    b = np.asarray(upper, dtype=float).ravel()
    r = _prepare_correlation(corr)
    c = len(r)
    if len(a) != c or len(b) != c:
        raise ValueError("bound lengths do not match the correlation dimension")
    for name, bound in (("lower", a), ("upper", b)):
        if np.isnan(bound).any():
            raise ValueError(f"{name} bound {np.flatnonzero(np.isnan(bound))[0]} is nan; bounds must not be NaN")
    if np.any(a >= b):
        raise ValueError("need lower < upper elementwise")

    a, b, r = _reorder(a, b, r)
    chol, stage, order = _trapezoidal_cholesky(r)
    a, b = a[order], b[order]
    if chol.shape[1] == 1:
        # one variable: the rows' intervals intersect exactly, no QMC needed
        value = _conditioned_means(a, b, chol, stage, np.empty((1, 1, 0)))[0]
        return ProbEstimate(float(np.clip(value, 0.0, 1.0)), 0.0)

    n = cfg.points_per_shift
    _, value, se = _estimate(lambda pts: _conditioned_means(a, b, chol, stage, pts),
                             _sobol_stack(chol.shape[1] - 1, n, cfg.shifts, cfg.seed), n, cfg)
    return ProbEstimate(float(np.clip(value, 0.0, 1.0)), se)


class _Quantile(NamedTuple):
    """An equicoordinate quantile and the QMC evidence behind it."""

    q: float
    prob: float  # the estimate of P(max_i |Z_i| <= q) on the quantile's own points
    std_error: float  # its QMC standard error
    points_per_shift: int


# The root is accepted when |P(q) - (1 - alpha)| <= target_abs_error / _ROOT_FRACTION.
# A search on the stack's first 1/_PREFIX_SHARE (a power-of-two prefix of a
# scrambled Sobol sequence, itself a randomized net) first stops at
# target_abs_error / _PREFIX_ROOT_FRACTION, and the full stack then takes 1-2
# secant steps; the adjusted p-values start on the same prefix.  _MAX_STEPS
# is only a safeguard.
_ROOT_FRACTION = 200
_PREFIX_ROOT_FRACTION = 20
_PREFIX_SHARE = 16
_MAX_STEPS = 40


def _independence_slope(q: float, p: float) -> float:
    """d Phi^-1(P)/dq at q for P(q) = (2 Phi(q) - 1)^k, the law of k
    independent coordinates, with k fitted so that P(q) = p; not positive,
    which `_secant` takes as no slope, where p or the width rounds to 1."""
    width = 2.0 * ndtr(q) - 1.0
    z = ndtri(p)
    with np.errstate(divide="ignore", invalid="ignore"):
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


def _abs_statistics(t, c: int) -> np.ndarray:
    """|t_i| of c statistics, flat; one that is not finite is a ValueError naming it."""
    flat = np.asarray(t, dtype=float).ravel()
    bad = np.flatnonzero(~np.isfinite(flat))
    if len(bad):
        raise ValueError(f"statistic {bad[0]} is {flat[bad[0]]}; statistics must be finite")
    if len(flat) != c:
        raise ValueError("statistics and correlation dimension differ")
    return np.abs(flat)


# The union bounds' lower bound rounds each |r_ij| up to the edges
# k / _GRID_CELLS, k = 0..._GRID_CELLS; every edge is exact in binary floating point.
_GRID_CELLS = 64
_GRID_EDGES = np.arange(_GRID_CELLS + 1) / _GRID_CELLS


def _slopes(rho: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The Owen's T slopes of pairs with |r_ij| = rho, a = sqrt((1 - rho) / (1 + rho))
    and then 1/a, and the mask of the tied pairs, rho = 1."""
    a = np.sqrt((1.0 - rho) / (1.0 + rho))
    tied = a == 0.0
    # 1/a is infinite at |r_ij| = 1: such a pair takes T(x, 0) = 0 and adds
    # T(x, inf) = Phi(-x) / 2 itself, so owens_t never sees an infinite slope
    return np.concatenate([a, np.divide(1.0, a, out=np.zeros_like(a), where=~tied)]), tied


def _pair_terms(x: float, tail: float, slopes: np.ndarray, tied: np.ndarray) -> np.ndarray:
    """P(|Z_i| > x, |Z_j| > x) = 4 [Phi(-x) - T(x, a) - T(x, 1/a)] per pair, tail = Phi(-x)."""
    owen = owens_t(x, slopes)
    # far in the tail rounding can leave a pair term, a probability, below 0
    return np.maximum(4.0 * (tail * (1.0 - 0.5 * tied) - owen[: len(tied)] - owen[len(tied):]), 0.0)


def _dawson_sankoff(s1: float, s2: float) -> float:
    """Dawson & Sankoff's (1967) lower bound on a union's probability, at its best k."""
    k = 1.0 + np.floor(2.0 * s2 / s1)
    return 2.0 * s1 / (k + 1.0) - 2.0 * s2 / (k * (k + 1.0))


def _spanning_tree(w: np.ndarray) -> np.ndarray:
    """The weights of the edges of a maximum spanning tree of the complete
    graph with weights w (symmetric), by Prim's algorithm from vertex 0."""
    w = w.copy()
    w[:, 0] = -np.inf  # a column is -inf once its vertex is in the tree
    best = w[0].copy()  # the heaviest edge from each vertex outside the tree into it
    edges = np.empty(len(w) - 1)
    for n in range(len(edges)):
        k = best.argmax()
        edges[n], best[k] = best[k], -np.inf
        w[:, k] = -np.inf
        np.maximum(best, w[k], out=best)
    return edges


class _UnionBounds:
    """Closed-form bounds on E(x) = P(max_i |Z_i| > x), Z ~ N(0, r), x > 0,
    from S1 = sum_i P(|Z_i| > x) and the pair terms
    p_ij = P(|Z_i| > x, |Z_j| > x) = 4 [Phi(-x) - T(x, a) - T(x, 1/a)],
    a = sqrt((1 - |r_ij|) / (1 + |r_ij|)), T Owen's function (Owen 1956).
    p_ij rises with |r_ij| at every x (Sidak 1968).  A call at x returns
    (lower, upper), both exact at c = 2 and at rank one; the mnq decisions
    and p-values read nothing else.

    `lower(x)` is the larger of two bounds.  One is Dawson & Sankoff's
    (1967) on S2 = sum_{i < j} p_ij with every |r_ij| rounded up to the
    grid k / _GRID_CELLS: the bound falls as S2 grows, so it holds, and it
    costs two Owen's T values per grid edge used (at most 130).  The other
    is the union of the least correlated pair, 4 Phi(-x) - p_ij, at two more.

    `upper(x)` is Hunter's (1976), S1 - sum p_ij over the edges of a
    spanning tree of the pairs, here a maximum spanning tree by |r_ij|.
    Since p_ij rises with |r_ij|, that tree is the best at every x, and the
    bound is never looser than Kounias's (1968), the best star.  It costs
    two Owen's T values per tree edge, c - 1 of them; the tree is built on
    the first call.
    """

    def __init__(self, r: np.ndarray):
        self._rho = rho = np.minimum(np.abs(r), 1.0)
        # rho * _GRID_CELLS is exact in binary floating point, so each rho is
        # at most its edge up / _GRID_CELLS.  The unit diagonal is taken out
        # of the last edge, and each pair's two entries count one half each
        up = np.bincount(np.ceil(rho * _GRID_CELLS).astype(np.intp).ravel(), minlength=len(_GRID_EDGES))
        up[-1] -= len(r)
        edges = np.flatnonzero(up)
        self._n_up = 0.5 * up[edges]
        # the last slopes are the least correlated pair's (the unit diagonal at c = 1)
        self._grid_slopes = _slopes(np.append(_GRID_EDGES[edges], rho.min()))

    @functools.cached_property
    def _tree_slopes(self) -> tuple[np.ndarray, np.ndarray]:
        return _slopes(_spanning_tree(self._rho))

    def lower(self, x: float) -> float:
        tail = float(ndtr(-x))
        if tail == 0.0:
            return 0.0  # E(x) rounds to 0, and so does every bound
        terms = _pair_terms(x, tail, *self._grid_slopes)
        return max(_dawson_sankoff(2.0 * tail * len(self._rho), float(self._n_up @ terms[:-1])),
                   4.0 * tail - terms[-1])

    def upper(self, x: float) -> float:
        tail = float(ndtr(-x))
        return 2.0 * tail * len(self._rho) - float(_pair_terms(x, tail, *self._tree_slopes).sum())

    def __call__(self, x: float) -> tuple[float, float]:
        lower = self.lower(x)
        # where the two bounds are equal, as with two distinct statistics or
        # far in the tail, rounding can leave the upper one an ulp below
        return lower, max(self.upper(x), lower)


class _PreparedV:
    """A correlation matrix validated once, with its union bounds and its
    factor each built on first use.  The mnq functions take one in place of
    corr, so that `inference.adjust("mnq")` validates V once, and factors and
    bounds it at most once, for its decisions, cutoff and p-values."""

    def __init__(self, corr):
        self.r = _prepare_correlation(corr)

    @functools.cached_property
    def bounds(self) -> _UnionBounds:
        return _UnionBounds(self.r)

    @functools.cached_property
    def _factor(self) -> tuple[np.ndarray, np.ndarray]:
        # the bounds are the same for every row, so the factor's row order does not matter
        chol, stage, _ = _trapezoidal_cholesky(self.r)
        return chol, stage

    def law(self, cfg: QmcConfig):
        """The cfg Sobol stack, None at rank one, and means_at(q, pts), the
        per-shift means of P(max_i |Z_i| <= q) for Z ~ N(0, r) on a point stack."""
        chol, stage = self._factor
        c = len(self.r)

        def means_at(q: float, pts: np.ndarray) -> np.ndarray:
            bound = np.full(c, q)
            return _conditioned_means(-bound, bound, chol, stage, pts)

        dim = chol.shape[1] - 1
        stack = _sobol_stack(dim, cfg.points_per_shift, cfg.shifts, cfg.seed) if dim else None
        return stack, means_at


def _cutoff_bracket(corr, alpha: float) -> tuple[_PreparedV, float, float]:
    """corr prepared (a `_PreparedV` as it is), lo, the two-sided univariate
    cutoff, and hi, the Bonferroni cutoff, of max_i |Z_i| for Z ~ N(0, corr)."""
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    v = corr if isinstance(corr, _PreparedV) else _PreparedV(corr)
    # upper-tail cutoffs are -Phi^-1(tail): Phi^-1(1 - tail) loses a small tail to rounding
    return v, float(-ndtri(alpha / 2.0)), float(-ndtri(alpha / (2.0 * len(v.r))))


def _quantile(corr, alpha: float, cfg: QmcConfig) -> _Quantile:
    """Solve P(max_i |Z_i| <= q) = 1 - alpha for Z ~ N(0, corr), with diagnostics.

    The search runs `_secant` inside [lo, hi], lo the two-sided univariate
    cutoff and hi the Bonferroni cutoff, from hi, with a first slope from the
    law of independent coordinates fitted through P(hi).  It first runs on the
    stack's prefix to a loose tolerance, then on the full stack from the
    prefix root with the prefix's last slope.  The point count is sized by
    `_estimate` at 1 SE at the prefix root and every later trial q reuses
    those points.  An alpha so small that 1 - alpha rounds to 1 is refused.
    """
    v, lo, hi = _cutoff_bracket(corr, alpha)
    stack, means_at = v.law(cfg)
    if stack is None:
        # rank one: every |Z_i| equals |Z_1|, so the univariate cutoff is exact
        return _Quantile(lo, 1.0 - alpha, 0.0, 0)
    target, n = 1.0 - alpha, stack.shape[1]
    if target == 1.0:
        raise ValueError(f"alpha {alpha:g} is too small for the mnq cutoff search: 1 - alpha rounds to 1")
    prefix = np.ascontiguousarray(stack[:, :n // _PREFIX_SHARE])

    def prefix_prob(q: float) -> tuple[float, float]:
        return _mean_se(means_at(q, prefix))

    p, se = prefix_prob(hi)
    q, _, _, slope = _secant(prefix_prob, hi, p, se, _independence_slope(hi, p), lo, hi,
                             target, cfg.target_abs_error / _PREFIX_ROOT_FRACTION)
    # the point count is chosen from the SE at the prefix root
    pts, p, se = _estimate(functools.partial(means_at, q), stack, n, cfg,
                           done=lambda m, p, se: se <= cfg.target_abs_error)
    q, p, se, _ = _secant(lambda q: _mean_se(means_at(q, pts)), q, p, se, slope, lo, hi,
                          target, cfg.target_abs_error / _ROOT_FRACTION)
    return _Quantile(q, p, se, pts.shape[1])


def equicoordinate_quantile(corr, alpha: float, cfg: QmcConfig = QmcConfig()) -> float:
    """Solve P(max_i |Z_i| <= q) = 1 - alpha for Z ~ N(0, corr).

    q lies between the two-sided univariate cutoff and the Bonferroni cutoff.
    A safeguarded secant on Phi^-1(P(q)) - Phi^-1(1 - alpha), on one QMC point
    set reused for every trial q, stops when the estimate of P(q) is within
    cfg.target_abs_error / 200 of 1 - alpha, and raises
    QuantileConvergenceError if it cannot get there.  cfg.points_per_shift is
    the full stack; the search first runs on its first 1/16 to
    cfg.target_abs_error / 20, and the full stack continues from there.
    Contract, checked at QmcConfig() against fine references on 12
    factor-model V: the true P(max_i |Z_i| <= q) is within
    cfg.target_abs_error of 1 - alpha.  The mnq decisions and p-values need no q.
    """
    return _quantile(corr, alpha, cfg).q


def equicoordinate_p_values(corr, t, alpha: float, cfg: QmcConfig = QmcConfig()) -> np.ndarray:
    """Single-step max-T adjusted p-values P(max_j |Z_j| > |t_i|) for
    Z ~ N(0, corr), read off no cutoff.  Exact at rank one; otherwise each
    is estimated by `_estimate` on the cfg stack from its first 1/16 and
    accepted when 3 SEs fit in cfg.target_abs_error, a bound on its true
    error, or, within the target of alpha, at 1 SE on at least the whole
    stack, as the decisions stop.

    Where |t_i| is above the two-sided univariate cutoff, the union bounds
    of `_UnionBounds` at |t_i| bracket the p-value.  Where they are at most
    cfg.target_abs_error apart, the p-value is their midpoint, off by at
    most half their gap, and no QMC pass runs; otherwise the estimate is
    clipped into them, since far in the tail its absolute QMC error can pass
    the value itself.  The smaller |t_i|, whose p-values are at least
    alpha, skip the bounds.
    Each distinct |t_i| is evaluated once, and a statistic of 0 has p = 1
    exactly, with no QMC pass."""
    v, lo, _ = _cutoff_bracket(corr, alpha)
    abs_t = _abs_statistics(t, len(v.r))
    stack, means_at = v.law(cfg)
    if stack is None:
        # rank one: every |Z_i| equals |Z_1|, and P(t) needs no QMC points
        return 1.0 - np.clip([means_at(x, np.empty((1, 1, 0)))[0] for x in abs_t], 0.0, 1.0)
    target, n = 1.0 - alpha, stack.shape[1]

    def done(m: int, p: float, se: float) -> bool:
        # 3 SEs in the target; near 1 - alpha, the decisions' stop: 1 SE on at least the whole stack
        if abs(p - target) <= cfg.target_abs_error:
            return m >= n and se <= cfg.target_abs_error
        return 3 * se <= cfg.target_abs_error

    def estimate(x: float) -> float:
        prob = _estimate(functools.partial(means_at, x), stack, n // _PREFIX_SHARE, cfg, done=done)[1]
        return 1.0 - min(max(prob, 0.0), 1.0)

    def p_value(x: float) -> float:
        if x == 0.0:
            return 1.0  # P(max_j |Z_j| <= 0) = 0
        if x <= lo:
            return estimate(x)
        lower, upper = v.bounds(x)
        if upper - lower <= cfg.target_abs_error:
            return 0.5 * (lower + upper)
        return float(np.clip(estimate(x), lower, upper))

    distinct, inverse = np.unique(abs_t, return_inverse=True)
    return np.array([p_value(x) for x in distinct])[inverse]


# a P(|t_i|) starts on _FIRST_PREFIX points per shift; _SIDE_SES SEs settle its side
_FIRST_PREFIX = 64
_SIDE_SES = 4
# a closed-form bound settles a side when it clears alpha by this relative margin
_BOUND_MARGIN = 1e-9


def equicoordinate_rejects(corr, t, alpha: float, cfg: QmcConfig = QmcConfig()) -> np.ndarray:
    """The single-step max-T decisions |t_i| > q, q the 1 - alpha quantile of
    max_j |Z_j| for Z ~ N(0, corr), with no search for q.

    |t_i| > q iff P(|t_i|) = P(max_j |Z_j| <= |t_i|) > 1 - alpha (Hothorn,
    Bretz & Westfall 2008).  A |t_i| at most the univariate cutoff is
    accepted, one above the Bonferroni cutoff rejected.  The others are taken
    largest first.  The closed-form bounds on 1 - P(|t_i|) of `_UnionBounds`
    settle a side first: a lower bound above alpha accepts, an upper bound
    below alpha rejects.  Such a decision is exact, and needs neither the
    factor of corr nor any QMC point.
    Otherwise, at rank one the univariate cutoff is q, and P is estimated on
    a 64-point prefix per shift of the cfg stack, doubled by `_estimate`
    until 4 SEs separate it from 1 - alpha, 1 SE fits in
    cfg.target_abs_error on at least the whole stack, or the cap is reached.
    The first statistic found at most 1 - alpha accepts that statistic and
    every smaller one.  Contract,
    checked at QmcConfig() against fine references: where the true P(|t_i|)
    is at least 2 * cfg.target_abs_error from 1 - alpha, no decision is
    wrong.
    """
    v, lo, hi = _cutoff_bracket(corr, alpha)
    abs_t = _abs_statistics(t, len(v.r))
    between = np.unique(abs_t[(abs_t > lo) & (abs_t <= hi)])[::-1]

    def settled(m: int, p: float, se: float) -> bool:
        # `stack` is the law's, built before the first QMC pass
        return abs(p - 1.0 + alpha) > _SIDE_SES * se or (m >= stack.shape[1] and se <= cfg.target_abs_error)

    accept_above, reject_below = alpha * (1.0 + _BOUND_MARGIN), alpha * (1.0 - _BOUND_MARGIN)
    for x in between:
        if v.bounds.lower(x) > accept_above:
            return abs_t > x
        if v.bounds.upper(x) < reject_below:
            continue
        stack, means_at = v.law(cfg)
        if stack is None:
            return abs_t > lo
        _, p, _ = _estimate(functools.partial(means_at, x), stack, min(_FIRST_PREFIX, stack.shape[1]), cfg,
                            done=settled)
        if p <= 1.0 - alpha:
            return abs_t > x
    return abs_t > lo


@functools.lru_cache(maxsize=64)
def studentized_range_quantile(k: int, alpha: float) -> float:
    """Infinite-degrees-of-freedom studentized range quantile q_{k;alpha}:
    scipy.stats.studentized_range, exact sqrt(2) z_{alpha/2} at k = 2."""
    if not isinstance(k, numbers.Integral):
        raise ValueError(f"k must be an integer, got {k}")
    if k < 2:
        raise ValueError("need k >= 2 groups")
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if k == 2:
        return np.sqrt(2.0) * float(-ndtri(alpha / 2.0))
    from scipy.stats import studentized_range  # slow to import: only Tukey's cutoff loads it

    return float(studentized_range.ppf(1.0 - alpha, k, np.inf))
