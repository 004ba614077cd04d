import itertools
import math
import re

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, linalg
from scipy.special import ndtr, ndtri

from clmc.data import ContrastFamily, build_contrasts
from clmc.inference import adjust
from clmc.mvnprob import (
    _LOAD_TOL,
    _MAX_STEPS,
    _RANK_TOL,
    _ROOT_FRACTION,
    ProbEstimate,
    QmcConfig,
    QuantileConvergenceError,
    _conditioned_means,
    _estimate,
    _mean_se,
    _prepare_correlation,
    _quantile,
    _secant,
    _sobol_stack,
    _sobol_table,
    _trapezoidal_cholesky,
    _UnionBounds,
    equicoordinate_p_values,
    equicoordinate_quantile,
    equicoordinate_rejects,
    mvn_rectangle_prob,
    studentized_range_quantile,
)

FAST = QmcConfig(points_per_shift=1024, shifts=8, target_abs_error=1e-3, seed=7)


# ---------------------------------------------------------------------------
# independent oracles, built on stdlib math only


def phi_oracle(z: float) -> float:
    return 0.5 * (1.0 + math.erf(z / math.sqrt(2.0)))


def phi_inv_oracle(p: float) -> float:
    lo, hi = -40.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if phi_oracle(mid) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def gammainc_lower_oracle(a: float, x: float) -> float:
    """Regularized lower incomplete gamma P(a, x) by series expansion."""
    if x <= 0.0:
        return 0.0
    term = 1.0 / a
    total = term
    k = 0
    while True:
        k += 1
        term *= x / (a + k)
        total += term
        if abs(term) < 1e-17 * abs(total) or k > 10_000:
            break
    return total * math.exp(-x + a * math.log(x) - math.lgamma(a))


def chi2_quantile_oracle(df: int, p: float) -> float:
    lo, hi = 0.0, 1e4
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if gammainc_lower_oracle(df / 2.0, mid / 2.0) < p:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def bvn_rect_oracle(lo1, hi1, lo2, hi2, rho, n=2001):
    """Bivariate rectangle probability by composite-Simpson double integral."""
    xs = np.linspace(lo1, hi1, n)
    ys = np.linspace(lo2, hi2, n)
    det = 1.0 - rho * rho
    xg, yg = np.meshgrid(xs, ys, indexing="ij")
    dens = np.exp(-(xg * xg - 2 * rho * xg * yg + yg * yg) / (2 * det)) / (
        2 * np.pi * math.sqrt(det)
    )
    wx = np.ones(n)
    wx[1:-1:2], wx[2:-1:2] = 4.0, 2.0
    w2 = np.outer(wx, wx)
    hx = (hi1 - lo1) / (n - 1)
    hy = (hi2 - lo2) / (n - 1)
    return float((dens * w2).sum() * hx * hy / 9.0)


def range_cdf_oracle(q: float, k: int, n=40001, span=10.0) -> float:
    """Fine-grid Simpson integration of the normal range CDF."""
    zs = np.linspace(-span, span + q, n)
    pdf = np.exp(-0.5 * zs * zs) / math.sqrt(2 * math.pi)
    cdf_lo = 0.5 * (1.0 + np.vectorize(math.erf)(zs / math.sqrt(2)))
    cdf_hi = 0.5 * (1.0 + np.vectorize(math.erf)((zs - q) / math.sqrt(2)))
    integrand = pdf * (cdf_lo - cdf_hi) ** (k - 1)
    w = np.ones(n)
    w[1:-1:2], w[2:-1:2] = 4.0, 2.0
    h = zs[1] - zs[0]
    return k * float((integrand * w).sum() * h / 3.0)


def row_loop_cholesky(r):
    """The row-by-row semidefinite Cholesky, one triangular solve per row:
    the oracle of `_trapezoidal_cholesky`'s column-by-column form."""
    c = len(r)
    low = np.zeros((c, c))
    stage = np.empty(c, dtype=int)
    pivots = []
    for k in range(c):
        m = len(pivots)
        if m:
            low[k, :m] = linalg.solve_triangular(low[pivots, :m], r[pivots, k], lower=True)
        rem = r[k, k] - low[k, :m] @ low[k, :m]
        if rem > _RANK_TOL:
            low[k, m] = np.sqrt(rem)
            stage[k] = m
            pivots.append(k)
        else:
            stage[k] = np.flatnonzero(np.abs(low[k, :m]) > _LOAD_TOL)[-1]
            low[k, stage[k] + 1 :] = 0.0
    order = np.argsort(stage, kind="stable")
    return low[order, : len(pivots)], stage[order], order


def factor_model_corr(c, strong, rng):
    """cor(A A') for a c x c normal A whose first `strong` columns are scaled by 3."""
    a = rng.standard_normal((c, c))
    a[:, :strong] *= 3.0
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    return s / np.outer(d, d)


def random_correlation(c, rng):
    a = rng.standard_normal((c, c + 2))
    s = a @ a.T
    d = np.sqrt(np.diag(s))
    return s / np.outer(d, d)


# ---------------------------------------------------------------------------


class TestRectangleProb:
    def test_univariate_interval(self):
        est = mvn_rectangle_prob([-1.96], [1.96], [[1.0]], FAST)
        want = phi_oracle(1.96) - phi_oracle(-1.96)
        assert est.value == pytest.approx(want, abs=1e-12)
        assert est.std_error == 0.0

    def test_independent_square(self):
        est = mvn_rectangle_prob([-1.96, -1.96], [1.96, 1.96], np.eye(2), FAST)
        margin = phi_oracle(1.96) - phi_oracle(-1.96)
        assert est.value == pytest.approx(margin**2, abs=2e-3)
        assert est.value == pytest.approx(0.9025, abs=2.5e-3)

    def test_correlated_square_vs_quadrature(self):
        corr = np.array([[1.0, 0.5], [0.5, 1.0]])
        est = mvn_rectangle_prob([-2.0, -2.0], [2.0, 2.0], corr, FAST)
        assert est.value == pytest.approx(bvn_rect_oracle(-2, 2, -2, 2, 0.5), abs=2e-3)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(3)
        corr = random_correlation(4, rng)
        lo = np.array([-1.0, -2.0, -0.5, -3.0])
        hi = np.array([1.5, 0.7, 2.0, 1.0])
        perm = np.array([2, 0, 3, 1])
        a = mvn_rectangle_prob(lo, hi, corr, FAST)
        b = mvn_rectangle_prob(lo[perm], hi[perm], corr[np.ix_(perm, perm)], FAST)
        assert a.value == pytest.approx(b.value, abs=1e-12)

    def test_reproducible_for_fixed_seed(self):
        corr = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.0]])
        a = mvn_rectangle_prob([-1, -1, -1], [2, 2, 2], corr, FAST)
        b = mvn_rectangle_prob([-1, -1, -1], [2, 2, 2], corr, FAST)
        assert a.value == b.value
        assert a.std_error == b.std_error

    def test_infinite_bounds_give_one(self):
        corr = random_correlation(3, np.random.default_rng(11))
        est = mvn_rectangle_prob([-np.inf] * 3, [np.inf] * 3, corr, FAST)
        assert est.value == pytest.approx(1.0, abs=max(3 * est.std_error, 1e-9))

    def test_half_infinite_bounds(self):
        est = mvn_rectangle_prob([-np.inf, -np.inf], [0.0, 0.0], np.eye(2), FAST)
        assert est.value == pytest.approx(0.25, abs=2e-3)

    def test_rejects_bad_matrices(self):
        with pytest.raises(ValueError):
            mvn_rectangle_prob([-1], [1], [[2.0]], FAST)
        with pytest.raises(ValueError):
            mvn_rectangle_prob([-1, -1], [1, 1], [[1.0, 1.3], [1.3, 1.0]], FAST)
        with pytest.raises(ValueError):
            mvn_rectangle_prob([-1, -1, -1], [1, 1, 1], np.eye(2), FAST)
        with pytest.raises(ValueError):
            mvn_rectangle_prob([1.0, -1.0], [1.0, 1.0], np.eye(2), FAST)

    @pytest.mark.parametrize("corr", [
        # a chain: every 2x2 minor is PSD and the second row is dependent on
        # the first, but the third row contradicts it (min eigenvalue -0.414)
        [[1.0, 1.0, 0.0], [1.0, 1.0, 1.0], [0.0, 1.0, 1.0]],
        [[1.0, np.nan, 0.0], [np.nan, 1.0, 0.0], [0.0, 0.0, 1.0]],
        [[1.0, np.inf, 0.0], [np.inf, 1.0, 0.0], [0.0, 0.0, 1.0]],
    ], ids=["chain", "nan", "inf"])
    def test_rejects_non_psd_and_nonfinite(self, corr):
        with pytest.raises(ValueError):
            mvn_rectangle_prob([-1, -1, -1], [1, 1, 1], corr, FAST)
        with pytest.raises(ValueError):
            equicoordinate_quantile(corr, 0.05, FAST)

    @pytest.mark.parametrize("corr, message", [
        (np.ones((2, 3)), "square"),
        ([[1.0, 0.5], [0.2, 1.0]], "symmetric"),
    ], ids=["non-square", "asymmetric"])
    def test_malformed_matrix_is_refused_by_name(self, corr, message):
        with pytest.raises(ValueError, match=f"^correlation matrix must be {message}"):
            equicoordinate_quantile(corr, 0.05, FAST)

    @pytest.mark.parametrize("call", [
        lambda v: mvn_rectangle_prob([], [], v, FAST),
        lambda v: equicoordinate_quantile(v, 0.05, FAST),
        lambda v: equicoordinate_rejects(v, [], 0.05, FAST),
        lambda v: equicoordinate_p_values(v, [], 0.05, FAST),
    ], ids=["rectangle", "quantile", "rejects", "p-values"])
    def test_empty_matrix_is_refused_by_name(self, call):
        # a 0 x 0 matrix once failed inside numpy's maximum of an empty array
        with pytest.raises(ValueError, match="^correlation matrix must not be empty$"):
            call(np.zeros((0, 0)))

    @pytest.mark.parametrize("lower, upper, message", [
        ([-1.0, np.nan, -1.0], [1.0, 1.0, 1.0], "lower bound 1 is nan"),
        ([-1.0, -1.0, -1.0], [1.0, 1.0, np.nan], "upper bound 2 is nan"),
    ], ids=["lower", "upper"])
    def test_nan_bound_is_refused_before_any_pass(self, lower, upper, message, monkeypatch):
        # a NaN bound once doubled its points to the cap, whose SE never met
        # the target, and then failed as an out-of-range probability
        calls = _spy_passes(monkeypatch)
        corr = np.array([[1.0, 0.3, 0.1], [0.3, 1.0, -0.2], [0.1, -0.2, 1.0]])
        with pytest.raises(ValueError, match=f"^{message}; bounds must not be NaN$"):
            mvn_rectangle_prob(lower, upper, corr, FAST)
        assert calls == []

    def test_rejects_nan_diagonal(self):
        # LAPACK can return finite eigenvalues for a NaN diagonal entry
        corr = np.array([[np.nan, 0.0], [0.0, 1.0]])
        with pytest.raises(ValueError, match="must be finite"):
            mvn_rectangle_prob([-1, -1], [1, 1], corr, FAST)

    def test_psd_repair_accepts_estimation_noise(self):
        corr = np.array([[1.0, 0.9999999999], [0.9999999999, 1.0]])
        est = mvn_rectangle_prob([-1.0, -1.0], [1.0, 1.0], corr, FAST)
        margin = phi_oracle(1.0) - phi_oracle(-1.0)
        assert est.value == pytest.approx(margin, abs=5e-3)


class TestEquicoordinateQuantile:
    def test_single_hypothesis_reduces_to_univariate(self):
        q = equicoordinate_quantile(np.eye(1), 0.05, FAST)
        assert q == pytest.approx(1.959964, abs=1e-3)

    @pytest.mark.parametrize("c", [5, 10])
    def test_identity_matches_dunn_sidak(self, c):
        q = equicoordinate_quantile(np.eye(c), 0.05, FAST)
        sidak = phi_inv_oracle(1.0 - (1.0 - 0.95 ** (1.0 / c)) / 2.0)
        assert q == pytest.approx(sidak, abs=1e-3)

    def test_exchangeable_below_identity(self):
        c = 10
        exch = np.full((c, c), 0.5)
        np.fill_diagonal(exch, 1.0)
        q_exch = equicoordinate_quantile(exch, 0.05, FAST)
        q_ind = equicoordinate_quantile(np.eye(c), 0.05, FAST)
        assert q_exch < q_ind

    def test_never_exceeds_bonferroni(self):
        rng = np.random.default_rng(5)
        for _ in range(8):
            c = int(rng.integers(2, 8))
            corr = random_correlation(c, rng)
            q = equicoordinate_quantile(corr, 0.05, FAST)
            bonf = ndtri(1.0 - 0.05 / (2 * c))
            assert q <= bonf + 1e-9

    def test_quantile_inverts_rectangle_probability(self):
        corr = np.array([[1.0, 0.4, 0.2], [0.4, 1.0, 0.4], [0.2, 0.4, 1.0]])
        q = equicoordinate_quantile(corr, 0.10, FAST)
        est = mvn_rectangle_prob([-q] * 3, [q] * 3, corr, FAST)
        assert est.value == pytest.approx(0.90, abs=1e-3 + 3 * est.std_error)

    def test_alpha_domain(self):
        with pytest.raises(ValueError):
            equicoordinate_quantile(np.eye(2), 0.0, FAST)


class TestScheffeCutoff:
    # the Scheffe cut is sqrt of the chi-square quantile at the contrasts' rank;
    # all-pairwise contrasts of p coefficients have rank p - 1
    @staticmethod
    def cut(rank: int, alpha: float) -> float:
        cf = build_contrasts("all_pairwise", rank + 1)
        return adjust("scheffe", np.zeros(cf.c), np.eye(cf.c), alpha, cf, FAST).threshold

    def test_rank1_is_the_two_sided_normal_cutoff(self):
        assert self.cut(1, 0.05) == pytest.approx(phi_inv_oracle(0.975), abs=1e-9)

    def test_rank2_closed_form(self):
        assert self.cut(2, 0.05) ** 2 == pytest.approx(-2.0 * math.log(0.05), rel=1e-10)

    @pytest.mark.parametrize("rank,alpha", [(9, 0.05), (3, 0.5), (17, 0.01)])
    def test_matches_series_oracle(self, rank, alpha):
        assert self.cut(rank, alpha) ** 2 == pytest.approx(
            chi2_quantile_oracle(rank, 1.0 - alpha), rel=1e-8
        )


class TestStudentizedRange:
    def test_k2_closed_form(self):
        q = studentized_range_quantile(2, 0.05)
        assert q == pytest.approx(math.sqrt(2.0) * 1.959964, abs=1e-4)

    def test_k3_vs_grid_oracle(self):
        q = studentized_range_quantile(3, 0.05)
        assert range_cdf_oracle(q, 3) == pytest.approx(0.95, abs=1e-4)

    def test_increasing_in_k(self):
        qs = [studentized_range_quantile(k, 0.05) for k in (2, 3, 4, 6, 9)]
        assert all(a < b for a, b in zip(qs, qs[1:]))

    def test_domain(self):
        with pytest.raises(ValueError):
            studentized_range_quantile(1, 0.05)
        with pytest.raises(ValueError, match=r"^alpha must be in \(0, 1\)"):
            studentized_range_quantile(3, 1.0)

    def test_non_integer_k_is_refused_by_name(self):
        # 2.5 groups once gave 3.088
        with pytest.raises(ValueError, match="^k must be an integer, got 2.5$"):
            studentized_range_quantile(2.5, 0.05)
        assert studentized_range_quantile(np.int64(2), 0.05) == studentized_range_quantile(2, 0.05)

    @pytest.mark.parametrize("k", [20, 30, 40])
    def test_matches_range_law(self, k):
        # 1e-10 is far above the oracle's own error of about 5e-13
        q = studentized_range_quantile(k, 0.05)
        assert abs(range_cdf_oracle(q, k) - 0.95) <= 1e-10

    @pytest.mark.parametrize("k", [3, 10])
    def test_cached_value_is_the_range_quantile(self, k):
        fresh = studentized_range_quantile.__wrapped__(k, 0.05)
        assert studentized_range_quantile(k, 0.05) == fresh
        hits = studentized_range_quantile.cache_info().hits
        assert studentized_range_quantile(k, 0.05) == fresh
        assert studentized_range_quantile.cache_info().hits == hits + 1
        assert range_cdf_oracle(fresh, k) == pytest.approx(0.95, abs=1e-9)


@pytest.mark.parametrize("field, value, message", [
    ("points_per_shift", 8, "points_per_shift must be at least 16"),
    ("shifts", 2, "need at least 3 shifts"),
    ("target_abs_error", 0.0, "target_abs_error must be positive"),
    ("seed", -1, "seed must be nonnegative, got -1"),
    # a NaN target once doubled every estimate to the cap, and a float count
    # raised TypeError inside the first estimate
    ("target_abs_error", np.nan, "target_abs_error must be positive and finite, got nan"),
    ("target_abs_error", np.inf, "target_abs_error must be positive and finite, got inf"),
    ("points_per_shift", 4096.0, "points_per_shift must be an integer, got 4096.0"),
    ("shifts", 12.5, "shifts must be an integer, got 12.5"),
    ("seed", 1.5, "seed must be an integer, got 1.5"),
    # a string once raised a TypeError that named no field
    ("target_abs_error", "5e-4", "target_abs_error must be a real number, got 5e-4"),
])
def test_qmc_config_validation(field, value, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}"):
        QmcConfig(**{field: value})


def test_qmc_config_takes_numpy_integers():
    cfg = QmcConfig(points_per_shift=np.int64(256), shifts=np.int32(4), seed=np.uint32(3))
    est = mvn_rectangle_prob([-2.0, -2.0], [2.0, 2.0], [[1.0, 0.5], [0.5, 1.0]], cfg)
    assert est == mvn_rectangle_prob([-2.0, -2.0], [2.0, 2.0], [[1.0, 0.5], [0.5, 1.0]],
                                     QmcConfig(points_per_shift=256, shifts=4, seed=3))


def test_qmc_config_rounds_points_up_to_a_power_of_two():
    cfg = QmcConfig(points_per_shift=1000)
    assert cfg.points_per_shift == 1024
    v = family_corr("many_to_one", 10)
    same = QmcConfig(points_per_shift=1024)
    assert equicoordinate_quantile(v, 0.05, cfg) == equicoordinate_quantile(v, 0.05, same)


def test_prob_estimate_validation():
    with pytest.raises(ValueError):
        ProbEstimate(1.5, 0.0)
    with pytest.raises(ValueError):
        ProbEstimate(0.5, -1.0)


# ---------------------------------------------------------------------------
# rank-deficient V: exact oracles, edge cases, and the full-rank golden values

# the simulations' QMC settings before they moved to QmcConfig(): a small
# stack, whose search cutoffs GOLDEN records
HARNESS = QmcConfig(points_per_shift=512, shifts=6, target_abs_error=1e-3, seed=90210)
QMC_CONFIGS = {"cli": QmcConfig(), "harness": HARNESS}


def family_corr(kind, p):
    """Exact V = C C' / 2 of a contrast family over p iid unit-variance coefficients."""
    m = build_contrasts(kind, p, baseline=1 if kind == "many_to_one" else None).matrix
    return m @ m.T / 2.0


def dunnett_coverage(q, c, rho):
    """P(max_j |T_j| <= q) for c standard normals with common correlation rho >= 0."""
    s, t = math.sqrt(rho), math.sqrt(1.0 - rho)

    def integrand(z):
        inner = ndtr((q + s * z) / t) - ndtr((-q + s * z) / t)
        return math.exp(-0.5 * z * z) / math.sqrt(2.0 * math.pi) * inner**c

    return integrate.quad(integrand, -np.inf, np.inf, epsabs=1e-12, epsrel=1e-12)[0]


class TestTrapezoidalCholesky:
    def test_all_pairwise_factor_has_rank_p_minus_1(self):
        v = family_corr("all_pairwise", 6)
        chol, stage, order = _trapezoidal_cholesky(v)
        assert chol.shape == (15, 5)
        assert np.max(np.abs(chol @ chol.T - v[np.ix_(order, order)])) < 1e-12
        # rows come grouped by stage, and each loads last on its stage's column
        assert np.all(np.diff(stage) >= 0)
        assert np.all(np.abs(chol[np.arange(15), stage]) > 1e-5)
        assert all(np.all(chol[k, stage[k] + 1 :] == 0.0) for k in range(15))

    def test_full_rank_is_the_plain_cholesky(self):
        v = family_corr("many_to_one", 6)
        chol, stage, order = _trapezoidal_cholesky(v)
        assert np.array_equal(chol, np.linalg.cholesky(v))
        assert np.array_equal(stage, np.arange(5))
        assert np.array_equal(order, np.arange(5))

    @staticmethod
    def assert_matches_row_loop(v, tol):
        chol, stage, order = _trapezoidal_cholesky(v)
        want, want_stage, want_order = row_loop_cholesky(v)
        assert np.array_equal(stage, want_stage)
        assert np.array_equal(order, want_order)
        assert np.max(np.abs(chol - want)) <= tol

    @pytest.mark.parametrize("p", [5, 10, 20])
    def test_all_pairwise_matches_the_row_loop(self, p):
        self.assert_matches_row_loop(family_corr("all_pairwise", p), 1e-12)

    @settings(max_examples=60, deadline=None)
    @given(c=st.integers(2, 12), rank=st.integers(1, 11), seed=st.integers(0, 2**32 - 1))
    @example(c=9, rank=8, seed=22485)  # an ill-conditioned pivot block, see below
    def test_low_rank_matches_the_row_loop(self, c, rank, seed):
        load = np.random.default_rng(seed).standard_normal((c, min(rank, c - 1)))
        cov = load @ load.T
        d = np.sqrt(np.diag(cov))
        v = _prepare_correlation(cov / np.outer(d, d))
        want, want_stage, _ = row_loop_cholesky(v)
        pivot = np.min(np.abs(want[np.arange(c), want_stage]))
        # a pivot p carries rounding of about c eps / p^2, and where this
        # nears _RANK_TOL the rank itself is decided by rounding
        assume(c * np.finfo(float).eps / pivot**2 <= _RANK_TOL / 100)
        # the two forms sum the same terms in another order, and each factor
        # carries that rounding as about c eps / lambda, lambda the least
        # eigenvalue of the pivot rows' block: a chain of pivots that are each
        # well away from 0 can still leave lambda far below their squares
        # (c 9, rank 8, seed 22485: least pivot 0.104, lambda 2.7e-6, both
        # factors 2-3e-12 off the exact one in opposite directions).  lambda
        # is the squared least singular value of those rows of the factor, a
        # triangle with a nonzero diagonal, so it stays positive
        heads = np.flatnonzero(np.r_[True, np.diff(want_stage) > 0])
        lam = np.linalg.svd(want[heads], compute_uv=False)[-1] ** 2
        self.assert_matches_row_loop(v, max(1e-12, 16 * c * np.finfo(float).eps / lam))


class TestRankDeficient:
    @pytest.mark.parametrize("qmc", QMC_CONFIGS.values(), ids=QMC_CONFIGS.keys())
    def test_all_pairwise_cutoff_has_exact_coverage(self, qmc):
        # max |b_i - b_j| / sqrt(2) over 10 iid coefficients is a scaled normal range
        q = equicoordinate_quantile(family_corr("all_pairwise", 10), 0.05, qmc)
        assert range_cdf_oracle(q * math.sqrt(2.0), 10) == pytest.approx(0.95, abs=1e-3)

    def test_eigenvalue_noise_below_zero_is_accepted(self):
        # the exact all-pairwise V of 5 coefficients (rank 4) with one null
        # eigenvalue pushed to -1e-13, as estimation noise leaves it
        w, u = np.linalg.eigh(family_corr("all_pairwise", 5))
        w[0] = -1e-13
        v = (u * w) @ u.T
        v = 0.5 * (v + v.T)
        np.fill_diagonal(v, 1.0)
        assert -1e-10 < np.linalg.eigvalsh(v)[0] < 0.0
        q = equicoordinate_quantile(v, 0.05, FAST)
        assert range_cdf_oracle(q * math.sqrt(2.0), 5) == pytest.approx(0.95, abs=1e-3)

    @staticmethod
    def _with_null_eigenvalue(value):
        """The exact all-pairwise V of 5 coefficients (rank 4) with one null
        eigenvalue moved to `value`, its diagonal left within 1e-8 of 1."""
        w, u = np.linalg.eigh(family_corr("all_pairwise", 5))
        w[0] = value
        v = (u * w) @ u.T
        return 0.5 * (v + v.T)

    def test_eigenvalue_just_above_the_threshold_is_accepted_without_eigenvalues(self, monkeypatch):
        v = self._with_null_eigenvalue(-5e-11)
        assert np.linalg.eigvalsh(v)[0] == pytest.approx(-5e-11, abs=1e-14)

        def never(*args, **kwargs):
            raise AssertionError("computed eigenvalues of an accepted V")

        monkeypatch.setattr(np.linalg, "eigvalsh", never)
        r = _prepare_correlation(v)
        assert (np.diag(r) == 1.0).all()

    def test_eigenvalue_below_the_threshold_is_refused_with_its_value(self):
        v = self._with_null_eigenvalue(-1e-9)
        with pytest.raises(ValueError, match=r"^matrix is not positive semidefinite \(min eigenvalue -1\.000e-09\)$"):
            _prepare_correlation(v)

    def test_large_all_pairwise_family(self):
        # c = 190 contrasts of rank 19 at the CLI's QMC settings
        q = equicoordinate_quantile(family_corr("all_pairwise", 20), 0.05, QmcConfig())
        assert range_cdf_oracle(q * math.sqrt(2.0), 20) == pytest.approx(0.95, abs=1e-3)

    @pytest.mark.parametrize("qmc", QMC_CONFIGS.values(), ids=QMC_CONFIGS.keys())
    def test_rectangle_at_tukey_cutoff(self, qmc):
        q = studentized_range_quantile(10, 0.05) / math.sqrt(2.0)
        est = mvn_rectangle_prob(np.full(45, -q), np.full(45, q), family_corr("all_pairwise", 10), qmc)
        assert est.value == pytest.approx(0.95, abs=1e-3)

    @pytest.mark.parametrize("qmc", QMC_CONFIGS.values(), ids=QMC_CONFIGS.keys())
    def test_many_to_one_matches_dunnett(self, qmc):
        q = equicoordinate_quantile(family_corr("many_to_one", 10), 0.05, qmc)
        assert dunnett_coverage(q, 9, 0.5) == pytest.approx(0.95, abs=1e-3)

    def test_rank_one_is_the_univariate_cutoff(self, monkeypatch):
        calls = _spy_passes(monkeypatch)
        # the upper-tail cutoff is -ndtri(0.025), one ulp from ndtri(0.975)
        assert equicoordinate_quantile(np.ones((3, 3)), 0.05, FAST) == -ndtri(0.025)
        assert calls == []

    def test_rank_one_rectangle_is_the_interval_intersection(self):
        corr = np.array([[1.0, -1.0, 1.0], [-1.0, 1.0, -1.0], [1.0, -1.0, 1.0]])
        est = mvn_rectangle_prob([-1.0, -0.5, -2.0], [2.0, 3.0, 0.8], corr, FAST)
        # Z_2 = -Z_1, so Z_1 must lie in (-1, 2) & (-3, 0.5) & (-2, 0.8)
        assert est.value == pytest.approx(ndtr(0.5) - ndtr(-1.0), abs=1e-15)
        assert est.std_error == 0.0

    def test_duplicated_row_gives_two_dimensional_sidak(self):
        corr = np.array([[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]])
        sidak = ndtri(1.0 - (1.0 - 0.95**0.5) / 2.0)
        assert equicoordinate_quantile(corr, 0.05, FAST) == pytest.approx(sidak, abs=1e-3)

    @settings(max_examples=20, deadline=None)
    @given(c=st.integers(3, 6), rank=st.integers(1, 5), seed=st.integers(0, 2**32 - 1))
    @example(c=6, rank=5, seed=66700)  # q and q_perm differ by 2.1e-3, coverages by 2.8e-4
    def test_low_rank_cutoff_is_bracketed_and_order_free(self, c, rank, seed):
        rank = min(rank, c - 1)
        rng = np.random.default_rng(seed)
        load = rng.standard_normal((c, rank))
        cov = load @ load.T
        d = np.sqrt(np.diag(cov))
        corr = cov / np.outer(d, d)
        np.fill_diagonal(corr, 1.0)
        q = equicoordinate_quantile(corr, 0.05, QmcConfig())
        assert ndtri(0.975) <= q <= ndtri(1.0 - 0.05 / (2 * c))
        perm = rng.permutation(c)
        q_perm = equicoordinate_quantile(corr[np.ix_(perm, perm)], 0.05, QmcConfig())
        # compared in coverage, the unit of the 1e-3 band: for small c the root
        # tolerance in q is itself 1e-3, so q and q_perm may differ by more
        fine = QmcConfig(points_per_shift=2**14, shifts=8, seed=11)
        for x in (q, q_perm):
            cover = mvn_rectangle_prob(np.full(c, -x), np.full(c, x), corr, fine)
            assert cover.value == pytest.approx(0.95, abs=1e-3)


def _gamma_null_corr():
    """An estimated V of the gamma-null-correlated preset (seed 1234, replicate 0)."""
    upper = [
        0.44170696198884235, 0.40788625250408156, 0.49144300596086404, 0.5068393032473617,
        0.4770728499830704, 0.5121066132049721, 0.4755397108499631, 0.558309098746441,
        0.4321885024681565, 0.48250752910259, 0.5346689559270192, 0.4987771354117121,
        0.5018067400121028, 0.524551197370818, 0.4994736098370494, 0.520814326103707,
        0.5193969987548137, 0.5079817945650655, 0.4458445873346581, 0.48117204681068093,
        0.44480520706455134, 0.5527155541309404, 0.5284935808266116, 0.5245342199124814,
        0.4681037005527866, 0.5195519101760315, 0.5008991379707106, 0.4664708006767998,
        0.5022478521853636, 0.502846589170755, 0.4866058414089801, 0.4848298893374101,
        0.5298863758311345, 0.452307424830784, 0.5205875044488419, 0.5102738714745328,
    ]
    v = np.eye(9)
    v[np.triu_indices(9, 1)] = upper
    return np.triu(v, 1).T + v


# hard V for the QMC error: 12 x 12 factor-model correlations, three strong columns
_FACTOR_RNG = np.random.default_rng(0)
FACTOR_V12 = [factor_model_corr(12, 3, _FACTOR_RNG) for _ in range(12)]
FACTOR_V = FACTOR_V12[:3]


def _exchangeable(c, rho):
    v = np.full((c, c), rho)
    np.fill_diagonal(v, 1.0)
    return v


# cutoffs of the secant root on the QMC estimate, at QmcConfig() and at the
# literal 512 x 6 HARNESS config, each after its prefix stage; a change of
# engine that moves them records the move
GOLDEN = [
    ("many-to-one p10", lambda: family_corr("many_to_one", 10), 2.6862211031950256, 2.6861311134150565),
    ("many-to-one p20", lambda: family_corr("many_to_one", 20), 2.891573580187471, 2.889797476342429),
    ("exchangeable 0.3 c8", lambda: _exchangeable(8, 0.3), 2.7029435698223536, 2.702891247013274),
    ("gamma-null-correlated", _gamma_null_corr, 2.6870630293781854, 2.687225719182268),
]


@pytest.mark.parametrize("make, cli_cut, harness_cut", [g[1:] for g in GOLDEN],
                         ids=[g[0] for g in GOLDEN])
def test_full_rank_cutoffs_unchanged(make, cli_cut, harness_cut):
    v = make()
    assert equicoordinate_quantile(v, 0.05, QmcConfig()) == pytest.approx(cli_cut, abs=1e-12)
    assert equicoordinate_quantile(v, 0.05, HARNESS) == pytest.approx(harness_cut, abs=1e-12)


P_VALUE_V = dict(zip(["many-to-one p10", "all-pairwise p10", "factor 0", "factor 1", "factor 2"],
                     [family_corr("many_to_one", 10), family_corr("all_pairwise", 10), *FACTOR_V]))
P_VALUE_T = np.array([1.8, 2.2, 2.6, 3.0])

# Fine references: the mean of mvn_rectangle_prob over seeds 11-14 at 2^17 x 12
# points.  Their SE is at most 3e-5 on FACTOR_V and 1.5e-6 on the two
# families, whose values match the exact Dunnett and studentized-range laws to
# 2e-6; at 2^15 x 12 points the SE on FACTOR_V reaches 1.4e-4, too close to the
# 5e-4 the tests check.
FINE_EXCEED = {  # P(max_i |Z_i| > t) at each t of P_VALUE_T for V = P_VALUE_V[name]
    "many-to-one p10": (0.3598799, 0.1647940, 0.0629818, 0.0201273),
    "all-pairwise p10": (0.7354901, 0.4566518, 0.2173795, 0.0803787),
    "factor 0": (0.4001257, 0.1916364, 0.0751599, 0.0244042),
    "factor 1": (0.4615988, 0.2219011, 0.0856215, 0.0271631),
    "factor 2": (0.4283686, 0.2052310, 0.0797595, 0.0255869),
}
FINE_RECT_BOUNDS = ((-2.0, 2.0), (-1.8, 2.6), (-np.inf, 2.0))
FINE_RECT = {  # P(lower < Z_i < upper for every i) at each FINE_RECT_BOUNDS
    "factor 0": (0.7158448, 0.7176640, 0.8158172),
    "factor 1": (0.6704765, 0.7009489, 0.8154663),
    "factor 2": (0.6952434, 0.6954354, 0.8015945),
}


@pytest.mark.parametrize("name", FINE_RECT)
def test_rectangle_prob_meets_the_target_against_a_fine_reference(name):
    # 3 standard errors fit in the target: a bound on the true error
    v = P_VALUE_V[name]
    c = len(v)
    for (lower, upper), ref in zip(FINE_RECT_BOUNDS, FINE_RECT[name]):
        est = mvn_rectangle_prob(np.full(c, lower), np.full(c, upper), v, QmcConfig())
        assert abs(est.value - ref) <= QmcConfig().target_abs_error


# The QmcConfig() cutoff q of each FACTOR_V12 and the fine reference
# P(max_i |Z_i| <= q): the mean of mvn_rectangle_prob over seeds 11-14 at
# 2^17 x 12 points, SE at most 2e-5.  A change that moves a cutoff re-records
# its reference.
FINE_CUTOFF = [
    (2.7532245627408565, 0.9500663), (2.797048121729855, 0.9502199),
    (2.7724764175104966, 0.9500264), (2.7580816829641788, 0.9498503),
    (2.7904110069241903, 0.9498825), (2.8077617084114834, 0.9500142),
    (2.7791028612879507, 0.9501492), (2.7948363444549926, 0.9498936),
    (2.7683382707103785, 0.9500832), (2.769578501547057, 0.9499193),
    (2.7774784770945415, 0.9502698), (2.773277571589385, 0.9502362),
]


@pytest.mark.parametrize("k", range(len(FACTOR_V12)))
def test_cutoff_coverage_meets_the_target_against_a_fine_reference(k):
    # equicoordinate_quantile's contract: the true P(max_i |Z_i| <= q) is
    # within target_abs_error of 1 - alpha
    cut, ref = FINE_CUTOFF[k]
    assert equicoordinate_quantile(FACTOR_V12[k], 0.05, QmcConfig()) == pytest.approx(cut, abs=1e-12)
    assert abs(ref - 0.95) <= QmcConfig().target_abs_error


class TestQuantileRoot:
    @pytest.mark.parametrize("name", QMC_CONFIGS)
    @pytest.mark.parametrize(
        "make",
        [g[1] for g in GOLDEN] + [lambda: family_corr("all_pairwise", 10)],
        ids=[g[0] for g in GOLDEN] + ["all-pairwise p10"],
    )
    def test_at_most_four_passes(self, make, name, monkeypatch):
        # passes over the full stack; after the prefix stage the full stack
        # takes one or two steps
        qmc = QMC_CONFIGS[name]
        calls = _spy_passes(monkeypatch)
        res = _quantile(make(), 0.05, qmc)
        n = qmc.points_per_shift
        doublings = (res.points_per_shift // n).bit_length() - 1
        assert len([m for _, m, _ in calls if m >= n]) - doublings <= {"cli": 3, "harness": 4}[name]

    @pytest.mark.parametrize("name", QMC_CONFIGS)
    def test_every_stack_makes_prefix_passes(self, name, monkeypatch):
        # the search starts on the stack's first 1/16, whatever its size
        qmc = QMC_CONFIGS[name]
        calls = _spy_passes(monkeypatch)
        _quantile(family_corr("many_to_one", 10), 0.05, qmc)
        prefix = [m for _, m, _ in calls if m < qmc.points_per_shift]
        assert prefix and set(prefix) == {qmc.points_per_shift // 16}

    @settings(max_examples=25, deadline=None)
    @given(c=st.integers(2, 12), strong=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           qmc=st.sampled_from(list(QMC_CONFIGS.values())))
    def test_root_is_bracketed_and_within_tolerance(self, c, strong, seed, qmc):
        v = factor_model_corr(c, strong, np.random.default_rng(seed))
        res = _quantile(v, 0.05, qmc)
        lo, hi = ndtri(0.975), ndtri(1.0 - 0.05 / (2 * c))
        assert lo <= res.q <= hi
        # the estimate is P(q) on the quantile's own factor and points
        r = _prepare_correlation(v)
        chol, stage, _ = _trapezoidal_cholesky(r)
        pts = _sobol_stack(chol.shape[1] - 1, res.points_per_shift, qmc.shifts, qmc.seed)
        bound = np.full(c, res.q)
        assert _conditioned_means(-bound, bound, chol, stage, pts).mean() == pytest.approx(res.prob, abs=1e-15)
        tol = qmc.target_abs_error / _ROOT_FRACTION
        if lo < res.q < hi:
            assert abs(res.prob - 0.95) <= tol
        elif res.q == hi:
            assert res.prob <= 0.95 + tol
        else:
            assert res.prob >= 0.95 - tol

    @pytest.mark.parametrize("qmc", QMC_CONFIGS.values(), ids=QMC_CONFIGS.keys())
    def test_near_rank_one_exchangeable(self, qmc):
        # rho = 0.9999: P(q) hugs the univariate law, and the root the lower end
        res = _quantile(_exchangeable(10, 0.9999), 0.05, qmc)
        assert ndtri(0.975) <= res.q < ndtri(1.0 - 0.05 / 20)
        assert res.q == pytest.approx(ndtri(0.975), abs=0.05)


def test_a_cutoff_where_p_rounds_to_1_is_searched_without_a_slope():
    # at alpha = 2^-52, 1 - alpha is below 1, but P and 2 Phi(q) - 1 both
    # round to 1 at the Bonferroni cutoff: the first slope was 0 / 0, and
    # numpy warned before the search fell back to bisection
    v = np.full((3, 3), 0.3)
    np.fill_diagonal(v, 1.0)
    alpha = 2.0**-52
    q = equicoordinate_quantile(v, alpha, QmcConfig(points_per_shift=16, shifts=3))
    assert float(-ndtri(alpha / 2.0)) <= q <= float(-ndtri(alpha / 6.0))


class TestSecantSafeguards:
    """`_secant` on synthetic laws P(q): the steps that leave the bracket."""

    LO, HI, TARGET, TOL = 2.0, 3.0, 0.95, 1e-6

    def search(self, law, q, slope):
        calls = []

        def prob_at(q):
            calls.append(q)
            return law(q), 0.0

        q, p, _, _ = _secant(prob_at, q, law(q), 0.0, slope, self.LO, self.HI, self.TARGET, self.TOL)
        return q, p, calls

    def test_step_below_the_bracket_evaluates_lo(self):
        # from hi with P > target, a near-flat slope steps far below lo
        q, p, calls = self.search(lambda q: 0.99, self.HI, slope=1e-9)
        assert calls == [self.LO]
        assert (q, p) == (self.LO, 0.99)

    def test_step_above_the_bracket_evaluates_hi(self):
        # from inside with P < target, a near-flat slope steps far above hi
        q, p, calls = self.search(lambda q: 0.9, 2.5, slope=1e-9)
        assert calls == [self.HI]
        assert (q, p) == (self.HI, 0.9)

    def test_step_outside_evaluated_ends_bisects(self):
        # no usable slope from hi, whose end is known: bisect, then secant steps
        law = lambda q: float(ndtr(4.0 * (q - 2.2) + ndtri(self.TARGET)))
        q, p, calls = self.search(law, self.HI, slope=-1.0)
        assert calls[0] == 0.5 * (self.LO + self.HI)
        assert abs(p - self.TARGET) <= self.TOL
        assert q == pytest.approx(2.2, abs=1e-5)

    def test_stalled_search_raises_after_max_steps(self):
        # P jumps over the target at 2.5: no q gets within the tolerance
        calls = []

        def prob_at(q):
            calls.append(q)
            return (0.9 if q < 2.5 else 0.99), 0.0

        with pytest.raises(QuantileConvergenceError, match=f"after {_MAX_STEPS} steps"):
            _secant(prob_at, self.HI, 0.99, 0.0, 1.0, self.LO, self.HI, self.TARGET, self.TOL)
        assert len(calls) == _MAX_STEPS


# ---------------------------------------------------------------------------
# decisions without the cutoff search

TINY = QmcConfig(points_per_shift=256, shifts=4, target_abs_error=3e-3, seed=5)
DECISION_CONFIGS = {"harness": HARNESS, "cli": QmcConfig(), "tiny": TINY}


def _rank_one(c, rng):
    signs = rng.choice([-1.0, 1.0], size=c)
    return np.outer(signs, signs)


def _spy_passes(monkeypatch):
    """A list that records (upper bound of the first row, points per shift,
    per-shift means) for every integrand pass of `_conditioned_means`."""
    import clmc.mvnprob as mod

    calls, real = [], mod._conditioned_means

    def spy(a, b, chol, stage, points):
        means = real(a, b, chol, stage, points)
        calls.append((float(b[0]), points.shape[1], means))
        return means

    monkeypatch.setattr(mod, "_conditioned_means", spy)
    return calls


def _no_factor_nor_pass(monkeypatch):
    """Make equicoordinate_rejects fail if it factors V or integrates."""
    import clmc.mvnprob as mod

    def never(*args):
        raise AssertionError("factored or integrated")

    monkeypatch.setattr(mod, "_conditioned_means", never)
    monkeypatch.setattr(mod, "_trapezoidal_cholesky", never)


def _identity_family(c):
    return ContrastFamily(np.eye(c), tuple(f"h{i}" for i in range(c)))


def _with_duplicate_row(v, k, sign):
    """v with variable k replaced by sign * variable 0 (singular)."""
    v = v.copy()
    v[k, :] = sign * v[0, :]
    v[:, k] = sign * v[:, 0]
    return v


# The first six FACTOR_V12 and statistics planted where P(max_i |Z_i| <= t)
# lies about 1.1e-3 and 2.2e-3 (just over two and four QmcConfig() targets)
# either side of 0.95.  CONTRACT_P is the fine reference at each t: the mean
# of 4 seeds (11-14) at 2^17 x 12 points, SE at most 2e-5.
CONTRACT_V = FACTOR_V12[:6]
CONTRACT_T = [
    (2.737316, 2.745051, 2.760963, 2.769137),
    (2.780232, 2.787697, 2.80307, 2.810973),
    (2.756633, 2.764238, 2.77989, 2.787934),
    (2.743827, 2.751441, 2.76711, 2.77516),
    (2.775849, 2.783342, 2.79877, 2.806701),
    (2.793034, 2.800441, 2.815693, 2.823533),
]
CONTRACT_P = [
    (0.9478337, 0.9489296, 0.9511229, 0.9522183),
    (0.9477686, 0.9488693, 0.9510734, 0.9521743),
    (0.9477576, 0.9488574, 0.9510589, 0.9521585),
    (0.9478081, 0.9489076, 0.951108, 0.9522066),
    (0.9477608, 0.948862, 0.9510668, 0.9521681),
    (0.9478523, 0.9489494, 0.9511462, 0.9522434),
]


class TestEquicoordinateRejects:
    @settings(max_examples=30, deadline=None)
    @given(kind=st.sampled_from(["factor", "all-pairwise", "rank-one"]), c=st.integers(2, 15),
           seed=st.integers(0, 2**32 - 1), alpha=st.sampled_from([0.05, 0.1]))
    def test_same_decisions_as_the_cutoff_away_from_it(self, kind, c, seed, alpha):
        rng = np.random.default_rng(seed)
        if kind == "factor":
            v = factor_model_corr(c, rng.integers(0, 4), rng)
        elif kind == "all-pairwise":
            v = family_corr("all_pairwise", 3 + c % 4)  # singular, c = 3, 6, 10 or 15
        else:
            v = _rank_one(c, rng)
        k = len(v)
        q = equicoordinate_quantile(v, alpha, QmcConfig())
        lo, hi = ndtri(1.0 - alpha / 2.0), ndtri(1.0 - alpha / (2.0 * k))
        t = rng.uniform(lo - 0.3, hi + 0.3, size=k) * rng.choice([-1.0, 1.0], size=k)
        got = equicoordinate_rejects(v, t, alpha, QmcConfig())
        # 0.05 from the cutoff in t moves P by several targets: both rules
        # are that accurate, so they must agree there
        far = np.abs(np.abs(t) - q) > 0.05
        np.testing.assert_array_equal(got[far], (np.abs(t) > q)[far])

    def test_no_wrong_decision_two_targets_from_the_level(self):
        # the contract against the truth: where the true P is at least
        # 2 * target_abs_error from 1 - alpha, no decision is wrong.  Over
        # these 240 decisions a rule settling a side at 2 SEs makes 3 wrong,
        # and |t| > q with q searched at 512 x 6 points (target 1e-3) makes 8
        wrong = []
        for v, ts, refs in zip(CONTRACT_V, CONTRACT_T, CONTRACT_P):
            for t, ref in zip(ts, refs):
                assert abs(ref - 0.95) >= 2 * QmcConfig().target_abs_error
                for seed in range(10):
                    stats = np.zeros(12)
                    stats[seed % 12] = t
                    got = equicoordinate_rejects(v, stats, 0.05, QmcConfig(seed=seed))
                    if got.any() != (ref > 0.95):
                        wrong.append((t, ref, seed))
        assert wrong == []

    def test_far_statistics_are_settled_by_the_bounds(self, monkeypatch):
        # exchangeable rho = 0.9: the cutoff lies near the univariate 1.96,
        # far from both statistics; the closed-form bounds settle both
        _no_factor_nor_pass(monkeypatch)
        t = np.array([0.0, 2.0, -2.7, 0.5, 0.0, 0.0, 0.0, 0.0])
        got = equicoordinate_rejects(_exchangeable(8, 0.9), t, 0.05, QmcConfig())
        np.testing.assert_array_equal(got, np.abs(t) > 2.5)

    def test_an_accept_by_the_lower_bound_builds_no_tree(self, monkeypatch):
        # all-pairwise p = 10: c = 45, every |r_ij| is 0 or 1/2.  The lower
        # bound accepts on one Owen's T call of 6 values, two per grid edge
        # used and two for the least correlated pair; the spanning tree's
        # 2 x 44 values are never computed
        import clmc.mvnprob as mod

        sizes, real = [], mod.owens_t
        monkeypatch.setattr(mod, "owens_t", lambda x, a: sizes.append(len(a)) or real(x, a))
        monkeypatch.setattr(mod, "_spanning_tree", lambda w: pytest.fail("built the tree"))
        _no_factor_nor_pass(monkeypatch)
        t = np.zeros(45)
        t[7] = -2.3
        assert not equicoordinate_rejects(family_corr("all_pairwise", 10), t, 0.05, QmcConfig()).any()
        assert sizes == [6]

    @pytest.mark.parametrize("kind", ["not psd", "asymmetric"])
    def test_refused_v_raises_where_the_bounds_would_settle(self, kind):
        v = _exchangeable(8, 0.9)
        if kind == "not psd":
            v[0, 1] = v[1, 0] = -0.9
        else:
            v[0, 1] += 1e-3
        t = np.array([0.0, 2.0, -2.7, 0.5, 0.0, 0.0, 0.0, 0.0])
        # both statistics would be settled by the bounds
        assert _UnionBounds(v)(2.7)[1] < 0.05 < _UnionBounds(v)(2.0)[0]
        with pytest.raises(ValueError, match="positive semidefinite|symmetric"):
            equicoordinate_rejects(v, t, 0.05, QmcConfig())

    @pytest.mark.parametrize("name", DECISION_CONFIGS)
    def test_statistic_at_the_cutoff_is_sized_on_the_whole_stack(self, name, monkeypatch):
        # P at the search's root is within its root tolerance of 1 - alpha,
        # so neither a bound nor a prefix settles its side: the prefix
        # doubles to the whole stack, where 1 SE fits in the target.  Each
        # doubling integrates only its new points
        cfg = DECISION_CONFIGS[name]
        v = family_corr("many_to_one", 20)
        t = np.zeros(19)
        t[4] = equicoordinate_quantile(v, 0.05, cfg)
        calls = _spy_passes(monkeypatch)
        equicoordinate_rejects(v, t, 0.05, cfg)
        assert [n for _, n, _ in calls] == [64] + [64 << k for k in range(len(calls) - 1)]
        estimates, total, sums = [], 0, 0.0
        for _, n, means in calls:
            total, sums = total + n, sums + n * means
            estimates.append((total, *_mean_se(sums / total)))
        assert all(abs(p - 0.95) <= 4 * se for _, p, se in estimates)
        assert estimates[-1][0] >= cfg.points_per_shift and estimates[-1][2] <= cfg.target_abs_error

    @pytest.mark.parametrize("name", DECISION_CONFIGS)
    def test_no_pass_when_every_statistic_is_outside_the_bounds(self, name, monkeypatch):
        _no_factor_nor_pass(monkeypatch)
        v = family_corr("many_to_one", 10)
        lo, hi = ndtri(0.975), ndtri(1.0 - 0.05 / 18)
        t = np.array([0.0, -lo, lo, hi + 1e-12, -4.0, 1.0, -0.5, 10.0, 0.1])
        np.testing.assert_array_equal(equicoordinate_rejects(v, t, 0.05, DECISION_CONFIGS[name]),
                                      np.abs(t) > lo)

    def test_rank_one_cutoff_is_the_univariate_one_without_a_pass(self, monkeypatch):
        # every |Z_i| equals |Z_1|, so P(t) > 1 - alpha exactly when t > lo
        calls = _spy_passes(monkeypatch)
        lo = -ndtri(0.025)
        t = np.array([lo, -np.nextafter(lo, 3.0), 2.2, -1.0, 2.5, lo - 1e-12])
        got = equicoordinate_rejects(_rank_one(6, np.random.default_rng(3)), t, 0.05, QmcConfig())
        np.testing.assert_array_equal(got, np.abs(t) > lo)
        assert calls == []

    def test_statistics_must_match_the_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            equicoordinate_rejects(np.eye(3), np.zeros(4), 0.05, TINY)

    @pytest.mark.parametrize("name", ["factor 0", "many-to-one p10"])
    def test_adjust_decides_a_statistic_at_the_root_as_the_simulations_do(self, name):
        # P(q) at the searched root is within the root tolerance of 1 - alpha,
        # and here above it: equicoordinate_rejects rejects t = (q, 0, ...),
        # which adjust("mnq") once accepted because |t| > q is false
        v = P_VALUE_V[name]
        c = len(v)
        q = equicoordinate_quantile(v, 0.05, QmcConfig())
        t = np.zeros(c)
        t[0] = q
        dec = adjust("mnq", t, v, 0.05, _identity_family(c), QmcConfig())
        np.testing.assert_array_equal(dec.reject, equicoordinate_rejects(v, t, 0.05, QmcConfig()))
        assert dec.reject.tolist() == [True] + [False] * (c - 1)
        assert dec.threshold < q and dec.adjusted_p[0] <= 0.05 < dec.adjusted_p[1:].min()

    @settings(max_examples=10, deadline=None, derandomize=True)
    @given(c=st.integers(2, 12), strong=st.integers(0, 3), seed=st.integers(0, 2**32 - 1),
           cfg=st.sampled_from([QmcConfig(), FAST]))
    def test_adjust_agrees_with_its_cutoff_and_p_values_near_the_root(self, c, strong, seed, cfg):
        rng = np.random.default_rng(seed)
        v = factor_model_corr(c, strong, rng)
        q = equicoordinate_quantile(v, 0.05, cfg)
        t = (q + rng.uniform(-3e-3, 3e-3, size=c)) * rng.choice([-1.0, 1.0], size=c)
        dec = adjust("mnq", t, v, 0.05, _identity_family(c), cfg)
        np.testing.assert_array_equal(dec.reject, equicoordinate_rejects(v, t, 0.05, cfg))
        np.testing.assert_array_equal(dec.reject, np.abs(t) > dec.threshold)
        np.testing.assert_array_equal(dec.reject, dec.adjusted_p <= 0.05)

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_statistics_must_be_finite(self, bad):
        with pytest.raises(ValueError, match=f"^statistic 1 is {bad}; statistics must be finite$"):
            equicoordinate_rejects(np.eye(3), [2.5, bad, 1.0], 0.05, TINY)

    @pytest.mark.parametrize("rho", [-0.95, -0.5, 0.0, 0.3, 0.8, 0.95])
    @pytest.mark.parametrize("x", [1.5, 2.2, 3.0])
    def test_bounds_are_exact_for_two_statistics(self, rho, x):
        # P(max(|Z1|, |Z2|) > x) = 1 - P(|Z1| <= x, |Z2| <= x)
        exact = 1.0 - bvn_rect_oracle(-x, x, -x, x, rho)
        lower, upper = _UnionBounds(np.array([[1.0, rho], [rho, 1.0]]))(x)
        assert lower == pytest.approx(exact, abs=1e-10)
        assert upper == pytest.approx(exact, abs=1e-10)

    def test_bounds_match_their_definitions(self):
        # by plain loops, each pair term from the bivariate oracle.  Below:
        # the Dawson-Sankoff bound at its best k on the pairs with |r_ij|
        # rounded up to the 1/64 grid, or the union of the best pair if
        # larger.  Above: Hunter's bound at its best spanning tree, of all
        # c^(c-2) = 125 trees, each decoded from its Pruefer sequence
        c, x = 5, 2.3
        v = factor_model_corr(c, 1, np.random.default_rng(8))
        tail = 2.0 * ndtr(-x)

        def pair_term(rho):
            return 2.0 * tail - 1.0 + bvn_rect_oracle(-x, x, -x, x, rho)

        pairs = [(i, j) for i in range(c) for j in range(i + 1, c)]
        pair = {(i, j): pair_term(v[i, j]) for i, j in pairs}
        s1 = c * tail
        s2_up = sum(pair_term(math.ceil(abs(v[i, j]) * 64) / 64) for i, j in pairs)
        lower = max(max(2.0 * s1 / (k + 1) - 2.0 * s2_up / (k * (k + 1)) for k in range(1, c + 1)),
                    max(2.0 * tail - pair[ij] for ij in pairs))
        trees = {frozenset(_pruefer_tree(seq, c)) for seq in itertools.product(range(c), repeat=c - 2)}
        assert len(trees) == 125
        sums = [sum(pair[ij] for ij in tree) for tree in trees]
        assert np.ptp(sums) > 1e-3  # the choice of tree matters
        assert _UnionBounds(v)(x) == pytest.approx((lower, s1 - max(sums)), abs=1e-10)

    @pytest.mark.parametrize("c", [2, 9, 45, 190])
    @pytest.mark.parametrize("rho", [0.1, 0.5, 0.9])
    def test_bounds_contain_the_equicorrelated_law(self, c, rho):
        # exact by one-dimensional quadrature, at x from the normal to the
        # Bonferroni cutoff
        v = _exchangeable(c, rho)
        for x in np.linspace(-ndtri(0.025), -ndtri(0.05 / (2 * c)), 5):
            exact = 1.0 - dunnett_coverage(x, c, rho)
            lower, upper = _UnionBounds(v)(x)
            assert lower - 1e-9 <= exact <= upper + 1e-9

    @pytest.mark.parametrize("p", [3, 10, 20])
    def test_bounds_contain_the_studentized_range_law(self, p):
        # all-pairwise contrasts of p iid coefficients, c = p(p - 1)/2 up to
        # 190 statistics of rank p - 1: max_ij |Z_ij| <= x exactly when the
        # range of the p coefficients is at most x sqrt(2)
        v = family_corr("all_pairwise", p)
        for x in np.linspace(-ndtri(0.025), -ndtri(0.05 / (2 * len(v))), 5):
            exact = 1.0 - range_cdf_oracle(x * math.sqrt(2.0), p)
            lower, upper = _UnionBounds(v)(x)
            assert lower - 1e-9 <= exact <= upper + 1e-9

    @pytest.mark.parametrize("c", [2, 3, 7, 24])
    @pytest.mark.parametrize("x", [1.5, 2.6, 3.5])
    def test_bounds_are_exact_at_rank_one(self, c, x):
        # every |Z_i| equals |Z_1|: P(max_i |Z_i| > x) = 2 Phi(-x)
        with np.errstate(all="raise"):
            lower, upper = _UnionBounds(_rank_one(c, np.random.default_rng(c)))(x)
        assert lower == pytest.approx(2.0 * ndtr(-x), rel=1e-12)
        assert upper == pytest.approx(2.0 * ndtr(-x), rel=1e-12)

    @pytest.mark.parametrize("kind", ["duplicated", "rank-one"])
    def test_equal_bounds_do_not_cross(self, kind):
        # each V's bounds are equal in exact arithmetic: c = 3 with a
        # duplicated row has two distinct statistics, and a rank-one V one.
        # Computed apart, the upper bound once fell 2.8e-17 and 3.1e-15
        # below the lower one
        rng = np.random.default_rng(0)
        if kind == "duplicated":
            v, x = _with_duplicate_row(factor_model_corr(3, rng.integers(0, 4), rng), 2, 1.0), 1.5
        else:
            v, x = _rank_one(190, rng), 1.5
        lower, upper = _UnionBounds(v)(x)
        assert lower <= upper
        assert upper == pytest.approx(lower, rel=1e-12)

    @settings(max_examples=8, deadline=None)
    @given(kind=st.sampled_from(["factor", "all-pairwise", "duplicated", "sign-flipped"]),
           c=st.integers(3, 12), seed=st.integers(0, 2**32 - 1), x=st.floats(1.5, 3.5))
    @example(kind="duplicated", c=12, seed=1, x=2.5)
    @example(kind="sign-flipped", c=12, seed=2, x=2.5)
    def test_bounds_contain_a_fine_reference(self, kind, c, seed, x):
        rng = np.random.default_rng(seed)
        if kind == "all-pairwise":
            v = family_corr("all_pairwise", 3 + c % 4)  # singular, c = 3, 6, 10 or 15
        else:
            v = factor_model_corr(c, rng.integers(0, 4), rng)
            if kind != "factor":
                v = _with_duplicate_row(v, rng.integers(1, c), -1.0 if kind == "sign-flipped" else 1.0)
        lower, upper = _UnionBounds(v)(x)
        bound = np.full(len(v), x)
        ref = mvn_rectangle_prob(-bound, bound, v, QmcConfig(points_per_shift=16384, shifts=12,
                                                             target_abs_error=1.0, seed=11))
        slack = 4 * ref.std_error + 1e-12
        assert lower <= upper
        assert lower <= 1.0 - ref.value + slack
        assert 1.0 - ref.value - slack <= upper


def _pruefer_tree(seq, c):
    """The edges (i, j), i < j, of the labelled tree on c vertices with Pruefer sequence seq."""
    degree = [1 + seq.count(k) for k in range(c)]
    edges = []
    for k in seq:
        leaf = min(i for i in range(c) if degree[i] == 1)
        edges.append((min(leaf, k), max(leaf, k)))
        degree[leaf] -= 1
        degree[k] -= 1
    edges.append(tuple(i for i in range(c) if degree[i] == 1))
    return edges


class TestAdjustedPValues:
    @pytest.mark.parametrize("name, points", [
        *(pytest.param(name, 4096, id=name) for name in P_VALUE_V),
        *(pytest.param(name, 1024, id=f"{name} at 1024 points") for name in P_VALUE_V),
    ])
    def test_cli_adjusted_p_meets_the_target_against_a_fine_reference(self, name, points):
        # the p-values start on the first 1/16 of the cfg stack; the target is
        # a bound on their true error.  The statistics after P_VALUE_T are 0,
        # whose p-value is exactly 1
        cfg = QmcConfig(points_per_shift=points)
        k = len(P_VALUE_T)
        t = np.zeros(len(P_VALUE_V[name]))
        t[:k] = P_VALUE_T
        p = equicoordinate_p_values(P_VALUE_V[name], t, 0.05, cfg)
        np.testing.assert_allclose(p[:k], FINE_EXCEED[name], rtol=0.0, atol=cfg.target_abs_error)
        assert (p[k:] == 1.0).all()

    @pytest.mark.parametrize("bad", [np.nan, -np.inf])
    def test_statistics_must_be_finite(self, bad, monkeypatch):
        # a NaN p-value once doubled its points to the cap; V is not factored
        _no_factor_nor_pass(monkeypatch)
        with pytest.raises(ValueError, match=f"^statistic 1 is {bad}; statistics must be finite$"):
            equicoordinate_p_values(np.eye(3), [2.5, bad, 1.0], 0.05, TINY)

    def test_statistics_must_match_the_dimension(self, monkeypatch):
        # four p-values for a 3 x 3 V were once returned; V is not factored
        _no_factor_nor_pass(monkeypatch)
        with pytest.raises(ValueError, match="^statistics and correlation dimension differ$"):
            equicoordinate_p_values(np.eye(3), [1.0, 2.0, 3.0, 4.0], 0.05, TINY)

    @pytest.mark.parametrize("seed", [1, 5])
    def test_p_values_lie_within_the_union_bounds(self, seed):
        # on a 256 x 4 stack the 3-SE stop is absolute, so a p-value below
        # 5e-4 carries QMC error larger than itself: unclipped, at seed 1 the
        # three smaller statistics lay above the Kounias bound and the three
        # larger below the Dawson-Sankoff bound, at seed 5 all six below.  Now
        # the bounds of each lie within the 3e-3 target, so each p-value is
        # their midpoint.  Far in the tail, where rounding once made the
        # bounds infinite or NaN, they stay finite, and E(40) underflows to 0.
        # A statistic of 0, below the univariate cutoff, keeps p = 1 exactly
        v = family_corr("all_pairwise", 10)
        t = np.zeros(len(v))
        t[:8] = [4.4, -4.6, 5.0, 5.6, -5.9, 6.4, 15.9, -40.0]
        cfg = QmcConfig(points_per_shift=256, shifts=4, target_abs_error=3e-3, seed=seed)
        p = equicoordinate_p_values(v, t, 0.05, cfg)
        lower, upper = np.array([_UnionBounds(v)(x) for x in np.abs(t[:8])]).T
        assert ((0.0 <= lower) & (lower <= p[:8]) & (p[:8] <= upper)).all()
        assert (upper - lower <= cfg.target_abs_error).all()
        np.testing.assert_array_equal(p[:8], 0.5 * (lower + upper))
        assert 0.0 < p[6] < 1e-50 and p[7] == 0.0
        assert (p[8:] == 1.0).all()

    def test_bounds_within_the_target_give_their_midpoint_without_a_pass(self, monkeypatch):
        # c = 45: from about 4.5 on the union bounds lie within 5e-4 of each
        # other, and each p-value is their midpoint, off the truth by at most
        # half their gap; no statistic is integrated
        v = family_corr("all_pairwise", 10)
        t = np.linspace(4.5, 6.0, len(v)) * np.resize([1.0, -1.0], len(v))
        calls = _spy_passes(monkeypatch)
        p = equicoordinate_p_values(v, t, 0.05, QmcConfig())
        assert calls == []
        bounds = np.array([_UnionBounds(v)(x) for x in np.abs(t)])
        assert (bounds[:, 1] - bounds[:, 0] <= 5e-4).all()
        np.testing.assert_array_equal(p, 0.5 * (bounds[:, 0] + bounds[:, 1]))
        fine = QmcConfig(points_per_shift=2**14, shifts=8, seed=11, target_abs_error=1.0)
        for k in (0, 44):
            x = abs(t[k])
            ref = mvn_rectangle_prob(-np.full(45, x), np.full(45, x), v, fine)
            assert abs(p[k] - (1.0 - ref.value)) <= 0.5 * (bounds[k, 1] - bounds[k, 0]) + 4 * ref.std_error

    def test_an_estimate_outside_wide_bounds_is_clipped_into_them(self, monkeypatch):
        # at 2.8 and c = 45 the bounds are about 0.06 apart, so the p-value is
        # estimated; an estimate of P = 1 (p = 0) would lie below the
        # Dawson-Sankoff bound, and is raised onto it.  The statistics of 0
        # are not estimated: their p-value is 1
        import clmc.mvnprob as mod

        v = family_corr("all_pairwise", 10)
        monkeypatch.setattr(mod, "_estimate", lambda *args, **kwargs: (None, 1.0, 0.0))
        t = np.zeros(len(v))
        t[0] = 2.8
        lower, upper = _UnionBounds(v)(2.8)
        assert upper - lower > 0.05
        p = equicoordinate_p_values(v, t, 0.05, QmcConfig())
        assert p[0] == lower and (p[1:] == 1.0).all()

    def test_rank_one_p_values_are_exact_without_a_pass(self, monkeypatch):
        # every |Z_i| equals |Z_1|: P(max_i |Z_i| > t) = 2 Phi(-|t|), evaluated
        # once per statistic on an empty point set, with no Sobol point drawn
        import clmc.mvnprob as mod

        def never(*args):
            raise AssertionError("drew Sobol points")

        monkeypatch.setattr(mod, "_sobol_stack", never)
        calls = _spy_passes(monkeypatch)
        t = np.array([0.3, -1.9, 2.2, 2.8, -3.5])
        p = equicoordinate_p_values(np.ones((len(t), len(t))), t, 0.05, QmcConfig())
        np.testing.assert_allclose(p, 2.0 * ndtr(-np.abs(t)), rtol=0.0, atol=1e-15)
        assert [m for _, m, _ in calls] == [1] * len(t)

    def test_each_distinct_statistic_is_estimated_once(self, monkeypatch):
        # 190 statistics of 0 once took 190 passes, and now take none; a |t|
        # shared by several statistics is estimated once and its p-value
        # given to each
        import clmc.mvnprob as mod

        v = family_corr("all_pairwise", 10)
        t = np.zeros(len(v))
        t[:6] = [1.2, -1.2, 0.7, 1.2, -0.7, 1.5]
        cfg = QmcConfig(points_per_shift=256, shifts=4, seed=3)
        want = np.array([equicoordinate_p_values(v, [x] + [0.0] * (len(v) - 1), 0.05, cfg)[0]
                         for x in t])
        xs, real = [], mod._estimate

        def spy(per_shift_means, *args, **kwargs):
            xs.append(per_shift_means.args[0])  # the |t| of functools.partial(means_at, |t|)
            return real(per_shift_means, *args, **kwargs)

        monkeypatch.setattr(mod, "_estimate", spy)
        p = equicoordinate_p_values(v, t, 0.05, cfg)
        assert xs == [0.7, 1.2, 1.5]
        np.testing.assert_array_equal(p, want)

    def test_statistics_of_0_take_no_pass(self, monkeypatch):
        # P(max_j |Z_j| <= 0) = 0, so p = 1 exactly with no QMC estimate
        import clmc.mvnprob as mod

        calls = []
        monkeypatch.setattr(mod, "_estimate", lambda *args, **kwargs: calls.append(None) or (None, 0.5, 0.0))
        p = equicoordinate_p_values(family_corr("all_pairwise", 10), np.zeros(45), 0.05, QmcConfig())
        assert calls == [] and (p == 1.0).all()


def test_estimate_doubling_integrates_only_the_new_points():
    # within the stack the blocks are 16, 16, 32; beyond it a fresh stack of
    # 128 points is integrated whole.  The block means combine into the
    # means of the whole prefix
    cfg = QmcConfig(points_per_shift=64, shifts=4, seed=3)
    stack = _sobol_stack(2, 64, 4, 3)
    blocks = []

    def means(pts):
        blocks.append(pts)
        return (pts ** 2).sum(axis=2).mean(axis=1)

    pts, value, se = _estimate(means, stack, 16, cfg, done=lambda n, p, se: n == 64)
    assert [b.shape[1] for b in blocks] == [16, 16, 32]
    np.testing.assert_array_equal(np.concatenate(blocks, axis=1), stack)
    assert pts.shape[1] == 64
    assert (value, se) == pytest.approx(_mean_se(means(stack)), rel=1e-12)
    blocks.clear()
    pts, _, _ = _estimate(means, stack, 16, cfg, done=lambda n, p, se: n == 128)
    assert [b.shape[1] for b in blocks] == [16, 16, 32, 128]
    assert pts is blocks[-1] and pts.shape[1] == 128


# ---------------------------------------------------------------------------
# the numpy Sobol engine against the scipy.stats.qmc construction it replaced


def scipy_sobol_stack(dim, n, shifts, seed):
    """The stack as `_sobol_stack` built it from scipy.stats.qmc.Sobol."""
    from scipy.stats import qmc

    return np.stack([
        qmc.Sobol(d=dim, scramble=True,
                  seed=np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(dim, n, s)))).random(n)
        for s in range(shifts)])


# every dim, n and shift count below meets every seed; the largest dims and
# point counts are not crossed, to keep each stack under 30 MB
SOBOL_CASES = [(1, 16, 3), (2, 65536, 12), (9, 64, 12), (18, 4096, 12), (18, 65536, 3),
               (44, 64, 3), (189, 16, 12), (189, 4096, 3)]


@pytest.mark.parametrize("seed", [0, 7, 20240801])
@pytest.mark.parametrize("dim, n, shifts", SOBOL_CASES)
def test_sobol_stack_is_scipys_bit_for_bit(dim, n, shifts, seed):
    # __wrapped__ keeps these stacks out of the cache the other tests share
    np.testing.assert_array_equal(_sobol_stack.__wrapped__(dim, n, shifts, seed),
                                  scipy_sobol_stack(dim, n, shifts, seed), strict=True)


def test_sobol_stack_is_read_only():
    stack = _sobol_stack(3, 16, 3, 0)
    assert not stack.flags.writeable
    with pytest.raises(ValueError):
        stack[0, 0, 0] = 0.5


def test_sobol_stack_refuses_a_dim_beyond_the_direction_table():
    # refused before any point is built
    assert len(_sobol_table()[0]) == 21201
    with pytest.raises(ValueError, match="Maximum supported dimensionality is 21201"):
        _sobol_stack.__wrapped__(21202, 16, 3, 0)
