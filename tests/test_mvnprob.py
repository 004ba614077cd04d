import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st
from scipy import integrate, linalg
from scipy.special import ndtr, ndtri

from clmc.data import build_contrasts
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
    _mean_se,
    _next_pow2,
    _prepare_correlation,
    _quantile,
    _secant,
    _sobol_stack,
    _trapezoidal_cholesky,
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


def test_qmc_config_validation():
    with pytest.raises(ValueError):
        QmcConfig(points_per_shift=8)
    with pytest.raises(ValueError):
        QmcConfig(shifts=2)
    with pytest.raises(ValueError):
        QmcConfig(target_abs_error=0.0)


def test_prob_estimate_validation():
    with pytest.raises(ValueError):
        ProbEstimate(1.5, 0.0)
    with pytest.raises(ValueError):
        ProbEstimate(0.5, -1.0)


# ---------------------------------------------------------------------------
# rank-deficient V: exact oracles, edge cases, and the full-rank golden values

# the simulations' QMC settings before they moved to QmcConfig(): a stack too
# small for a prefix stage, whose search cutoffs GOLDEN records
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
    def test_low_rank_matches_the_row_loop(self, c, rank, seed):
        load = np.random.default_rng(seed).standard_normal((c, min(rank, c - 1)))
        cov = load @ load.T
        d = np.sqrt(np.diag(cov))
        v = _prepare_correlation(cov / np.outer(d, d))
        want, want_stage, _ = row_loop_cholesky(v)
        pivot = np.min(np.abs(want[np.arange(c), want_stage]))
        # the two forms sum the same terms in another order; a pivot p carries
        # that rounding as about c eps / p^2, and where this nears _RANK_TOL
        # the rank itself is decided by rounding
        noise = c * np.finfo(float).eps / pivot**2
        assume(noise <= _RANK_TOL / 100)
        self.assert_matches_row_loop(v, max(1e-12, 16 * noise))


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

    def test_rank_one_is_the_univariate_cutoff(self):
        assert equicoordinate_quantile(np.ones((3, 3)), 0.05, FAST) == ndtri(0.975)
        assert _quantile(np.ones((3, 3)), 0.05, FAST).passes == 0

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
FACTOR_V = [factor_model_corr(12, 3, _FACTOR_RNG) for _ in range(3)]


def _exchangeable(c, rho):
    v = np.full((c, c), rho)
    np.fill_diagonal(v, 1.0)
    return v


# cutoffs of the secant root on the QMC estimate, at the CLI's and the
# harness's settings (the CLI's after its prefix stage); a change of engine
# that moves them records the move
GOLDEN = [
    ("many-to-one p10", lambda: family_corr("many_to_one", 10), 2.6862211031950256, 2.686099242399252),
    ("many-to-one p20", lambda: family_corr("many_to_one", 20), 2.891573580187471, 2.8897976010618436),
    ("exchangeable 0.3 c8", lambda: _exchangeable(8, 0.3), 2.7029435698223536, 2.7028890323046393),
    ("gamma-null-correlated", _gamma_null_corr, 2.6870630293781854, 2.68719459802257),
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


class TestQuantileRoot:
    @pytest.mark.parametrize("name", QMC_CONFIGS)
    @pytest.mark.parametrize(
        "make",
        [g[1] for g in GOLDEN] + [lambda: family_corr("all_pairwise", 10)],
        ids=[g[0] for g in GOLDEN] + ["all-pairwise p10"],
    )
    def test_at_most_four_passes(self, make, name):
        # passes over the full stack; the CLI's stack is large enough for a
        # prefix stage, after which the full stack takes one or two steps
        qmc = QMC_CONFIGS[name]
        res = _quantile(make(), 0.05, qmc)
        doublings = (res.points_per_shift // _next_pow2(qmc.points_per_shift)).bit_length() - 1
        assert res.passes - doublings <= {"cli": 3, "harness": 4}[name]

    def test_only_large_stacks_make_prefix_passes(self):
        v = family_corr("many_to_one", 10)
        assert _quantile(v, 0.05, HARNESS).prefix_passes == 0
        assert _quantile(v, 0.05, QmcConfig()).prefix_passes > 0

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

    @pytest.mark.parametrize("name, points", [
        *(pytest.param(name, 4096, id=name) for name in P_VALUE_V),
        *(pytest.param(name, 1024, id=f"{name} at 1024 points") for name in P_VALUE_V),
    ])
    def test_cli_adjusted_p_meets_the_target_against_a_fine_reference(self, name, points):
        # the p-values start on a prefix of the quantile's stack, or on the
        # whole of a 1024-point stack, which has no prefix stage; the target is
        # a bound on their true error
        cfg = QmcConfig(points_per_shift=points)
        _, p = equicoordinate_quantile(P_VALUE_V[name], 0.05, cfg, p_values_at=P_VALUE_T)
        np.testing.assert_allclose(p, FINE_EXCEED[name], rtol=0.0, atol=cfg.target_abs_error)

    @pytest.mark.parametrize("qmc", QMC_CONFIGS.values(), ids=QMC_CONFIGS.keys())
    def test_near_rank_one_exchangeable(self, qmc):
        # rho = 0.9999: P(q) hugs the univariate law, and the root the lower end
        res = _quantile(_exchangeable(10, 0.9999), 0.05, qmc)
        assert ndtri(0.975) <= res.q < ndtri(1.0 - 0.05 / 20)
        assert res.q == pytest.approx(ndtri(0.975), abs=0.05)


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
    """A list that records (t, points per shift, P, SE) for every integrand
    pass equicoordinate_rejects makes."""
    import clmc.mvnprob as mod

    calls, real = [], mod._conditioned_means

    def spy(a, b, chol, stage, points):
        means = real(a, b, chol, stage, points)
        calls.append((float(b[0]), points.shape[1], *_mean_se(means)))
        return means

    monkeypatch.setattr(mod, "_conditioned_means", spy)
    return calls


# Six 12 x 12 factor-model V (the first three are FACTOR_V) and statistics
# planted where P(max_i |Z_i| <= t) lies about 1.1e-3 and 2.2e-3 (just over
# two and four QmcConfig() targets) either side of 0.95.  CONTRACT_P is the
# fine reference at each t: the mean of 4 seeds (11-14) at 2^17 x 12 points,
# SE at most 2e-5.
_CONTRACT_RNG = np.random.default_rng(0)
CONTRACT_V = [factor_model_corr(12, 3, _CONTRACT_RNG) for _ in range(6)]
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

    def test_far_statistics_are_settled_on_the_first_prefix(self, monkeypatch):
        # exchangeable rho = 0.9: the cutoff lies near the univariate 1.96,
        # far from both statistics; the larger one is taken first
        calls = _spy_passes(monkeypatch)
        t = np.array([0.0, 2.0, -2.7, 0.5, 0.0, 0.0, 0.0, 0.0])
        got = equicoordinate_rejects(_exchangeable(8, 0.9), t, 0.05, QmcConfig())
        np.testing.assert_array_equal(got, np.abs(t) > 2.5)
        assert [(x, n) for x, n, _, _ in calls] == [(2.7, 64), (2.0, 64)]

    @pytest.mark.parametrize("name", DECISION_CONFIGS)
    def test_statistic_at_the_cutoff_is_sized_on_the_whole_stack(self, name, monkeypatch):
        # P at the search's root is within its root tolerance of 1 - alpha,
        # so no prefix settles its side: the prefix doubles to the whole
        # stack, where 1 SE fits in the target
        cfg = DECISION_CONFIGS[name]
        v = family_corr("many_to_one", 20)
        t = np.zeros(19)
        t[4] = equicoordinate_quantile(v, 0.05, cfg)
        calls = _spy_passes(monkeypatch)
        equicoordinate_rejects(v, t, 0.05, cfg)
        assert [n for _, n, _, _ in calls] == [64 << k for k in range(len(calls))]
        assert all(abs(p - 0.95) <= 4 * se for _, _, p, se in calls)
        assert calls[-1][1] >= cfg.points_per_shift and calls[-1][3] <= cfg.target_abs_error

    @pytest.mark.parametrize("name", DECISION_CONFIGS)
    def test_no_pass_when_every_statistic_is_outside_the_bounds(self, name, monkeypatch):
        import clmc.mvnprob as mod

        def never(*args):
            raise AssertionError("integrand evaluated")

        v = family_corr("many_to_one", 10)
        lo, hi = ndtri(0.975), ndtri(1.0 - 0.05 / 18)
        t = np.array([0.0, -lo, lo, hi + 1e-12, -4.0, 1.0, -0.5, 10.0, 0.1])
        monkeypatch.setattr(mod, "_conditioned_means", never)
        np.testing.assert_array_equal(equicoordinate_rejects(v, t, 0.05, DECISION_CONFIGS[name]),
                                      np.abs(t) > lo)

    def test_rank_one_cutoff_is_the_univariate_one_without_a_pass(self, monkeypatch):
        # every |Z_i| equals |Z_1|, so P(t) > 1 - alpha exactly when t > lo
        calls = _spy_passes(monkeypatch)
        lo = ndtri(0.975)
        t = np.array([lo, -np.nextafter(lo, 3.0), 2.2, -1.0, 2.5, lo - 1e-12])
        got = equicoordinate_rejects(_rank_one(6, np.random.default_rng(3)), t, 0.05, QmcConfig())
        np.testing.assert_array_equal(got, np.abs(t) > lo)
        assert calls == []

    def test_statistics_must_match_the_dimension(self):
        with pytest.raises(ValueError, match="dimension"):
            equicoordinate_rejects(np.eye(3), np.zeros(4), 0.05, TINY)
