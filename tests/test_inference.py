import collections
import dataclasses
import math
import warnings

import numpy as np
import pytest
from scipy.special import chdtri, ndtr

from clmc.data import ContrastFamily, build_contrasts
from clmc.inference import METHODS, adjust, correlation_matrix_V, evaluate_tests
from clmc.inference import test_statistics as t_statistics
from clmc.models import FitResult
from clmc.mvnprob import (
    QmcConfig,
    _UnionBounds,
    equicoordinate_p_values,
    equicoordinate_quantile,
    equicoordinate_rejects,
    mvn_rectangle_prob,
    studentized_range_quantile,
)

FAST = QmcConfig(points_per_shift=1024, shifts=8, target_abs_error=1e-3, seed=42)


def make_fit(theta, gamma, h=None, j=None):
    theta = np.asarray(theta, dtype=float)
    p = len(theta)
    h = np.eye(p) if h is None else h
    j = np.eye(p) if j is None else j
    return FitResult(
        theta_hat=theta,
        h_hat=h,
        j_hat=j,
        gamma_hat=np.asarray(gamma, dtype=float),
        loglik=0.0,
        iterations=1,
        converged=True,
        n_beta=p,
    )


def upper_normal_oracle(tail):
    """-Phi^-1(tail) by bisection on the stdlib's erfc, accurate for a small tail."""
    lo, hi = 0.0, 40.0
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        if 0.5 * math.erfc(mid / math.sqrt(2.0)) > tail:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def exchangeable(c, rho):
    v = np.full((c, c), rho)
    np.fill_diagonal(v, 1.0)
    return v


class TestTestStatistics:
    def test_zero_contrasts_give_zero(self):
        cf = build_contrasts("many_to_one", 4, baseline=1)
        fit = make_fit(np.full(4, 0.7), np.eye(4))
        np.testing.assert_allclose(t_statistics(fit, cf, 100), 0.0)

    def test_direct_arithmetic(self):
        cf = ContrastFamily(np.array([[1.0, 0.0]]), ("h",))
        fit = make_fit([0.2, 0.0], np.eye(2))
        t = t_statistics(fit, cf, 100)
        assert t[0] == pytest.approx(2.0, rel=1e-12)

    def test_matches_matrix_oracle(self):
        rng = np.random.default_rng(8)
        p, c, n = 5, 3, 37
        a = rng.standard_normal((p, p))
        gamma = a @ a.T + p * np.eye(p)
        theta = rng.standard_normal(p)
        cmat = rng.standard_normal((c, p))
        cf = ContrastFamily(cmat, tuple(f"h{i}" for i in range(c)))
        got = t_statistics(make_fit(theta, gamma), cf, n)
        want = np.array(
            [cmat[i] @ theta / np.sqrt(cmat[i] @ gamma @ cmat[i] / n) for i in range(c)]
        )
        np.testing.assert_allclose(got, want, rtol=1e-12)

    def test_uses_leading_block_for_extra_parameters(self):
        # one trailing association parameter beyond the contrast width
        theta = np.array([0.3, -0.1, 0.9])
        gamma = np.diag([1.0, 4.0, 99.0])
        fit = FitResult(theta, np.eye(3), np.eye(3), gamma, 0.0, 1, True, n_beta=2)
        cf = ContrastFamily(np.array([[1.0, -1.0]]), ("h",))
        t = t_statistics(fit, cf, 25)
        want = 0.4 / np.sqrt(5.0 / 25.0)
        assert t[0] == pytest.approx(want, rel=1e-12)

    def test_degenerate_variance_raises(self):
        cf = ContrastFamily(np.array([[1.0, -1.0]]), ("h",))
        gamma = np.ones((2, 2))  # contrast variance exactly zero
        with pytest.raises(ValueError):
            t_statistics(make_fit([1.0, 0.0], gamma), cf, 10)

    def test_row_scale_leaves_the_statistic_as_it_is(self):
        fit = make_fit([0.3, -0.1, 0.2], [[2.0, 0.5, 0.0], [0.5, 1.0, 0.1], [0.0, 0.1, 3.0]])
        base = ContrastFamily(np.array([[1.0, -1.0, 0.0]]), ("h",))
        t = t_statistics(fit, base, 40)
        v = correlation_matrix_V(fit.gamma_hat, base)
        for s in (1e150, 1e160, 1e300, 1e-160, 1e-170, 1e-300):
            cf = ContrastFamily(np.array([[s, -s, 0.0]]), ("h",))
            assert t_statistics(fit, cf, 40) == pytest.approx(t, rel=1e-14)
            np.testing.assert_array_equal(correlation_matrix_V(fit.gamma_hat, cf), v)

    def test_non_finite_contrast_variance_is_refused_by_name(self):
        cf = ContrastFamily(np.array([[1.0, 1.0]]), ("h",))
        fit = make_fit([1.0, 0.0], np.full((2, 2), 1e308))
        with pytest.raises(ValueError, match="^contrast variance C Gamma C' is not finite"):
            t_statistics(fit, cf, 10)
        with pytest.raises(ValueError, match="^C Gamma C' is not finite"):
            correlation_matrix_V(fit.gamma_hat, cf)

    def test_fit_narrower_than_the_contrasts_is_refused(self):
        cf = build_contrasts("many_to_one", 3, baseline=1)
        with pytest.raises(ValueError, match="^theta: contrasts address 3 parameters, fit has 2"):
            t_statistics(make_fit([1.0, 0.0], np.eye(2)), cf, 10)


class TestCorrelationMatrixV:
    def test_identity_gamma_orthogonal_contrasts(self):
        cf = ContrastFamily(np.array([[1.0, 0.0], [0.0, 1.0]]), ("a", "b"))
        np.testing.assert_allclose(correlation_matrix_V(np.eye(2), cf), np.eye(2))

    def test_many_to_one_shared_baseline(self):
        cf = build_contrasts("many_to_one", 3, baseline=1)
        v = correlation_matrix_V(np.eye(3), cf)
        np.testing.assert_allclose(v, [[1.0, 0.5], [0.5, 1.0]], rtol=1e-12)

    def test_scale_invariance(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((4, 4))
        gamma = a @ a.T + 4 * np.eye(4)
        cf = build_contrasts("all_pairwise", 4)
        v1 = correlation_matrix_V(gamma, cf)
        v2 = correlation_matrix_V(7.3 * gamma, cf)
        np.testing.assert_allclose(v1, v2, rtol=1e-12)
        np.testing.assert_allclose(np.diag(v1), 1.0, atol=1e-12)

    def test_zero_contrast_variance_is_refused(self):
        cf = ContrastFamily(np.array([[1.0, -1.0]]), ("h",))
        with pytest.raises(ValueError, match="^zero contrast variance in D"):
            correlation_matrix_V(np.ones((2, 2)), cf)


class TestAdjust:
    def test_bonferroni_threshold_c10(self):
        cf = build_contrasts("many_to_one", 11, baseline=1)
        dec = adjust("bonferroni", np.zeros(10), np.eye(10), 0.05, cf, FAST)
        assert dec.threshold == pytest.approx(2.8070, abs=1e-4)

    def test_all_zero_t_rejects_nothing(self):
        cf = build_contrasts("all_pairwise", 4)
        t = np.zeros(cf.c)
        v = np.eye(cf.c)
        for method in ("bonferroni", "sidak", "holm", "scheffe", "tukey", "mnq"):
            dec = adjust(method, t, v, 0.05, cf, FAST)
            assert not dec.reject.any()
            assert not dec.global_reject

    def test_mnq_matches_sidak_under_independence(self):
        cf = build_contrasts("many_to_one", 11, baseline=1)
        t = np.zeros(10)
        v = np.eye(10)
        mnq = adjust("mnq", t, v, 0.05, cf, FAST)
        sidak = adjust("sidak", t, v, 0.05, cf, FAST)
        bonf = adjust("bonferroni", t, v, 0.05, cf, FAST)
        assert mnq.threshold == pytest.approx(sidak.threshold, abs=1e-3)
        assert sidak.threshold < bonf.threshold

    def test_threshold_ordering_under_positive_exchangeable(self):
        cf = build_contrasts("many_to_one", 11, baseline=1)
        v = exchangeable(10, 0.5)
        t = np.zeros(10)
        mnq = adjust("mnq", t, v, 0.05, cf, FAST).threshold
        sidak = adjust("sidak", t, v, 0.05, cf, FAST).threshold
        bonf = adjust("bonferroni", t, v, 0.05, cf, FAST).threshold
        assert mnq <= sidak + 2e-3 <= bonf + 2e-3

    def test_holm_contains_bonferroni(self):
        rng = np.random.default_rng(5)
        cf = build_contrasts("many_to_one", 9, baseline=1)
        for _ in range(25):
            t = rng.standard_normal(8) * 2.0
            bonf = adjust("bonferroni", t, np.eye(8), 0.05, cf, FAST)
            holm = adjust("holm", t, np.eye(8), 0.05, cf, FAST)
            assert np.all(holm.reject[bonf.reject])
            assert holm.global_reject == bonf.global_reject
            assert np.all(holm.adjusted_p <= bonf.adjusted_p + 1e-12)

    def test_holm_step_down_vs_reference_rule(self):
        cf = build_contrasts("many_to_one", 5, baseline=1)
        t = np.array([3.2, 2.4, 2.0, 0.5])
        dec = adjust("holm", t, np.eye(4), 0.05, cf, FAST)
        p = 2.0 * ndtr(-np.abs(t))
        order = np.argsort(p)
        expect = np.zeros(4, dtype=bool)
        for k, idx in enumerate(order):
            if p[idx] <= 0.05 / (4 - k):
                expect[idx] = True
            else:
                break
        np.testing.assert_array_equal(dec.reject, expect)

    def test_scheffe_uses_contrast_rank(self):
        cf = build_contrasts("all_pairwise", 4)  # rank 3
        dec = adjust("scheffe", np.zeros(6), np.eye(6), 0.05, cf, FAST)
        assert dec.threshold == pytest.approx(np.sqrt(chdtri(3, 0.05)), rel=1e-10)

    def test_tukey_threshold_and_domain(self):
        cf = build_contrasts("all_pairwise", 4)
        dec = adjust("tukey", np.zeros(6), np.eye(6), 0.05, cf, FAST)
        from clmc.mvnprob import studentized_range_quantile

        assert dec.threshold == pytest.approx(
            studentized_range_quantile(4, 0.05) / np.sqrt(2.0), rel=1e-10
        )
        m21 = build_contrasts("many_to_one", 4, baseline=1)
        with pytest.raises(ValueError):
            adjust("tukey", np.zeros(3), np.eye(3), 0.05, m21, FAST)

    def test_permutation_invariance(self):
        rng = np.random.default_rng(11)
        c = 6
        t = rng.standard_normal(c) * 2
        a = rng.standard_normal((c, c))
        v = a @ a.T + c * np.eye(c)
        d = np.sqrt(np.diag(v))
        v = v / np.outer(d, d)
        np.fill_diagonal(v, 1.0)
        cf = ContrastFamily(np.eye(c), tuple(f"h{i}" for i in range(c)))
        perm = rng.permutation(c)
        cfp = ContrastFamily(np.eye(c)[perm], tuple(f"h{i}" for i in perm))
        for method in ("bonferroni", "sidak", "holm", "mnq"):
            d1 = adjust(method, t, v, 0.05, cf, FAST)
            d2 = adjust(method, t[perm], v[np.ix_(perm, perm)], 0.05, cfp, FAST)
            np.testing.assert_array_equal(d1.reject[perm], d2.reject)

    def test_mnq_adjusted_p(self):
        cf = build_contrasts("many_to_one", 4, baseline=1)
        t = np.array([3.5, 1.0, 0.0])
        dec = adjust("mnq", t, exchangeable(3, 0.4), 0.05, cf, FAST)
        assert dec.adjusted_p is not None
        assert np.all((dec.adjusted_p >= 0) & (dec.adjusted_p <= 1))
        assert dec.adjusted_p[0] < dec.adjusted_p[1] < dec.adjusted_p[2]

    # FAST's stack is too small for a prefix stage; QmcConfig()'s p-values start on its prefix
    @pytest.mark.parametrize("v, cfg", [
        (v, cfg) for cfg in (FAST, QmcConfig()) for v in (
            exchangeable(6, 0.4),
            build_contrasts("all_pairwise", 4).matrix @ build_contrasts("all_pairwise", 4).matrix.T / 2,
            np.ones((6, 6)),
        )
    ], ids=["exchangeable", "all-pairwise-rank-3", "rank-1",
            "exchangeable-cli", "all-pairwise-rank-3-cli", "rank-1-cli"])
    def test_mnq_adjusted_p_is_below_alpha_exactly_above_the_cutoff(self, v, cfg):
        # the decisions are equicoordinate_rejects', and the printed cutoff
        # and p-values agree with them exactly.  The cutoff solves P(q) =
        # 1 - alpha only to target_abs_error / 200, about 5e-5 in q, so off
        # the root both rules agree with |t| > cut; at the root (the last
        # row) the printed cutoff may move below it
        c = len(v)
        cf = ContrastFamily(np.eye(c), tuple(f"h{i}" for i in range(c)))
        cut = adjust("mnq", np.zeros(c), v, 0.05, cf, cfg).threshold
        for offsets in ([-0.5, -0.05, -1e-3, 1e-3, 0.05, 0.5], [-2.0, -5e-3, 2e-3, -2e-3, 5e-3, 3.0],
                        [-1e-4, 1e-4, -2e-4, 2e-4, -4e-4, 4e-4], [0.0, -1e-4, 1e-4, -1.0, 1.0, -3.0]):
            t = (cut + np.array(offsets)) * np.array([1, -1, 1, -1, 1, -1])
            dec = adjust("mnq", t, v, 0.05, cf, cfg)
            np.testing.assert_array_equal(dec.reject, equicoordinate_rejects(v, t, 0.05, cfg))
            np.testing.assert_array_equal(dec.reject, np.abs(t) > dec.threshold)
            np.testing.assert_array_equal(dec.reject, dec.adjusted_p <= 0.05)
            if offsets[0] != 0.0:
                assert dec.threshold == cut

    def test_mnq_adjusted_p_is_the_rectangle_estimate_or_the_bounds_midpoint(self):
        # with a target no SE misses, neither the quantile nor the rectangle
        # probability doubles its points, so both integrate on the same stack.
        # Above the univariate cutoff (2.9 and 2.2) the union bounds lie within
        # that target of each other, so those p-values are their midpoints
        cfg = QmcConfig(points_per_shift=256, shifts=4, target_abs_error=1.0, seed=3)
        cf = build_contrasts("many_to_one", 5, baseline=1)
        v = exchangeable(4, 0.5)
        t = np.array([2.9, -0.3, 1.7, -2.2])
        dec = adjust("mnq", t, v, 0.05, cf, cfg)
        rect = [1.0 - mvn_rectangle_prob(-np.full(4, a), np.full(4, a), v, cfg).value for a in (0.3, 1.7)]
        assert dec.adjusted_p[1:3].tolist() == rect
        assert dec.adjusted_p[[0, 3]].tolist() == [0.5 * sum(_UnionBounds(v)(a)) for a in (2.9, 2.2)]

    def test_mnq_adjusted_p_meets_the_target_off_the_cutoff(self):
        # the quantile's 256 points meet the target near P = 0.95 but not at
        # mid-range P; off the cutoff the p-values grow their points by the
        # rectangle probability's 3-SE rule, and equal it
        cfg = QmcConfig(points_per_shift=256, shifts=4, target_abs_error=5e-4, seed=3)
        cf = build_contrasts("all_pairwise", 10)
        v = cf.matrix @ cf.matrix.T / 2
        t = np.linspace(1.5, 3.5, 45)
        dec = adjust("mnq", t, v, 0.05, cf, cfg)
        single = dataclasses.replace(cfg, target_abs_error=1.0)
        undoubled = [mvn_rectangle_prob(-np.full(45, a), np.full(45, a), v, single) for a in t]
        assert max(r.std_error for r in undoubled) > cfg.target_abs_error
        rect = [mvn_rectangle_prob(-np.full(45, a), np.full(45, a), v, cfg) for a in t]
        assert max(3 * r.std_error for r in rect) <= cfg.target_abs_error
        assert dec.adjusted_p.tolist() == [1.0 - r.value for r in rect]

    def test_upper_tail_cutoffs_keep_a_small_alpha(self):
        # Phi^-1(1 - tail) rounded the tail: at alpha = 1e-12 and c = 45
        # Bonferroni read 7.63717 for 7.63707
        cf = build_contrasts("all_pairwise", 10)
        alpha = 1e-12
        bonf = adjust("bonferroni", np.zeros(45), np.eye(45), alpha, cf, FAST).threshold
        sidak = adjust("sidak", np.zeros(45), np.eye(45), alpha, cf, FAST).threshold
        assert bonf == pytest.approx(upper_normal_oracle(alpha / 90), rel=1e-12)
        assert round(bonf, 5) == 7.63707
        # Sidak's tail (1 - (1 - alpha)^(1/c)) / 2 is alpha/(2c) (1 + (c - 1) alpha/(2c) + O(alpha^2))
        assert sidak == pytest.approx(upper_normal_oracle(alpha / 90 * (1 + 44 * alpha / 90)), rel=1e-12)
        assert studentized_range_quantile(2, alpha) == pytest.approx(
            np.sqrt(2.0) * upper_normal_oracle(alpha / 2), rel=1e-12)

    @pytest.mark.parametrize("method", ["bonferroni", "sidak"])
    def test_reject_iff_adjusted_p_at_most_alpha_near_a_small_alpha_cutoff(self, method):
        cf = build_contrasts("all_pairwise", 10)
        cut = adjust(method, np.zeros(45), np.eye(45), 1e-12, cf, FAST).threshold
        t = np.append(cut * (1.0 + np.linspace(-1e-9, 1e-9, 44)), 0.0)
        dec = adjust(method, t, np.eye(45), 1e-12, cf, FAST)
        assert dec.reject.sum() == 22
        np.testing.assert_array_equal(dec.reject, dec.adjusted_p <= 1e-12)

    def test_an_alpha_that_1_minus_alpha_rounds_away(self):
        # at alpha = 1e-17 every cutoff was inf: Bonferroni and Sidak accepted
        # |t| = 12, adjusted p 1.6e-31, which Holm rejected, and mnq warned in
        # its search and printed 1.797e308.  mnq now refuses alpha by name;
        # its decisions need no search
        cf = build_contrasts("all_pairwise", 10)
        v = cf.matrix @ cf.matrix.T / 2.0
        t = np.zeros(45)
        t[3] = -12.0
        for method in ("bonferroni", "sidak", "holm"):
            dec = adjust(method, t, np.eye(45), 1e-17, cf, FAST)
            assert dec.reject.tolist() == [i == 3 for i in range(45)]
            np.testing.assert_array_equal(dec.reject, dec.adjusted_p <= 1e-17)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=r"^alpha 1e-17 is too small for the mnq cutoff search: "
                                                 r"1 - alpha rounds to 1$"):
                adjust("mnq", t, v, 1e-17, cf, FAST)
            assert equicoordinate_rejects(v, t, 1e-17, FAST).tolist() == [i == 3 for i in range(45)]

    def test_mnq_prepares_v_once(self, monkeypatch):
        # adjust("mnq") once validated V three times, factored it twice and
        # built its union bounds twice; the numbers are the three public calls'
        import clmc.mvnprob as mod

        counts = collections.Counter()

        def spy(name, real):
            def wrapped(*args):
                counts[name] += 1
                return real(*args)
            return wrapped

        for name in ("_prepare_correlation", "_trapezoidal_cholesky"):
            monkeypatch.setattr(mod, name, spy(name, getattr(mod, name)))
        monkeypatch.setattr(mod._UnionBounds, "__init__", spy("bounds", mod._UnionBounds.__init__))
        cf = build_contrasts("all_pairwise", 5)
        rng = np.random.default_rng(4)
        a = rng.standard_normal((5, 8))
        v = correlation_matrix_V(a @ a.T, cf)
        t = np.array([2.9, -2.2, 0.3, 1.0, 0.0, -0.5, 2.5, 0.1, 1.7, -3.4])
        dec = adjust("mnq", t, v, 0.05, cf, FAST)
        assert counts == {"_prepare_correlation": 1, "_trapezoidal_cholesky": 1, "bounds": 1}
        monkeypatch.undo()
        reject = equicoordinate_rejects(v, t, 0.05, FAST)
        p = equicoordinate_p_values(v, t, 0.05, FAST)
        np.testing.assert_array_equal(dec.reject, reject)
        np.testing.assert_array_equal(
            dec.adjusted_p, np.where(reject, np.minimum(p, 0.05), np.maximum(p, np.nextafter(0.05, 1.0))))
        assert dec.threshold == np.clip(equicoordinate_quantile(v, 0.05, FAST), np.abs(t)[~reject].max(),
                                        np.nextafter(np.abs(t)[reject].min(initial=np.inf), 0.0))

    def test_unknown_method(self):
        cf = build_contrasts("many_to_one", 3, baseline=1)
        with pytest.raises(ValueError):
            adjust("fdr", np.zeros(2), np.eye(2), 0.05, cf, FAST)

    @pytest.mark.parametrize("t, alpha, message", [
        (np.zeros(2), 1.5, r"alpha must be in \(0, 1\)"),
        (np.zeros(3), 0.05, "statistics and contrast family sizes differ"),
        # mnq once doubled a NaN p-value to the cap and returned it; the
        # other methods accepted the row
        (np.array([np.nan, 1.0]), 0.05, "statistic 0 is nan; statistics must be finite"),
    ], ids=["alpha", "size-mismatch", "not-finite"])
    def test_bad_call_is_refused_by_name(self, t, alpha, message):
        cf = build_contrasts("many_to_one", 3, baseline=1)
        for method in METHODS:
            with pytest.raises(ValueError, match=f"^{message}"):
                adjust(method, t, np.eye(2), alpha, cf, FAST)


class TestEvaluateTests:
    def test_naive_equals_full_when_h_equals_j(self):
        rng = np.random.default_rng(17)
        p = 4
        a = rng.standard_normal((p, p))
        h = a @ a.T + p * np.eye(p)
        theta = rng.standard_normal(p) * 0.2
        from clmc.models import sandwich

        full = make_fit(theta, sandwich(h, h), h=h, j=h)
        naive = make_fit(theta, sandwich(h, h, naive=True), h=h, j=h)
        cf = build_contrasts("many_to_one", p, baseline=1)
        r_full = evaluate_tests(full, cf, 50, 0.05, ("mnq", "bonferroni"), FAST)
        r_naive = evaluate_tests(naive, cf, 50, 0.05, ("mnq", "bonferroni"), FAST)
        np.testing.assert_allclose(r_full.t_stats, r_naive.t_stats, rtol=1e-10)
        np.testing.assert_allclose(r_full.v_hat, r_naive.v_hat, rtol=1e-10)
        for m in ("mnq", "bonferroni"):
            np.testing.assert_array_equal(
                r_full.decisions[m].reject, r_naive.decisions[m].reject
            )

    def test_report_shape_and_global_flag(self):
        cf = build_contrasts("many_to_one", 3, baseline=1)
        fit = make_fit([1.0, 0.0, 0.0], np.eye(3))
        report = evaluate_tests(fit, cf, 400, 0.05, ("bonferroni", "holm"), FAST)
        assert report.t_stats.shape == (2,)
        assert report.labels == cf.labels
        assert report.decisions["bonferroni"].global_reject
        assert report.decisions["bonferroni"].reject[0]

    def test_mnq_threshold_below_bonferroni(self):
        rng = np.random.default_rng(23)
        for _ in range(5):
            c = int(rng.integers(2, 7))
            a = rng.standard_normal((c, c + 1))
            v = a @ a.T
            d = np.sqrt(np.diag(v))
            v = v / np.outer(d, d)
            np.fill_diagonal(v, 1.0)
            cf = ContrastFamily(np.eye(c), tuple(f"h{i}" for i in range(c)))
            mnq = adjust("mnq", np.zeros(c), v, 0.05, cf, FAST)
            bonf = adjust("bonferroni", np.zeros(c), v, 0.05, cf, FAST)
            assert mnq.threshold <= bonf.threshold + 1e-9
