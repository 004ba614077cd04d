import dataclasses

import numpy as np
import pytest

from clmc.data import ClusteredDataset
from clmc.models import (
    FitError,
    gamma_cl_fit,
    gamma_cl_loglik,
    gamma_cl_score,
    mvn_cl_fit,
    mvn_cl_loglik,
    mvn_cl_score,
    mvn_mle_fit,
    naive_fit,
    probit_cl_fit,
    probit_cl_loglik,
    probit_cl_score,
    quadexp_cl_fit,
    quadexp_cl_loglik,
    quadexp_cl_score,
    sandwich,
)
from clmc.simgen import (
    Exchangeable,
    ScenarioSpec,
    generate,
    quadexp_enumeration_oracle,
)


def fd_gradient(f, theta, h=1e-6):
    theta = np.asarray(theta, dtype=float)
    g = np.zeros_like(theta)
    for k in range(len(theta)):
        step = h * max(1.0, abs(theta[k]))
        up, dn = theta.copy(), theta.copy()
        up[k] += step
        dn[k] -= step
        g[k] = (f(up) - f(dn)) / (2.0 * step)
    return g


def fd_hessian(f, theta, h=1e-4):
    theta = np.asarray(theta, dtype=float)
    k = len(theta)
    out = np.zeros((k, k))
    for a in range(k):
        for b in range(k):
            pp, pm, mp, mm = (theta.copy() for _ in range(4))
            pp[a] += h
            pp[b] += h
            pm[a] += h
            pm[b] -= h
            mp[a] -= h
            mp[b] += h
            mm[a] -= h
            mm[b] -= h
            out[a, b] = (f(pp) - f(pm) - f(mp) + f(mm)) / (4.0 * h * h)
    return 0.5 * (out + out.T)


def rel_err(a, b):
    return np.max(np.abs(a - b)) / max(1.0, np.max(np.abs(b)))


class TestSandwich:
    def test_identity(self):
        np.testing.assert_allclose(sandwich(np.eye(3), np.eye(3)), np.eye(3))

    def test_scalar_algebra(self):
        out = sandwich(2.0 * np.eye(2), np.eye(2))
        np.testing.assert_allclose(out, 0.25 * np.eye(2))

    def test_h_equals_j_matches_naive(self):
        rng = np.random.default_rng(0)
        a = rng.standard_normal((3, 3))
        h = a @ a.T + 3 * np.eye(3)
        np.testing.assert_allclose(sandwich(h, h), sandwich(h, h, naive=True), rtol=1e-12)
        np.testing.assert_allclose(sandwich(h, h), np.linalg.inv(h), rtol=1e-10)

    def test_ill_conditioned_rejected(self):
        with pytest.raises(FitError):
            sandwich(np.diag([1.0, 1e-13]), np.eye(2))


class TestMvnFit:
    @pytest.mark.parametrize("y", [(0.0, 1.0), (-1.0, 1.0)], ids=["binary01", "binary_pm1"])
    @pytest.mark.parametrize("fitter", [mvn_cl_fit, mvn_mle_fit], ids=["cl", "mle"])
    def test_binary_responses_are_refused(self, fitter, y):
        d = ClusteredDataset(np.ones((6, 1)), np.tile(y, 3), [2, 2, 2], ["a", "b", "c"])
        with pytest.raises(FitError, match="^gaussian fitters need continuous responses"):
            fitter(d)

    def test_pooled_ols_when_weights_constant(self):
        # m = 1 clusters: the residual covariance is a scalar, so the
        # weighting cancels and the fit must equal pooled least squares
        rng = np.random.default_rng(1)
        x = rng.standard_normal((40, 1, 3))
        y = np.einsum("imp,p->im", x, [1.0, -2.0, 0.5]) + rng.standard_normal((40, 1))
        d = ClusteredDataset(x.reshape(40, 3), y.ravel(), np.ones(40, dtype=int),
                             np.arange(40).astype(str))
        fit = mvn_cl_fit(d)
        pooled, *_ = np.linalg.lstsq(x.reshape(40, 3), y.ravel(), rcond=None)
        np.testing.assert_allclose(fit.beta, pooled, rtol=1e-10)

    def test_tiny_instance_matches_grid_search(self):
        spec = ScenarioSpec("mvn", n=3, m=2, p=1, beta=np.array([0.4]),
                            correlation=Exchangeable(1.0, 0.3), seed=9)
        d = generate(spec)
        fit = mvn_cl_fit(d)

        ys = d.y.reshape(d.n, -1)
        xs = d.x.reshape(d.n, -1, d.p)

        def profile_cl(b):
            r = ys - xs @ np.array([b])
            v = np.mean(r * r, axis=0)
            return np.sum(-0.5 * np.log(2 * np.pi * v) - r * r / (2 * v))

        grid = np.linspace(fit.beta[0] - 0.5, fit.beta[0] + 0.5, 20001)
        best = grid[np.argmax([profile_cl(b) for b in grid])]
        assert fit.beta[0] == pytest.approx(best, abs=1e-4)

    def test_score_zero_at_convergence(self):
        spec = ScenarioSpec("mvn", n=60, m=4, p=3, beta=np.array([0.2, -0.1, 0.0]),
                            correlation=Exchangeable(0.8, 0.2), seed=5)
        d = generate(spec)
        fit = mvn_cl_fit(d)
        assert fit.converged
        s = mvn_cl_score(d, fit.beta, np.diag(fit.nuisance["sigma"]))
        assert np.max(np.abs(s)) < 1e-6

    def test_fd_score_and_hessian(self):
        spec = ScenarioSpec("mvn", n=25, m=3, p=2, beta=np.array([0.3, -0.4]),
                            correlation=Exchangeable(1.0, 0.4), seed=13)
        d = generate(spec)
        fit = mvn_cl_fit(d)
        sigma_diag = np.diag(fit.nuisance["sigma"])
        theta = fit.beta + np.array([0.05, -0.03])
        f = lambda b: mvn_cl_loglik(d, b, sigma_diag)
        assert rel_err(mvn_cl_score(d, theta, sigma_diag), fd_gradient(f, theta)) < 1e-5
        np.testing.assert_allclose(-fd_hessian(f, fit.beta) / d.n, fit.h_hat, rtol=1e-4)

    def test_requires_constant_m(self):
        d = ClusteredDataset(np.zeros((5, 1)), np.arange(5.0) - 2.0, [2, 3], ["0", "1"])
        with pytest.raises(FitError, match="constant cluster size"):
            mvn_cl_fit(d)

    def test_gamma_hat_is_sandwich(self):
        spec = ScenarioSpec("mvn", n=50, m=4, p=3, beta=np.zeros(3),
                            correlation=Exchangeable(0.8, 0.5), seed=3)
        fit = mvn_cl_fit(generate(spec))
        hinv = np.linalg.inv(fit.h_hat)
        np.testing.assert_allclose(fit.gamma_hat, hinv @ fit.j_hat @ hinv, rtol=1e-9)
        assert np.min(np.linalg.eigvalsh(fit.gamma_hat)) > 0

    def test_naive_gamma_is_h_inverse(self):
        spec = ScenarioSpec("mvn", n=50, m=4, p=3, beta=np.zeros(3),
                            correlation=Exchangeable(0.8, 0.5), seed=3)
        fit = naive_fit(mvn_cl_fit(generate(spec)))
        np.testing.assert_allclose(fit.gamma_hat, np.linalg.inv(fit.h_hat), rtol=1e-10)


class TestMvnMle:
    def test_matches_mcle_under_diagonal_truth(self):
        spec = ScenarioSpec("mvn", n=2500, m=4, p=3, beta=np.array([0.1, 0.0, -0.2]),
                            correlation=Exchangeable(0.8, 0.0), seed=21)
        d = generate(spec)
        cl, mle = mvn_cl_fit(d), mvn_mle_fit(d)
        ratio = np.mean(np.sqrt(np.diag(mle.gamma_hat)) / np.sqrt(np.diag(cl.gamma_hat)))
        assert ratio == pytest.approx(1.0, abs=0.02)
        np.testing.assert_allclose(cl.beta, mle.beta, atol=0.02)

    def test_mle_no_less_efficient_under_correlation(self):
        spec = ScenarioSpec("mvn", n=400, m=4, p=5, beta=np.zeros(5),
                            correlation=Exchangeable(0.8, 0.5), seed=22)
        d = generate(spec)
        cl, mle = mvn_cl_fit(d), mvn_mle_fit(d)
        ratio = np.mean(np.sqrt(np.diag(mle.gamma_hat)) / np.sqrt(np.diag(cl.gamma_hat)))
        assert ratio < 1.0


class TestProbitFit:
    def test_fd_score(self):
        spec = ScenarioSpec("probit", n=50, m=2, p=2, beta=np.array([0.5, -0.3]),
                            correlation=Exchangeable(1.0, 0.4), seed=2)
        d = generate(spec)
        theta = np.array([0.3, 0.1])
        f = lambda b: probit_cl_loglik(d, b)
        assert rel_err(probit_cl_score(d, theta), fd_gradient(f, theta)) < 1e-5

    def test_score_zero_at_convergence(self):
        spec = ScenarioSpec("probit", n=50, m=2, p=1, beta=np.array([0.4]), seed=8)
        d = generate(spec)
        fit = probit_cl_fit(d)
        assert fit.converged
        assert np.max(np.abs(probit_cl_score(d, fit.beta))) < 1e-6

    def test_null_truth_estimates_near_zero(self):
        spec = ScenarioSpec("probit", n=4000, m=4, p=3, beta=np.zeros(3),
                            correlation=Exchangeable(1.0, 0.3), seed=4)
        d = generate(spec)
        fit = probit_cl_fit(d)
        se = np.sqrt(np.diag(fit.gamma_hat) / d.n)
        assert np.all(np.abs(fit.beta) < 4.0 * se)

    def test_expected_info_matches_mean_observed_curvature(self):
        spec = ScenarioSpec("probit", n=2000, m=2, p=2, beta=np.array([0.3, -0.2]), seed=6)
        d = generate(spec)
        fit = probit_cl_fit(d)
        per_cluster = []
        for rows in np.split(np.arange(len(d.y)), d.starts[1:]):
            sub = ClusteredDataset(np.tile(d.x[rows], (2, 1)), np.tile(d.y[rows], 2),
                                   [len(rows)] * 2, ["0", "1"])
            h = -fd_hessian(lambda b: 0.5 * probit_cl_loglik(sub, b), fit.beta)
            per_cluster.append(h)
        per_cluster = np.array(per_cluster)
        se = per_cluster.std(axis=0, ddof=1) / np.sqrt(d.n)
        assert np.all(np.abs(per_cluster.mean(axis=0) - fit.h_hat) <= 3.0 * se + 1e-8)

    def test_accepts_pm1_encoding(self):
        spec = ScenarioSpec("probit", n=80, m=2, p=2, beta=np.array([0.5, 0.0]), seed=10)
        d01 = generate(spec)
        pm1 = dataclasses.replace(d01, y=2.0 * d01.y - 1.0)
        np.testing.assert_allclose(probit_cl_fit(d01).beta, probit_cl_fit(pm1).beta, rtol=1e-8)

    def test_separation_raises(self):
        x = np.linspace(-2, 2, 30).reshape(-1, 1)
        y = (x.ravel() > 0).astype(float)
        d = ClusteredDataset(x, y, np.full(15, 2), np.arange(15).astype(str))
        with pytest.raises(FitError):
            probit_cl_fit(d)


class TestQuadexpFit:
    def test_fd_score(self):
        spec = ScenarioSpec("quadexp", n=40, m=(3, 4, 5), p=2,
                            beta=np.array([0.4, -0.2]), w=0.3, seed=3)
        d = generate(spec)
        theta = np.array([0.2, 0.1, 0.15])
        f = lambda th: quadexp_cl_loglik(d, th[:2], th[2])
        analytic = quadexp_cl_score(d, theta[:2], theta[2])
        assert rel_err(analytic, fd_gradient(f, theta)) < 1e-5

    def test_observed_hessian_matches_h_hat(self):
        spec = ScenarioSpec("quadexp", n=60, m=4, p=2, beta=np.array([0.3, 0.1]),
                            w=0.4, seed=11)
        d = generate(spec)
        fit = quadexp_cl_fit(d)
        f = lambda th: quadexp_cl_loglik(d, th[:2], th[2])
        np.testing.assert_allclose(-fd_hessian(f, fit.theta_hat) / d.n, fit.h_hat, rtol=1e-4)

    def test_score_zero_at_convergence(self):
        spec = ScenarioSpec("quadexp", n=100, m=(4, 5, 6, 7, 8), p=3,
                            beta=np.array([0.2, 0.0, -0.1]), w=0.5, seed=12)
        d = generate(spec)
        fit = quadexp_cl_fit(d)
        assert fit.converged
        s = quadexp_cl_score(d, fit.beta, fit.theta_hat[-1])
        assert np.max(np.abs(s)) < 1e-6

    def test_w_zero_reduces_to_independent_logistic(self):
        spec = ScenarioSpec("quadexp", n=50, m=4, p=2, beta=np.array([0.6, -0.4]),
                            w=0.0, seed=14)
        d = generate(spec)
        beta = np.array([0.3, -0.2])
        x, y = d.x, d.y
        t = (y + 1.0) / 2.0
        eta = x @ beta
        indep = float(np.sum(t * eta - np.logaddexp(0.0, eta)))
        assert quadexp_cl_loglik(d, beta, 0.0) == pytest.approx(indep, rel=1e-12)

    def test_w_hat_near_zero_for_independent_truth(self):
        spec = ScenarioSpec("quadexp", n=2000, m=(4, 5, 6, 7, 8), p=3,
                            beta=np.array([0.2, -0.1, 0.0]), w=0.0, seed=15)
        d = generate(spec)
        fit = quadexp_cl_fit(d)
        se_w = np.sqrt(fit.gamma_hat[-1, -1] / d.n)
        assert abs(fit.theta_hat[-1]) < 4.0 * se_w

    def test_conditional_loglik_matches_enumeration(self):
        rng = np.random.default_rng(77)
        for _ in range(10):
            m = int(rng.integers(2, 9))
            p = int(rng.integers(1, 4))
            x = rng.standard_normal((m, p))
            beta = rng.normal(scale=0.5, size=p)
            w = float(rng.normal(scale=0.3))
            configs, probs = quadexp_enumeration_oracle(x, beta, w)
            y = configs[rng.integers(len(configs))]
            exact = 0.0
            for j in range(m):
                rest = np.all(np.delete(configs, j, axis=1) == np.delete(y, j), axis=1)
                exact += np.log(
                    probs[rest & (configs[:, j] == y[j])].sum() / probs[rest].sum()
                )
            d = ClusteredDataset(x, y, [m], ["0"])
            assert quadexp_cl_loglik(d, beta, w) == pytest.approx(exact, abs=1e-10)

    def test_cluster_mean_covariate_option(self):
        spec = ScenarioSpec("quadexp", n=60, m=4, p=2, beta=np.array([0.3, 0.1]),
                            w=0.2, seed=16)
        d = generate(spec)
        fit = quadexp_cl_fit(d, cluster_mean_covariates=True)
        assert fit.converged
        assert fit.theta_hat.shape == (3,)


class TestGammaFit:
    def test_single_point_saturated(self):
        d = ClusteredDataset([[1.0]], [np.e], [1], ["0"])
        fit = gamma_cl_fit(d)
        assert fit.beta[0] == pytest.approx(1.0, abs=1e-8)

    def test_fd_score(self):
        spec = ScenarioSpec("gamma", n=40, m=2, p=2, beta=np.array([0.5, -0.2]),
                            nu=2.0, seed=18)
        d = generate(spec)
        theta = np.array([0.4, -0.1])
        for nu in (1.0, 2.5):
            f = lambda b: gamma_cl_loglik(d, b, nu)
            assert rel_err(gamma_cl_score(d, theta, nu), fd_gradient(f, theta)) < 1e-5

    def test_grid_search_and_exact_dispersion(self):
        spec = ScenarioSpec("gamma", n=100, m=2, p=1, beta=np.array([0.6]), nu=1.5, seed=19)
        d = generate(spec)
        fit = gamma_cl_fit(d)
        x, y = d.x, d.y

        def quasi(b):
            mu = np.exp(x.ravel() * b)
            return np.sum(-y / mu - np.log(mu))

        grid = np.linspace(fit.beta[0] - 0.3, fit.beta[0] + 0.3, 12001)
        best = grid[np.argmax([quasi(b) for b in grid])]
        assert fit.beta[0] == pytest.approx(best, abs=1e-4)

        mu = np.exp(x.ravel() * fit.beta[0])
        dev = 2.0 / (len(y) - 1) * np.sum((y - mu) / mu + np.log(mu / y))
        n = d.n
        inv_nu = dev * (6.0 * (n - 1) + n * dev) / (6.0 * (n - 1) + 2.0 * n * dev)
        assert 1.0 / fit.nuisance["nu"] == pytest.approx(inv_nu, rel=1e-12)

    def test_rejects_nonpositive(self):
        d = ClusteredDataset(np.ones((4, 1)), [1.0, -2.0, 1.0, 2.0], [2, 2], ["0", "1"])
        with pytest.raises(FitError):
            gamma_cl_fit(d)

    @pytest.mark.parametrize("second", [np.zeros(4), np.array([1.0, 2.0, 0.5, 1.5])],
                             ids=["zero column", "repeated column"])
    def test_singular_design_is_a_fit_error(self, second):
        # the harness drops a replicate only on FitError; a LinAlgError would end the run
        x = np.c_[[1.0, 2.0, 0.5, 1.5], second]
        d = ClusteredDataset(x, [1.0, 2.0, 1.5, 0.7], [2, 2], ["0", "1"])
        with pytest.raises(FitError, match="singular design matrix"):
            gamma_cl_fit(d)

    def test_j_hat_psd_and_sandwich_identity(self):
        spec = ScenarioSpec("gamma", n=120, m=3, p=2, beta=np.array([0.4, 0.2]),
                            correlation=Exchangeable(1.0, 0.5), nu=1.0, seed=20)
        fit = gamma_cl_fit(generate(spec))
        assert np.min(np.linalg.eigvalsh(fit.j_hat)) > -1e-10
        hinv = np.linalg.inv(fit.h_hat)
        np.testing.assert_allclose(fit.gamma_hat, hinv @ fit.j_hat @ hinv, rtol=1e-8)

    def test_expected_info_matches_mean_observed_curvature(self):
        spec = ScenarioSpec("gamma", n=3000, m=2, p=2, beta=np.array([0.4, -0.1]),
                            nu=2.0, seed=24)
        d = generate(spec)
        fit = gamma_cl_fit(d)
        nu = fit.nuisance["nu"]
        # observed per-cluster curvature: nu * sum_j (y/mu) x x'
        w = nu * d.y / np.exp(d.x @ fit.beta)
        per_cluster = np.add.reduceat(w[:, None, None] * d.x[:, :, None] * d.x[:, None, :], d.starts)
        se = per_cluster.std(axis=0, ddof=1) / np.sqrt(d.n)
        assert np.all(np.abs(per_cluster.mean(axis=0) - fit.h_hat) <= 3.0 * se + 1e-8)


class TestSizeOneClusters:
    # with one observation per cluster there are no within-cluster pairs, so
    # the sandwich H^-1 J H^-1 equals H^-1 wherever J = H (the information
    # identity).  gamma is left out: its J/H is nu_hat times the mean of
    # (y/mu - 1)^2, so the deviance-based nu_hat's bias shows (at nu = 0.5
    # and 200 000 clusters, nu_hat 0.511-0.512 and a 3-4% gap).  quadexp's
    # association w has no pairs to be estimated from.

    @staticmethod
    def gap(fit):
        hinv = np.linalg.inv(fit.h_hat)
        return np.max(np.abs(fit.gamma_hat - hinv)) / np.max(np.abs(hinv))

    def test_mvn_sandwich_is_h_inverse(self):
        # J = H algebraically: the weight is the inverse residual variance
        spec = ScenarioSpec("mvn", n=20000, m=1, p=3, beta=np.array([0.3, 0.0, -0.2]), seed=3)
        assert self.gap(mvn_cl_fit(generate(spec))) < 1e-12

    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_probit_sandwich_is_h_inverse_in_expectation(self, seed):
        # the gap shrinks like 1/sqrt(n): over 20 seeds its median is 3.0e-2
        # at 2000 clusters and 9.5e-3 at 20 000, where its maximum is 2.1e-2
        spec = ScenarioSpec("probit", n=20000, m=1, p=3, beta=np.array([0.3, 0.0, -0.2]),
                            seed=seed)
        assert self.gap(probit_cl_fit(generate(spec))) < 0.04

    def test_quadexp_is_not_identifiable(self):
        spec = ScenarioSpec("quadexp", n=500, m=1, p=2, beta=np.array([0.3, 0.1]), w=0.2, seed=1)
        with pytest.raises(FitError, match="singular"):
            quadexp_cl_fit(generate(spec))
