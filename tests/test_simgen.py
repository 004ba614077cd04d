import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtr
from scipy.stats import chi2

from clmc.simgen import (
    MODELS,
    UNSTRUCTURED_SIGMA_M4,
    Exchangeable,
    ScenarioSpec,
    Unstructured,
    generate,
    quadexp_enumeration_oracle,
)


def datasets_equal(a, b):
    return (a.response_kind == b.response_kind
            and all(np.array_equal(getattr(a, k), getattr(b, k)) for k in ("cluster_sizes", "ids", "y", "x")))


def by_cluster(d, values):
    """Rows of a constant-size dataset as an (n, m) array."""
    return values.reshape(d.n, -1)


def draw_at(spec, fx):
    """The (n, m) responses of spec.model with every cluster's design pinned
    to fx, from the generator seeded with spec.seed: `generate`'s draw for
    covariates fx, since a fixed size m consumes no random numbers."""
    n, m = spec.n, len(fx)
    draw = MODELS[spec.model][0]
    return draw(spec, np.tile(fx, (n, 1)), np.full(n, m), np.random.default_rng(spec.seed)).reshape(n, m)


class TestDeterminism:
    @pytest.mark.parametrize(
        "spec",
        [
            ScenarioSpec("mvn", 20, 4, 2, np.zeros(2), Exchangeable(0.8, 0.2), seed=5),
            ScenarioSpec("probit", 20, 3, 2, np.zeros(2), Exchangeable(1.0, 0.5), seed=5),
            ScenarioSpec("quadexp", 20, (4, 5, 6), 2, np.zeros(2), w=0.5, seed=5),
            ScenarioSpec("gamma", 20, 3, 2, np.full(2, 0.5), nu=1.0, seed=5),
        ],
        ids=["mvn", "probit", "quadexp", "gamma"],
    )
    def test_same_seed_same_dataset(self, spec):
        assert datasets_equal(generate(spec), generate(spec))
        assert not datasets_equal(generate(spec), generate(spec, seed=99))


class TestGenMvn:
    def test_independent_residual_covariance(self):
        spec = ScenarioSpec("mvn", 4000, 4, 2, np.array([0.5, -0.5]),
                            Exchangeable(0.8, 0.0), seed=1)
        d = generate(spec)
        resid = by_cluster(d, d.y - d.x @ spec.beta)
        cov = resid.T @ resid / d.n
        se = 0.8 / math.sqrt(d.n)
        off = cov[~np.eye(4, dtype=bool)]
        assert np.all(np.abs(off) < 3 * se)
        assert np.all(np.abs(np.diag(cov) - 0.8) < 4 * se)

    def test_unstructured_sigma_accepted(self):
        spec = ScenarioSpec("mvn", 6000, 4, 2, np.zeros(2),
                            Unstructured(UNSTRUCTURED_SIGMA_M4), seed=2)
        d = generate(spec)
        ys = by_cluster(d, d.y)
        cov = ys.T @ ys / d.n
        assert np.max(np.abs(cov - UNSTRUCTURED_SIGMA_M4)) < 0.15

    def test_sigma_matrix_is_positive_definite(self):
        assert np.min(np.linalg.eigvalsh(UNSTRUCTURED_SIGMA_M4)) > 0


class TestGenProbit:
    def test_null_marginal_is_half(self):
        spec = ScenarioSpec("probit", 3000, 4, 2, np.zeros(2), Exchangeable(1.0, 0.5), seed=3)
        d = generate(spec)
        ys = d.y
        se = 0.5 / math.sqrt(len(ys))
        assert abs(ys.mean() - 0.5) < 3 * se

    def test_independent_within_cluster(self):
        spec = ScenarioSpec("probit", 6000, 2, 1, np.zeros(1), Exchangeable(1.0, 0.0), seed=4)
        d = generate(spec)
        ys = by_cluster(d, d.y)
        corr = np.corrcoef(ys[:, 0], ys[:, 1])[0, 1]
        assert abs(corr) < 3.0 / math.sqrt(d.n)

    def test_concordance_matches_orthant_probability(self):
        rho = 0.5
        spec = ScenarioSpec("probit", 20000, 2, 1, np.zeros(1), Exchangeable(1.0, rho), seed=5)
        d = generate(spec)
        ys = by_cluster(d, d.y)
        both = np.mean((ys[:, 0] == 1) & (ys[:, 1] == 1))

        def dens(v, u):
            det = 1 - rho * rho
            return math.exp(-(u * u - 2 * rho * u * v + v * v) / (2 * det)) / (
                2 * math.pi * math.sqrt(det)
            )

        orthant, _ = integrate.dblquad(dens, 0, 8, lambda _: 0, lambda _: 8, epsabs=1e-9)
        se = math.sqrt(orthant * (1 - orthant) / d.n)
        assert abs(both - orthant) < 3 * se
        assert orthant == pytest.approx(1.0 / 3.0, abs=1e-6)

    def test_rejects_nonunit_scale(self):
        with pytest.raises(ValueError):
            ScenarioSpec("probit", 10, 2, 1, np.zeros(1), Exchangeable(0.8, 0.0), seed=6)


class TestEnumerationOracle:
    def test_m1_two_point(self):
        x = np.array([[0.7]])
        configs, probs = quadexp_enumeration_oracle(x, np.array([1.2]), 0.0)
        mu = 0.7 * 1.2
        want_plus = 1.0 / (1.0 + math.exp(-mu))
        idx_plus = np.flatnonzero(configs[:, 0] == 1.0)[0]
        assert probs[idx_plus] == pytest.approx(want_plus, rel=1e-12)

    def test_constant_mu_depends_only_on_count(self):
        x = np.ones((4, 1))
        configs, probs = quadexp_enumeration_oracle(x, np.array([0.3]), 0.7)
        z = (configs == 1.0).sum(axis=1)
        for k in range(5):
            vals = probs[z == k]
            np.testing.assert_allclose(vals, vals[0], rtol=1e-12)

    def test_normalization(self):
        rng = np.random.default_rng(9)
        configs, probs = quadexp_enumeration_oracle(
            rng.standard_normal((3, 2)), rng.normal(size=2), 0.4
        )
        assert probs.sum() == pytest.approx(1.0, abs=1e-14)

    def test_m_bound(self):
        with pytest.raises(ValueError):
            quadexp_enumeration_oracle(np.zeros((21, 1)), np.zeros(1), 0.0)


class TestGenQuadexp:
    def test_w_zero_marginals(self):
        rng = np.random.default_rng(10)
        fx = rng.standard_normal((4, 2))
        beta = np.array([0.5, -0.3])
        spec = ScenarioSpec("quadexp", 20000, 4, 2, beta, w=0.0, seed=10)
        ys = draw_at(spec, fx)
        p_plus = 1.0 / (1.0 + np.exp(-fx @ beta))
        emp = (ys == 1.0).mean(axis=0)
        se = np.sqrt(p_plus * (1 - p_plus) / spec.n)
        assert np.all(np.abs(emp - p_plus) < 3.5 * se)

    def test_uniform_case_chi_square(self):
        m = 4
        spec = ScenarioSpec("quadexp", 32000, m, 1, np.zeros(1), w=0.0, seed=11)
        ys = draw_at(spec, np.zeros((m, 1)))
        codes = ((ys + 1) / 2 * (2 ** np.arange(m))).sum(axis=1).astype(int)
        counts = np.bincount(codes, minlength=2**m)
        expected = spec.n / 2**m
        stat = float(((counts - expected) ** 2 / expected).sum())
        assert stat < chi2.ppf(0.99, 2**m - 1)

    def test_interaction_frequencies_match_z_form(self):
        m, w = 4, 0.5
        spec = ScenarioSpec("quadexp", 40000, m, 1, np.zeros(1), w=w, seed=12)
        zs = (draw_at(spec, np.zeros((m, 1))) == 1.0).sum(axis=1)
        # with zero main effects the cluster total z is sufficient:
        # P(z) ~ C(m, z) exp(-w z (m - z))
        weights = np.array(
            [math.comb(m, z) * math.exp(-w * z * (m - z)) for z in range(m + 1)]
        )
        pz = weights / weights.sum()
        emp = np.bincount(zs, minlength=m + 1) / spec.n
        se = np.sqrt(pz * (1 - pz) / spec.n)
        assert np.all(np.abs(emp - pz) < 3.5 * se + 1e-12)

    def test_total_variation_against_oracle(self):
        rng = np.random.default_rng(13)
        fx = rng.standard_normal((4, 2)) * 0.5
        beta = np.array([0.4, -0.2])
        w = 0.3
        spec = ScenarioSpec("quadexp", 100000, 4, 2, beta, w=w, seed=13)
        ys = draw_at(spec, fx)
        configs, probs = quadexp_enumeration_oracle(fx, beta, w)
        codes = ((ys + 1) / 2 * (2 ** np.arange(4))).sum(axis=1).astype(int)
        oracle_codes = ((configs + 1) / 2 * (2 ** np.arange(4))).sum(axis=1).astype(int)
        emp = np.bincount(codes, minlength=16) / spec.n
        table = np.zeros(16)
        table[oracle_codes] = probs
        tv = 0.5 * np.abs(emp - table).sum()
        assert tv < 0.02

    def test_probit_rho0_matches_independent_bernoulli(self):
        # same configuration distribution: two-sample chi-square on 2^m cells
        fx = np.array([[0.3], [-0.6], [1.0]])
        beta = np.array([0.8])
        n = 20000
        spec = ScenarioSpec("probit", n, 3, 1, beta, Exchangeable(1.0, 0.0), seed=14)
        ys = draw_at(spec, fx)
        codes1 = (ys * (2 ** np.arange(3))).sum(axis=1).astype(int)
        rng = np.random.default_rng(15)
        pr = ndtr(fx @ beta)
        bern = (rng.random((n, 3)) < pr).astype(float)
        codes2 = (bern * (2 ** np.arange(3))).sum(axis=1).astype(int)
        c1 = np.bincount(codes1, minlength=8)
        c2 = np.bincount(codes2, minlength=8)
        # two-sample chi-square with pooled expectation
        pooled = (c1 + c2) / (2.0 * n)
        keep = pooled > 0
        stat = float(
            (((c1 - n * pooled) ** 2 / (n * pooled))[keep]).sum()
            + (((c2 - n * pooled) ** 2 / (n * pooled))[keep]).sum()
        )
        assert stat < chi2.ppf(0.99, keep.sum() - 1)

    def test_m_bound(self):
        with pytest.raises(ValueError):
            ScenarioSpec("quadexp", 5, 21, 1, np.zeros(1), w=0.0, seed=16)


class TestGenGamma:
    def test_independent_mean_one_ratio(self):
        spec = ScenarioSpec("gamma", 4000, 3, 2, np.array([0.5, 0.2]), nu=2.0, seed=17)
        d = generate(spec)
        ratios = d.y / np.exp(d.x @ spec.beta)
        se = 1.0 / math.sqrt(2.0 * len(ratios))  # var(y/mu) = 1/nu
        assert abs(ratios.mean() - 1.0) < 3 * se

    def test_shared_component_correlation(self):
        rho, nu = 0.5, 1.0
        spec = ScenarioSpec("gamma", 8000, 3, 1, np.zeros(1),
                            Exchangeable(1.0, rho), nu=nu, seed=19)
        d = generate(spec)
        scaled = by_cluster(d, d.y / np.exp(d.x @ spec.beta))
        corr = np.corrcoef(scaled.T)
        off = corr[~np.eye(3, dtype=bool)]
        assert np.all(np.abs(off - rho) < 0.06)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec("mvn", 1, 4, 2, np.zeros(2))
        with pytest.raises(ValueError):
            ScenarioSpec("mvn", 10, 4, 2, np.zeros(3))
        with pytest.raises(ValueError):
            ScenarioSpec("weibull", 10, 4, 2, np.zeros(2))
        with pytest.raises(ValueError):
            ScenarioSpec("mvn", 10, 4, 2, np.zeros(2), Exchangeable(0.8, 1.5))

    @pytest.mark.parametrize("m", [(), 0, (4, 0)], ids=["empty-list", "zero", "zero-entry"])
    def test_cluster_sizes_are_refused_by_name(self, m):
        with pytest.raises(ValueError, match="^m must be a positive cluster size"):
            ScenarioSpec("quadexp", 10, m, 2, np.zeros(2))

    def test_negative_seed_is_refused_by_name(self):
        # numpy's SeedSequence refuses it only when the first replicate is drawn
        with pytest.raises(ValueError, match="^seed must be nonnegative, got -1"):
            ScenarioSpec("mvn", 10, 4, 2, np.zeros(2), seed=-1)

    def test_size_sampling(self):
        spec = ScenarioSpec("quadexp", 400, (4, 5, 6, 7, 8), 1, np.zeros(1), w=0.0, seed=22)
        sizes = spec.sizes(np.random.default_rng(0))
        assert set(sizes.tolist()) == {4, 5, 6, 7, 8}

    @pytest.mark.parametrize("spec, message", [
        (dict(model="quadexp", correlation=Exchangeable(1.0, 0.9)),
         "quadexp model does not read 'correlation'"),
        (dict(model="quadexp", nu=-5.0), "quadexp model does not read 'nu'"),
        (dict(model="mvn", w=0.5), "mvn model does not read 'w'"),
        (dict(model="gamma", correlation=Exchangeable(4.0, 0.0)), "variances"),
        (dict(model="probit", correlation=Unstructured(4.0 * np.eye(2))), "variances"),
    ], ids=["quadexp-correlation", "quadexp-nu", "mvn-w", "gamma-sigma2", "probit-unstructured-4I"])
    def test_unread_field_or_latent_scale_is_refused(self, spec, message):
        # each was once accepted: the first four ignored the field, and the
        # probit fit of the last estimated beta / 2 (beta 1.0, n 4000, seed 1)
        with pytest.raises(ValueError, match=message):
            ScenarioSpec(**{"n": 4000, "m": 2, "p": 1, "beta": np.ones(1), "seed": 1, **spec})

    @pytest.mark.parametrize("build, field", [
        (lambda: ScenarioSpec("mvn", 30, 3, 1, [0.0], x_scale=np.nan), "x_scale"),
        (lambda: ScenarioSpec("mvn", 30, 3, 1, [0.0], x_scale=np.inf), "x_scale"),
        (lambda: ScenarioSpec("mvn", 30, 3, 2, [np.nan, 0.0]), "beta"),
        (lambda: ScenarioSpec("quadexp", 30, 3, 1, [0.0], w=np.nan), "w"),
        (lambda: ScenarioSpec("gamma", 30, 3, 1, [0.0], nu=np.inf), "nu"),
        (lambda: Exchangeable(np.inf, 0.0), "sigma2"),
        (lambda: Unstructured([[1.0, np.nan], [np.nan, 1.0]]), "sigma"),
    ], ids=["x_scale-nan", "x_scale-inf", "beta-nan", "w-nan", "nu-inf", "sigma2-inf", "sigma-nan"])
    def test_non_finite_value_is_refused_by_name(self, build, field):
        # each was once accepted and failed only inside the fit of a replicate
        with pytest.raises(ValueError, match=f"^{field} must be"):
            build()


GOLDEN = json.loads((Path(__file__).parent / "data" / "simgen_golden.json").read_text())


def _golden_spec(params: dict) -> ScenarioSpec:
    kw = dict(params)
    corr = kw.pop("correlation", None)
    if corr is not None:
        corr = (Exchangeable(corr["sigma2"], corr["rho"]) if corr["type"] == "exchangeable"
                else Unstructured(np.array(corr["sigma"])))
    kw["beta"] = np.array(kw["beta"])
    m = kw.pop("m")
    return ScenarioSpec(m=tuple(m) if isinstance(m, list) else m, correlation=corr, **kw)


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_generators_reproduce_recorded_draws(case):
    # recorded from generators that drew cluster by cluster: sizes, covariates
    # and binary responses are bit-identical, continuous responses differ only
    # by the summation order of the matrix products
    d = generate(_golden_spec(case["spec"]))
    assert d.cluster_sizes.tolist() == case["sizes"]
    assert d.ids.tolist() == [str(i) for i in range(len(case["sizes"]))]
    assert hashlib.sha256(np.ascontiguousarray(d.x, dtype="<f8").tobytes()).hexdigest() == case["x_sha256"]
    assert d.response_kind == case["response_kind"]
    if d.response_kind in ("binary01", "binary_pm1"):
        assert d.y.tolist() == case["y"]
    else:
        np.testing.assert_allclose(d.y, case["y"], rtol=1e-12, atol=0)
