"""End-to-end acceptance checks.

Each test records one PASS/FAIL line, printed in the terminal summary after
the run (see conftest.py); the heavyweight simulation summaries are session
fixtures shared between criteria.  Run times for the replicated experiments
are reported in the corresponding PASS lines.
"""

import json
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy import integrate
from scipy.special import ndtri

from clmc.cli import main as cli_main, write_clustered_csv
from clmc.data import ClusteredDataset, build_contrasts
from clmc.harness import preset_config, run_experiment
from clmc.models import (
    gamma_cl_fit,
    gamma_cl_score,
    mvn_cl_fit,
    mvn_cl_loglik,
    mvn_cl_score,
    probit_cl_fit,
    probit_cl_loglik,
    probit_cl_score,
    quadexp_cl_fit,
    quadexp_cl_loglik,
    quadexp_cl_score,
    quadexp_enumeration_oracle,
)
from clmc.models.gamma import gamma_cl_loglik
from clmc.mvnprob import (
    QmcConfig,
    equicoordinate_quantile,
    mvn_rectangle_prob,
)
from clmc.simgen import (
    Exchangeable,
    ScenarioSpec,
    generate,
)

WORKERS = 2
FAST = QmcConfig(points_per_shift=512, shifts=6, target_abs_error=1e-3, seed=99)
TIGHT = QmcConfig(points_per_shift=8192, shifts=12, target_abs_error=2e-4, seed=99)

RESULTS: list[str] = []


@contextmanager
def criterion(num: int, name: str):
    try:
        detail = {}
        yield detail
    except BaseException as exc:
        RESULTS.append(f"ACCEPTANCE {num:02d} {name}: FAIL ({exc!r})")
        raise
    extra = f" ({detail['note']})" if "note" in detail else ""
    RESULTS.append(f"ACCEPTANCE {num:02d} {name}: PASS{extra}")


def _timed_run(preset: str, replicates: int, seed: int):
    t0 = time.time()
    cfg = preset_config(preset, replicates=replicates, seed=seed, workers=WORKERS)
    summary = run_experiment(cfg)
    return summary, time.time() - t0


@pytest.fixture(scope="session")
def mvn_rho0():
    return _timed_run("mvn-null-rho0-m4-p10", 2000, 70001)


@pytest.fixture(scope="session")
def mvn_rho05_m4():
    return _timed_run("mvn-null-rho05-m4-p10", 2000, 70002)


@pytest.fixture(scope="session")
def mvn_rho05_m10():
    return _timed_run("mvn-null-rho05-m10-p10", 2000, 70003)


@pytest.fixture(scope="session")
def probit_rho0():
    return _timed_run("probit-null-rho0-m4-p10", 2000, 70004)


@pytest.fixture(scope="session")
def quadexp_w0():
    return _timed_run("quadexp-null-w0-p10", 2000, 70005)


@pytest.fixture(scope="session")
def quadexp_w05():
    return _timed_run("quadexp-null-w05-p10", 500, 70006)


@pytest.fixture(scope="session")
def gamma_indep():
    return _timed_run("gamma-null-independent", 500, 70007)


@pytest.fixture(scope="session")
def gamma_corr():
    return _timed_run("gamma-null-correlated", 500, 70008)


def test_criterion_01_conditional_loglik_matches_enumeration():
    with criterion(1, "conditional log-likelihood equals enumeration oracle") as d:
        t0 = time.time()
        rng = np.random.default_rng(101)
        worst = 0.0
        for _ in range(100):
            m = int(rng.integers(1, 9))
            p = int(rng.integers(1, 5))
            x = rng.standard_normal((m, p))
            beta = rng.normal(scale=0.6, size=p)
            w = float(rng.normal(scale=0.4))
            configs, probs = quadexp_enumeration_oracle(x, beta, w)
            y = configs[rng.integers(len(configs))]
            exact = 0.0
            for j in range(m):
                rest = np.all(np.delete(configs, j, axis=1) == np.delete(y, j), axis=1)
                exact += np.log(
                    probs[rest & (configs[:, j] == y[j])].sum() / probs[rest].sum()
                )
            got = quadexp_cl_loglik(
                ClusteredDataset(x, y, [m], ["0"]), beta, w
            )
            worst = max(worst, abs(got - exact))
        elapsed = time.time() - t0
        assert worst <= 1e-10
        assert elapsed < 10.0
        d["note"] = f"max |diff| {worst:.2e}, {elapsed:.1f}s"


def _fd_gradient(f, theta, h=1e-6):
    g = np.zeros_like(theta)
    for k in range(len(theta)):
        step = h * max(1.0, abs(theta[k]))
        up, dn = theta.copy(), theta.copy()
        up[k] += step
        dn[k] -= step
        g[k] = (f(up) - f(dn)) / (2.0 * step)
    return g


def test_criterion_02_scores_match_finite_differences():
    with criterion(2, "analytic scores match finite differences at 1e-5") as d:
        t0 = time.time()
        rng = np.random.default_rng(202)
        worst_rel = 0.0
        worst_score = 0.0
        for i in range(20):
            p = int(rng.integers(1, 4))
            beta = rng.normal(scale=0.4, size=p)

            spec = ScenarioSpec("mvn", 30, 3, p, beta, Exchangeable(1.0, 0.3), seed=500 + i)
            data = generate(spec)
            fit = mvn_cl_fit(data)
            assert fit.converged
            sd = np.diag(fit.nuisance["sigma"])
            worst_score = max(worst_score, np.max(np.abs(mvn_cl_score(data, fit.beta, sd))))
            theta = fit.beta + rng.normal(scale=0.05, size=p)
            fd = _fd_gradient(lambda b: mvn_cl_loglik(data, b, sd), theta)
            an = mvn_cl_score(data, theta, sd)
            worst_rel = max(worst_rel, np.max(np.abs(an - fd)) / max(1.0, np.max(np.abs(fd))))

            spec = ScenarioSpec("probit", 60, 3, p, beta, Exchangeable(1.0, 0.3), seed=600 + i)
            data = generate(spec)
            fit = probit_cl_fit(data)
            assert fit.converged
            worst_score = max(worst_score, np.max(np.abs(probit_cl_score(data, fit.beta))))
            theta = fit.beta + rng.normal(scale=0.05, size=p)
            fd = _fd_gradient(lambda b: probit_cl_loglik(data, b), theta)
            an = probit_cl_score(data, theta)
            worst_rel = max(worst_rel, np.max(np.abs(an - fd)) / max(1.0, np.max(np.abs(fd))))

            spec = ScenarioSpec("quadexp", 50, (3, 4, 5), p, beta, w=0.3, seed=700 + i)
            data = generate(spec)
            fit = quadexp_cl_fit(data)
            assert fit.converged
            worst_score = max(
                worst_score,
                np.max(np.abs(quadexp_cl_score(data, fit.beta, fit.theta_hat[-1]))),
            )
            theta = fit.theta_hat + rng.normal(scale=0.05, size=p + 1)
            fd = _fd_gradient(lambda th: quadexp_cl_loglik(data, th[:p], th[p]), theta)
            an = quadexp_cl_score(data, theta[:p], theta[p])
            worst_rel = max(worst_rel, np.max(np.abs(an - fd)) / max(1.0, np.max(np.abs(fd))))

            spec = ScenarioSpec("gamma", 50, 3, p, np.abs(beta) + 0.2, nu=1.5, seed=800 + i)
            data = generate(spec)
            fit = gamma_cl_fit(data)
            assert fit.converged
            nu = fit.nuisance["nu"]
            worst_score = max(worst_score, np.max(np.abs(gamma_cl_score(data, fit.beta, nu))))
            theta = fit.beta + rng.normal(scale=0.05, size=p)
            fd = _fd_gradient(lambda b: gamma_cl_loglik(data, b, nu), theta)
            an = gamma_cl_score(data, theta, nu)
            worst_rel = max(worst_rel, np.max(np.abs(an - fd)) / max(1.0, np.max(np.abs(fd))))

        elapsed = time.time() - t0
        assert worst_rel <= 1e-5
        assert worst_score <= 1e-6
        assert elapsed < 30.0
        d["note"] = f"max rel err {worst_rel:.2e}, max |score| {worst_score:.2e}, {elapsed:.1f}s"


def test_criterion_03_equicoordinate_quantile_identities():
    with criterion(3, "equicoordinate quantile identities") as d:
        t0 = time.time()
        q1 = equicoordinate_quantile(np.eye(1), 0.05, TIGHT)
        assert abs(q1 - 1.959964) <= 1e-3

        for c in (5, 10, 20):
            q = equicoordinate_quantile(np.eye(c), 0.05, TIGHT)
            sidak = ndtri(1.0 - (1.0 - 0.95 ** (1.0 / c)) / 2.0)
            assert abs(q - sidak) <= 1e-3, f"c={c}: {q} vs {sidak}"

        rng = np.random.default_rng(303)
        for _ in range(50):
            c = int(rng.integers(2, 13))
            a = rng.standard_normal((c, c + 1))
            v = a @ a.T
            s = np.sqrt(np.diag(v))
            v = v / np.outer(s, s)
            np.fill_diagonal(v, 1.0)
            q = equicoordinate_quantile(v, 0.05, FAST)
            assert q <= ndtri(1.0 - 0.05 / (2 * c)) + 1e-9

        worst = 0.0
        for rho in np.arange(-0.8, 0.81, 0.2):
            rho = round(float(rho), 1)
            corr = np.array([[1.0, rho], [rho, 1.0]])
            for (lo1, hi1, lo2, hi2) in ((-2.0, 2.0, -2.0, 2.0), (-1.5, 2.0, -1.0, 2.5)):
                det = 1.0 - rho * rho

                def dens(y, x):
                    return np.exp(-(x * x - 2 * rho * x * y + y * y) / (2 * det)) / (
                        2 * np.pi * np.sqrt(det)
                    )

                oracle, _ = integrate.dblquad(
                    dens, lo1, hi1, lambda _: lo2, lambda _: hi2, epsabs=1e-10
                )
                est = mvn_rectangle_prob([lo1, lo2], [hi1, hi2], corr, QmcConfig(seed=9))
                worst = max(worst, abs(est.value - oracle))
        elapsed = time.time() - t0
        assert worst <= 2e-3
        assert elapsed < 120.0
        d["note"] = f"max 2-D error {worst:.2e}, {elapsed:.0f}s"


def test_criterion_04_nominal_fwer_all_models(mvn_rho0, probit_rho0, quadexp_w0):
    with criterion(4, "scaled nominal-FWER replication for all three models") as d:
        checks = (
            ("mvn", mvn_rho0, 0.0509),
            ("probit", probit_rho0, 0.0501),
            ("quadexp", quadexp_w0, 0.0519),
        )
        notes = []
        for name, (summary, elapsed), target in checks:
            est = summary.per_procedure["mnq"].estimate
            assert abs(est - target) <= 0.015, f"{name}: {est} vs {target}"
            notes.append(f"{name} {est:.4f} (ref {target}, {elapsed:.0f}s)")
        d["note"] = "; ".join(notes)


def test_criterion_05_naive_inflates_under_strong_correlation(mvn_rho05_m10):
    with criterion(5, "sandwich holds FWER where ignoring correlation fails") as d:
        summary, elapsed = mvn_rho05_m10
        mnq = summary.per_procedure["mnq"].estimate
        naive = summary.per_procedure["naive"].estimate
        assert abs(mnq - 0.0520) <= 0.015, mnq
        assert naive >= 0.15, naive
        d["note"] = f"mnq {mnq:.4f}, naive {naive:.4f}, {elapsed:.0f}s"


def test_criterion_06_association_model_naive_collapse(quadexp_w05):
    with criterion(6, "positive association drives naive error to zero") as d:
        summary, elapsed = quadexp_w05
        mnq = summary.per_procedure["mnq"].estimate
        naive = summary.per_procedure["naive"].estimate
        assert naive <= 0.005, naive
        assert abs(mnq - 0.0521) <= 0.02, mnq
        d["note"] = f"mnq {mnq:.4f}, naive {naive:.4f}, {elapsed:.0f}s"


def test_criterion_07_procedure_orderings(
    mvn_rho0, mvn_rho05_m4, mvn_rho05_m10, probit_rho0, quadexp_w0, quadexp_w05
):
    with criterion(7, "procedure orderings hold on every run") as d:
        runs = (mvn_rho0, mvn_rho05_m4, mvn_rho05_m10, probit_rho0, quadexp_w0, quadexp_w05)
        for summary, _ in runs:
            assert all(v == 0 for v in summary.ordering_violations.values()), (
                summary.ordering_violations
            )
            scheffe = summary.per_procedure["scheffe"].estimate
            bonf = summary.per_procedure["bonferroni"].estimate
            mnq = summary.per_procedure["mnq"].estimate
            assert scheffe <= bonf
            assert bonf <= mnq + 2.0 * summary.per_procedure["mnq"].mc_std_error
        d["note"] = f"{len(runs)} runs, zero violations"


def test_criterion_08_efficiency_ratios(mvn_rho0, mvn_rho05_m4):
    with criterion(8, "composite-vs-full likelihood efficiency ratios") as d:
        eff0 = mvn_rho0[0].efficiency
        eff5 = mvn_rho05_m4[0].efficiency
        assert abs(eff0 - 0.9983) <= 0.01, eff0
        assert abs(eff5 - 0.7491) <= 0.03, eff5
        d["note"] = f"independent {eff0:.4f} (ref 0.9983), correlated {eff5:.4f} (ref 0.7491)"


@pytest.mark.slow
def test_criterion_09_gamma_model(gamma_indep, gamma_corr):
    with criterion(9, "skewed-model error control and naive breakdown") as d:
        indep, el1 = gamma_indep
        corr, el2 = gamma_corr
        mnq = indep.per_procedure["mnq"].estimate
        naive = corr.per_procedure["naive"].estimate
        assert abs(mnq - 0.0554) <= 0.03, mnq
        assert naive >= 0.15, naive
        d["note"] = f"independent mnq {mnq:.4f}, correlated naive {naive:.4f}, {el1 + el2:.0f}s"


def test_criterion_10_panel_pipeline_end_to_end(tmp_path, capsys):
    with criterion(10, "binary-panel pipeline with 21 pairwise hypotheses") as d:
        beta = np.array([1.2, 0.30, 0.08, 0.07, 0.07, 0.001, -0.015])
        spec = ScenarioSpec(
            "quadexp", 900, (2, 3, 4, 5, 6), 7, beta, w=0.3, seed=404, x_row_corr=0.0
        )
        data = generate(spec)
        csv_path = tmp_path / "panel.csv"
        write_clustered_csv(data, str(csv_path))

        rc = cli_main(["fit", "--model", "quadexp", "--data", str(csv_path),
                       "--format", "json"])
        assert rc == 0
        fit_rows = json.loads(capsys.readouterr().out)
        assert [r["coefficient"] for r in fit_rows] == [f"x{j}" for j in range(1, 8)] + ["w"]
        assert all(float(r["se"]) > 0 for r in fit_rows)
        w_hat = float(next(r["estimate"] for r in fit_rows if r["coefficient"] == "w"))
        assert w_hat > 0

        reports = {}
        for naive in (False, True):
            args = ["test", "--model", "quadexp", "--data", str(csv_path),
                    "--contrasts", "all-pairwise", "--methods", "mnq",
                    "--qmc-points", "1024", "--qmc-shifts", "6", "--format", "json"]
            if naive:
                args.append("--naive")
            assert cli_main(args) == 0
            reports[naive] = json.loads(capsys.readouterr().out)
        for rep in reports.values():
            assert len(rep["hypotheses"]) == 21
        n_full = sum(h["mnq"] == "R" for h in reports[False]["hypotheses"])
        n_naive = sum(h["mnq"] == "R" for h in reports[True]["hypotheses"])
        assert n_naive >= n_full
        d["note"] = f"w_hat {w_hat:.3f}, rejections mnq {n_full} vs naive {n_naive} of 21"
