import dataclasses
import json
import re
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest

from clmc.data import build_contrasts
from clmc.harness import (
    _KEYS,
    ExperimentConfig,
    PRESETS,
    experiment_config,
    preset_config,
    run_experiment,
)
from clmc.models import FitError
from clmc.mvnprob import QmcConfig
from clmc.simgen import Exchangeable, ScenarioSpec

TINY_QMC = QmcConfig(points_per_shift=256, shifts=4, target_abs_error=3e-3, seed=5)


def small_config(**overrides):
    scenario = ScenarioSpec(
        "mvn", 60, 4, 4, np.zeros(4), Exchangeable(0.8, 0.3), seed=77, x_row_corr=0.15
    )
    base = dict(
        scenario=scenario,
        contrasts=build_contrasts("many_to_one", 4, baseline=1),
        replicates=40,
        qmc=TINY_QMC,
        compute_efficiency=True,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_summary_shape(self):
        s = run_experiment(small_config())
        assert s.replicates_completed + s.failures == 40
        for name in ("mnq", "naive", "bonferroni", "sidak", "holm", "scheffe"):
            ps = s.per_procedure[name]
            assert 0.0 <= ps.estimate <= 1.0
            want_se = np.sqrt(ps.estimate * (1 - ps.estimate) / s.replicates_completed)
            assert ps.mc_std_error == pytest.approx(want_se, rel=1e-12)
            assert ps.reject_rates.shape == (3,)
        assert s.efficiency is not None and 0.0 < s.efficiency <= 1.05

    @pytest.mark.parametrize("field, value", [("replicates", 2.5), ("workers", 1.5), ("replicates", 40.0)])
    def test_non_integral_counts_are_refused_by_name(self, field, value):
        # each once built a config whose run_experiment died with a TypeError
        with pytest.raises(ValueError, match=f"^{field} must be an integer, got {value}$"):
            small_config(**{field: value})

    def test_non_real_alpha_is_refused_by_name(self):
        # it once raised a TypeError that named no field
        with pytest.raises(ValueError, match="^alpha must be a real number, got 0.05$"):
            small_config(alpha="0.05")

    def test_numpy_integer_counts_are_accepted(self):
        s = run_experiment(small_config(replicates=np.int64(3), workers=np.int32(1), compute_efficiency=False))
        assert s.replicates_completed + s.failures == 3

    def test_scheffe_rank_is_computed_once_per_family(self, monkeypatch):
        # adjust("scheffe") once ran matrix_rank, an SVD of C, on every replicate
        calls, real = [], np.linalg.matrix_rank
        monkeypatch.setattr(np.linalg, "matrix_rank",
                            lambda m, *a, **k: calls.append(m.shape) or real(m, *a, **k))
        cfg = small_config(replicates=6, compute_efficiency=False)
        assert run_experiment(cfg).replicates_completed == 6
        assert calls == [(3, 4)]
        assert cfg.contrasts._rank == real(cfg.contrasts.matrix) == 3

    def test_worker_count_does_not_change_results(self):
        s1 = run_experiment(small_config(workers=1))
        s2 = run_experiment(small_config(workers=2))
        assert summary_fields(s1) == summary_fields(s2)

    @pytest.mark.parametrize("workers, cpus, pool", [(500, 64, 4), (3, 2, 2), (500, None, None)])
    def test_pool_is_sized_by_replicates_and_cpus(self, monkeypatch, workers, cpus, pool):
        # the pool forks all max_workers at its first submit; this fake starts
        # no process and maps serially, recording the size it was asked for
        import clmc.harness as mod

        sizes = []

        class SerialPool:
            def __init__(self, max_workers):
                sizes.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items, chunksize=1):
                assert chunksize >= 1
                return map(fn, items)

        monkeypatch.setattr(mod.concurrent.futures, "ProcessPoolExecutor", SerialPool)
        monkeypatch.setattr(mod.os, "cpu_count", lambda: cpus)
        s = run_experiment(small_config(workers=workers, replicates=4))
        assert sizes == ([] if pool is None else [pool])
        assert summary_fields(s) == summary_fields(run_experiment(small_config(replicates=4)))

    def test_ordering_violations_zero(self):
        s = run_experiment(small_config(replicates=60))
        assert all(v == 0 for v in s.ordering_violations.values())

    def test_power_metrics_under_alternative(self):
        scenario = ScenarioSpec(
            "mvn", 100, 4, 4, np.array([0.0, 0.0, 0.0, 0.3]),
            Exchangeable(0.8, 0.2), seed=3, x_row_corr=0.15,
        )
        cfg = small_config(scenario=scenario, replicates=30, compute_efficiency=False)
        s = run_experiment(cfg)
        ps = s.per_procedure["mnq"]
        assert ps.metric == "global_power"
        assert ps.ind_power_sum is not None
        assert 0.0 <= ps.ind_power_sum <= 1.0  # one true alternative row

    def test_single_replicate_no_rejection_gives_zero(self):
        cfg = small_config(replicates=1, alpha=1e-4, compute_efficiency=False)
        s = run_experiment(cfg)
        assert s.per_procedure["mnq"].estimate == 0.0

    def test_failures_counted_and_excluded(self, monkeypatch):
        import clmc.harness as mod

        real = mod.FITTERS["mvn"]
        calls = {"k": 0}

        def flaky(d):
            calls["k"] += 1
            if calls["k"] % 3 == 0:
                raise FitError("synthetic failure")
            return real(d)

        monkeypatch.setitem(mod.FITTERS, "mvn", flaky)
        s = run_experiment(small_config(replicates=9, compute_efficiency=False))
        assert s.failures == 3
        assert s.replicates_completed == 6

    def test_all_failed_raises(self, monkeypatch):
        import clmc.harness as mod

        def broken(d):
            raise FitError("nope")

        monkeypatch.setitem(mod.FITTERS, "mvn", broken)
        with pytest.raises(RuntimeError):
            run_experiment(small_config(replicates=3, compute_efficiency=False))

    def test_nonconverged_cl_fit_is_dropped_and_counted(self, monkeypatch):
        import clmc.harness as mod

        real = mod.FITTERS["mvn"]
        calls = {"k": 0}

        def stalls_once(d):
            calls["k"] += 1
            fit = real(d)
            return dataclasses.replace(fit, converged=False) if calls["k"] == 2 else fit

        monkeypatch.setitem(mod.FITTERS, "mvn", stalls_once)
        s = run_experiment(small_config(replicates=4, compute_efficiency=False))
        assert (s.replicates_completed, s.failures) == (3, 1)

    def test_failing_efficiency_mle_keeps_the_replicate(self):
        # 5 clusters of 10 leave a rank-deficient residual covariance, so
        # mvn_mle_fit raises FitError; the CL fit and its tests still count
        raw = {"model": "mvn", "n": 5, "m": 10, "p": 2, "beta": [0.0, 0.0]}
        s = run_experiment(experiment_config(raw, replicates=3))
        without = run_experiment(experiment_config({**raw, "compute_efficiency": False},
                                                   replicates=3))
        assert (s.replicates_completed, s.failures) == (3, 0)
        assert s.efficiency is None
        assert summary_fields(s) == summary_fields(without)

    def test_failing_efficiency_mle_leaves_out_only_its_efficiency(self, monkeypatch):
        import clmc.harness as mod

        real = mod.mvn_mle_fit
        calls = {"k": 0}

        def flaky(d):
            calls["k"] += 1
            if calls["k"] == 2:
                raise FitError("singular design matrix or residual covariance")
            return real(d)

        monkeypatch.setattr(mod, "mvn_mle_fit", flaky)
        s = run_experiment(small_config(replicates=4))
        assert (s.replicates_completed, s.failures) == (4, 0)
        assert s.efficiency is not None

    @pytest.mark.parametrize("cause", ["contrast-variance", "indefinite-V"])
    def test_degenerate_replicate_is_dropped_and_counted(self, monkeypatch, cause):
        import clmc.harness as mod

        real_fit = mod.FITTERS["mvn"]
        calls = {"fits": 0}

        def fitter(d):
            fit = real_fit(d)
            calls["fits"] += 1
            if calls["fits"] != 2:
                return fit
            # the contrasts are b_k - b_1: zero variances make test_statistics
            # raise; variances of 0.5 with covariances -0.5 give V = 2I - J,
            # which is not positive semidefinite
            gamma = fit.gamma_hat.copy()
            gamma[:4, :4] = 0.0 if cause == "contrast-variance" else np.diag([-0.5, 1.0, 1.0, 1.0])
            return dataclasses.replace(fit, gamma_hat=gamma)

        monkeypatch.setitem(mod.FITTERS, "mvn", fitter)
        s = run_experiment(small_config(replicates=4, compute_efficiency=False))
        assert (s.replicates_completed, s.failures) == (3, 1)

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(replicates=0)
        # a replicate whose tests raise ValueError is dropped, so a procedure
        # the family cannot run is refused before any replicate
        with pytest.raises(ValueError, match="unknown procedures"):
            small_config(procedures=("mnq", "dunnett"))
        with pytest.raises(ValueError, match="tukey"):
            small_config(procedures=("mnq", "tukey"))
        with pytest.raises(ValueError, match="contrasts address 5"):
            small_config(contrasts=build_contrasts("many_to_one", 5, baseline=1))
        with pytest.raises(ValueError):
            scenario = ScenarioSpec("probit", 20, 2, 4, np.zeros(4), seed=1)
            small_config(scenario=scenario)  # efficiency only for mvn

    @pytest.mark.parametrize("procedures", [(), ("mnq", "holm", "mnq")], ids=["empty", "repeated"])
    def test_empty_or_repeated_procedures_are_refused(self, procedures):
        with pytest.raises(ValueError, match="^need at least one procedure, each named once"):
            small_config(procedures=procedures)

    def test_gaussian_model_refuses_mixed_cluster_sizes(self):
        # mvn_cl_fit needs one cluster size, so every replicate would be dropped
        mixed = ScenarioSpec("mvn", 60, (4, 3), 4, np.zeros(4), seed=77)
        with pytest.raises(ValueError, match="one cluster size 'm', got \\(4, 3\\)"):
            small_config(scenario=mixed)
        small_config(scenario=dataclasses.replace(mixed, m=(4, 4)))

    def test_counts_of_known_reject_patterns(self, monkeypatch):
        import clmc.harness as mod

        # reject patterns over the 3 contrasts, per completed replicate; the
        # fit of replicate 2 fails, so 5 of the 6 replicates count
        patterns = [
            {"mnq": "000", "naive": "000", "bonferroni": "000", "holm": "000"},
            {"mnq": "100", "naive": "110", "bonferroni": "100", "holm": "000"},
            {"mnq": "001", "naive": "011", "bonferroni": "011", "holm": "010"},
            {"mnq": "111", "naive": "111", "bonferroni": "000", "holm": "100"},
            {"mnq": "111", "naive": "111", "bonferroni": "111", "holm": "111"},
        ]
        real = mod.FITTERS["mvn"]
        calls = {"fits": 0}

        def fitter(d):
            calls["fits"] += 1
            if calls["fits"] == 3:
                raise FitError("synthetic failure")
            return real(d)

        seen = []

        def bits(word):
            return np.array([ch == "1" for ch in word])

        def fake_tests(fit, cf, n, alpha, methods, qmc):
            # replicates are told apart by their estimate; the call without
            # procedures evaluates the naive covariance.  The statistics carry
            # the replicate's patterns and V names the one the mnq rule returns
            key = fit.theta_hat.tobytes()
            if key not in seen:
                seen.append(key)
            pattern = patterns[seen.index(key)]
            return SimpleNamespace(
                t_stats=pattern, v_hat="naive" if not methods else "mnq",
                decisions={m: SimpleNamespace(reject=bits(pattern[m])) for m in methods},
            )

        def fake_rejects(v, t, alpha, qmc):
            return bits(t[v])

        monkeypatch.setitem(mod.FITTERS, "mvn", fitter)
        monkeypatch.setattr(mod, "evaluate_tests", fake_tests)
        monkeypatch.setattr(mod, "equicoordinate_rejects", fake_rejects)
        cfg = small_config(replicates=6, compute_efficiency=False,
                           procedures=("mnq", "naive", "bonferroni", "holm"))
        s = run_experiment(cfg)
        assert (s.replicates_completed, s.failures) == (5, 1)
        assert s.ordering_violations == {
            "holm_missing_bonferroni_rejection": 2,
            "holm_bonferroni_global_mismatch": 2,
            "mnq_missing_bonferroni_rejection": 1,
        }
        want = {
            "mnq": (0.8, [0.6, 0.4, 0.6]),
            "naive": (0.8, [0.6, 0.8, 0.6]),
            "bonferroni": (0.6, [0.4, 0.4, 0.4]),
            "holm": (0.6, [0.4, 0.4, 0.2]),
        }
        for m, (estimate, rates) in want.items():
            ps = s.per_procedure[m]
            assert ps.estimate == pytest.approx(estimate, abs=1e-15)
            np.testing.assert_allclose(ps.reject_rates, rates, atol=1e-15)
            assert ps.ind_power_sum is None  # no true alternative under the null


GOLDEN = json.loads((Path(__file__).parent / "data" / "harness_golden.json").read_text())


def summary_fields(s) -> dict:
    """Every field of a SimSummary as plain Python values, for equality checks."""
    return {
        "replicates_completed": s.replicates_completed, "failures": s.failures,
        "efficiency": s.efficiency, "efficiency_se": s.efficiency_se,
        "ordering_violations": s.ordering_violations,
        "per_procedure": {m: {"metric": ps.metric, "estimate": ps.estimate,
                              "mc_std_error": ps.mc_std_error, "ind_power_sum": ps.ind_power_sum,
                              "reject_rates": ps.reject_rates.tolist()}
                          for m, ps in s.per_procedure.items()},
    }


def _golden_config(case) -> ExperimentConfig:
    sc = dict(case["scenario"])
    corr = Exchangeable(sc.pop("sigma2"), sc.pop("rho"))
    scenario = ScenarioSpec(beta=np.array(sc.pop("beta")), correlation=corr, **sc)
    kind = case["contrasts"]
    cf = build_contrasts(kind, scenario.p, baseline=1 if kind == "many_to_one" else None)
    return ExperimentConfig(scenario, cf, case["replicates"],
                            procedures=tuple(case["procedures"]), qmc=QmcConfig(**case["qmc"]),
                            compute_efficiency=case["compute_efficiency"])


@pytest.mark.parametrize("case", GOLDEN, ids=[c["name"] for c in GOLDEN])
def test_summaries_reproduce_recorded_runs(case):
    # recorded from a harness that merged per-replicate count dicts; every
    # field is bit-identical (mvn-a1-efficiency has an efficiency ratio and
    # true alternatives, probit-null-dropped-pairwise drops 2 of 30 fits)
    assert summary_fields(run_experiment(_golden_config(case))) == case["summary"]


SIM_GOLDEN = json.loads((Path(__file__).parent / "data" / "harness_sim_golden.json").read_text())


@pytest.mark.parametrize("case", SIM_GOLDEN,
                         ids=[f"{c['preset']}-{c['contrast_kind']}" for c in SIM_GOLDEN])
def test_preset_summaries_reproduce_recorded_runs(case):
    # recorded with the mnq and naive decisions |t| > equicoordinate_quantile(V)
    # at 512 x 6 points; the decisions of equicoordinate_rejects at the
    # harness's QmcConfig() give the same counts, and a decision that moves
    # changes a reject rate
    cfg = preset_config(case["preset"], replicates=case["replicates"], seed=case["seed"],
                        contrast_kind=case["contrast_kind"])
    assert cfg.qmc == QmcConfig()
    assert summary_fields(run_experiment(cfg)) == case["summary"]


def comparable(obj):
    """`obj` with every field spelt out: dataclasses field by field, arrays
    by dtype, shape and bytes, scalars by type and repr."""
    if dataclasses.is_dataclass(obj):
        return type(obj).__name__, {f.name: comparable(getattr(obj, f.name))
                                    for f in dataclasses.fields(obj)}
    if isinstance(obj, np.ndarray):
        return obj.dtype.str, obj.shape, obj.tobytes()
    if isinstance(obj, tuple):
        return tuple(comparable(v) for v in obj)
    return type(obj).__name__, repr(obj)


@pytest.mark.parametrize("name", PRESETS)
def test_preset_is_a_config_object(name):
    raw = json.loads(json.dumps(PRESETS[name]))
    got = experiment_config(raw, replicates=7, seed=5, workers=2)
    assert comparable(got) == comparable(preset_config(name, replicates=7, seed=5, workers=2))


def test_null_correlation_is_an_absent_key():
    raw = {"model": "probit", "n": 50, "m": 4, "p": 3, "beta": [0, 0, 0]}
    assert comparable(experiment_config({**raw, "correlation": None})) == comparable(experiment_config(raw))


def test_readme_lists_exactly_the_config_keys():
    # README's --config key list and the parser's table cannot change apart
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    required, optional = re.search(
        r"one JSON object with the\s+keys `([^`]*)`\s+and,\s+optionally,\s+`([^`]*)`", readme).groups()
    listed = re.split(r",\s*", f"{required}, {optional}")
    assert sorted(listed) == sorted(_KEYS)
    assert required.split(", ") == [f.name for f in dataclasses.fields(ScenarioSpec)
                                    if f.default is dataclasses.MISSING]


class TestPresets:
    def test_all_preset_names_build(self):
        for name in PRESETS:
            cfg = preset_config(name, replicates=5)
            assert cfg.scenario.n >= 2
            assert cfg.contrasts.c == cfg.scenario.p - 1

    def test_design_parameters(self):
        cfg = preset_config("mvn-null-rho05-m10-p20")
        assert cfg.scenario.model == "mvn"
        assert cfg.scenario.correlation.rho == 0.5
        assert cfg.scenario.correlation.sigma2 == 0.8
        assert (cfg.scenario.m, cfg.scenario.p) == (10, 20)
        assert cfg.scenario.n == 200
        assert cfg.scenario.x_scale == 5.0
        assert cfg.compute_efficiency

        cfg = preset_config("probit-a1-rho0-m4-p10")
        assert cfg.scenario.n == 500
        assert cfg.scenario.beta[3] == 0.03
        assert cfg.scenario.x_scale == 5.0
        assert (cfg.contrasts.matrix @ cfg.scenario.beta != 0).any()  # an a1 alternative

        cfg = preset_config("quadexp-a2-w05-p10")
        assert cfg.scenario.n == 700
        assert cfg.scenario.m == (4, 5, 6, 7, 8)
        assert cfg.scenario.w == 0.5
        assert cfg.scenario.x_scale == 1.0
        np.testing.assert_allclose(cfg.scenario.beta[1:6], [0.08, 0.12, -0.03, 0.05, -0.08])

        cfg = preset_config("gamma-null-correlated")
        assert cfg.scenario.n == 3000
        assert cfg.scenario.correlation.rho == 0.5
        np.testing.assert_allclose(cfg.scenario.beta, 0.75)

    def test_all_pairwise_variant(self):
        cfg = preset_config("mvn-null-rho0-m4-p10", contrast_kind="all_pairwise")
        assert cfg.contrasts.c == 45

    def test_unknown_presets_rejected(self):
        for bad in ("mvn-null", "weird-null-rho0-m4-p10", "mvn-b3-rho0-m4-p10",
                    "mvn-null-unstructured-m10-p10", "mvn-null-rho05", "probit-null-rho0",
                    "quadexp-null-w05", "gamma-null-bogus", "quadexp-null-w05-p10-extra"):
            with pytest.raises(ValueError):
                preset_config(bad)
