"""Properties shared by every fitter in the registry: the shared Fisher-scoring
stop rule, invariance under cluster and row order, equivariance under
covariate scaling, the separation check of the binary models, and the
dataset's refusal of an empty cluster, which the row-model fitters'
per-cluster sums rely on."""

import dataclasses
import importlib
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import clmc.cli
import clmc.harness
from clmc.data import ClusteredDataset
from clmc.harness import preset_config
from clmc.models import (
    FITTERS,
    SeparationError,
    probit_cl_fit,
    probit_cl_score,
    quadexp_cl_fit,
)
from clmc.models.base import MAX_ITER, SCORE_TOL, FitError, RowModel, fisher_scoring
from clmc.simgen import Exchangeable, ScenarioSpec, generate

_BETA = np.array([0.5, -0.4, 0.3])
_SPECS = {
    "mvn": ScenarioSpec("mvn", 40, 3, 3, _BETA, Exchangeable(1.0, 0.4)),
    "probit": ScenarioSpec("probit", 60, 3, 3, _BETA, Exchangeable(1.0, 0.4)),
    "quadexp": ScenarioSpec("quadexp", 60, (2, 3, 4), 3, _BETA, w=0.3),
    "gamma": ScenarioSpec("gamma", 40, 3, 3, _BETA, Exchangeable(1.0, 0.5), nu=2.0),
}
_PROPERTY = settings(max_examples=15, deadline=None)


def _fit(model, d):
    # tight enough that the compared estimates are exact to far below the test
    # tolerances; each fitter reads its stop constant from its own module
    module = importlib.import_module(FITTERS[model].__module__)
    tight = {"PARAM_TOL": 1e-11} if model == "mvn" else {"SCORE_TOL": 1e-9}
    with mock.patch.multiple(module, **tight):
        fit = FITTERS[model](d)
    assert fit.converged
    return fit.theta_hat


def _permuted(d, clusters, rows):
    """d with its clusters in the order `clusters` and its rows in the order `rows`."""
    return ClusteredDataset(d.x[rows], d.y[rows], d.cluster_sizes[clusters], d.ids[clusters])


def test_one_registry():
    assert clmc.cli.FITTERS is FITTERS
    assert clmc.harness.FITTERS is FITTERS
    assert set(FITTERS) == set(_SPECS)


@pytest.mark.parametrize("rep", [11, 17, 30, 35])
def test_small_final_step_does_not_stop_scoring(rep):
    # these replicates take a last step of about 7e-9 while |score| is still
    # about 2e-6; a stop on the step size reported them as not converged
    sc = preset_config("probit-null-rho05-m4-p10", replicates=1, seed=1).scenario
    d = generate(sc, np.random.SeedSequence(sc.seed, spawn_key=(rep,)))
    fit = probit_cl_fit(d)
    assert fit.converged
    assert np.max(np.abs(probit_cl_score(d, fit.beta))) <= SCORE_TOL


@pytest.mark.parametrize("model", sorted(_SPECS))
@_PROPERTY
@given(seed=st.integers(0, 2**16))
def test_cluster_order_leaves_estimate_unchanged(model, seed):
    d = generate(_SPECS[model], seed)
    perm = np.random.default_rng(seed).permutation(d.n)
    new_place = np.argsort(perm)[np.repeat(np.arange(d.n), d.cluster_sizes)]
    shuffled = _permuted(d, perm, np.argsort(new_place, kind="stable"))
    np.testing.assert_allclose(_fit(model, shuffled), _fit(model, d), rtol=0, atol=1e-8)


@pytest.mark.parametrize("model", sorted(_SPECS))
@_PROPERTY
@given(seed=st.integers(0, 2**16))
def test_row_order_within_clusters_leaves_estimate_unchanged(model, seed):
    d = generate(_SPECS[model], seed)
    rng = np.random.default_rng(seed)
    # the gaussian working covariance is indexed by row position, so its rows
    # are permuted the same way in every cluster
    key = np.tile(rng.random(d.cluster_sizes[0]), d.n) if model == "mvn" else rng.random(len(d.y))
    rows = np.lexsort((key, np.repeat(np.arange(d.n), d.cluster_sizes)))
    shuffled = _permuted(d, np.arange(d.n), rows)
    np.testing.assert_allclose(_fit(model, shuffled), _fit(model, d), rtol=0, atol=1e-8)


@pytest.mark.parametrize("model", sorted(_SPECS))
@_PROPERTY
@given(seed=st.integers(0, 2**16), k=st.integers(0, len(_BETA) - 1))
def test_covariate_scaling_rescales_its_coefficient(model, seed, k):
    d = generate(_SPECS[model], seed)
    scale = np.ones(d.p)
    scale[k] = 4.0
    scaled = dataclasses.replace(d, x=d.x * scale)
    expected = _fit(model, d)
    expected[k] /= 4.0
    np.testing.assert_allclose(_fit(model, scaled), expected, rtol=1e-6)


@pytest.mark.parametrize("fitter", [probit_cl_fit, quadexp_cl_fit])
def test_separable_binary_data_raise_separation_error(fitter):
    x = np.linspace(-2, 2, 30).reshape(-1, 1)
    y = (x.ravel() > 0).astype(float)
    d = ClusteredDataset(x, y, np.full(15, 2), np.arange(15).astype(str))
    with pytest.raises(SeparationError):
        fitter(d)


_ROW_FITS = {
    "probit": probit_cl_fit,
    "quadexp": quadexp_cl_fit,
    "quadexp-cluster-means": lambda d: quadexp_cl_fit(d, cluster_mean_covariates=True),
    "gamma": FITTERS["gamma"],
}


@pytest.mark.parametrize("where", ["front", "middle", "end"])
@pytest.mark.parametrize("name", list(_ROW_FITS))
def test_empty_cluster_is_a_constructor_error(name, where):
    # reduceat over the cluster starts would give an empty cluster the next
    # cluster's first row instead of 0, so no dataset a fitter sees holds one
    d = generate(_SPECS[name.split("-")[0]], 8)
    k = {"front": 0, "middle": d.n // 2, "end": d.n}[where]
    sizes = np.insert(d.cluster_sizes, k, 0)
    ids = np.insert(d.ids, k, "void")
    with pytest.raises(ValueError, match="cluster sizes must be positive"):
        ClusteredDataset(d.x, d.y, sizes, ids)


# ---------------------------------------------------------------------------
# the safeguards of the scoring driver, on least squares: loglik -(eta - y)^2 / 2
# with a Fisher weight of 1, whose maximum is the least-squares fit

_U = np.array([[1.0, 0.0], [1.0, 1.0], [1.0, 2.0], [1.0, 3.0], [1.0, 4.0], [1.0, 5.0]])
_Y = np.array([0.3, 1.1, 1.8, 3.2, 3.9, 5.1])


def _least_squares(step_scale=1.0, calls=None):
    """The least-squares row model; scoring steps use step_scale times its
    weight, so a scale below 1 overshoots and a negative one points downhill."""

    def loglik(eta, y):
        if calls is not None:
            calls.append(None)
        return -0.5 * (eta - y) ** 2

    return RowModel(loglik=loglik, score=lambda eta, y: y - eta,
                    weight=lambda eta, y: np.ones_like(eta),
                    step_weight=lambda eta, y: np.full_like(eta, step_scale))


def test_scoring_halves_an_overshooting_step():
    # a loose tolerance: near a score of 1e-6 the objective moves by less than
    # the 1e-12 slack of the halving test, and a tenfold step can pass it
    calls = []
    theta, steps, converged = fisher_scoring(_least_squares(0.1, calls), _U, _Y, np.zeros(2), 1e-4)
    assert converged
    np.testing.assert_allclose(theta, np.linalg.lstsq(_U, _Y, rcond=None)[0], atol=1e-4)
    # one objective at the start, one per accepted step, and the halvings
    assert len(calls) > 1 + steps


def test_scoring_stops_when_halving_runs_out():
    # a step downhill improves at no scale: scoring gives up where it started
    theta, steps, converged = fisher_scoring(_least_squares(-1.0), _U, _Y, np.zeros(2), SCORE_TOL)
    assert (steps, converged) == (0, False)
    np.testing.assert_array_equal(theta, np.zeros(2))


def test_scoring_reports_max_iter_without_convergence():
    # steps of 1/1000 of the Newton step shrink the score by 0.1% each
    theta, steps, converged = fisher_scoring(_least_squares(1e3), _U, _Y, np.zeros(2), SCORE_TOL)
    assert (steps, converged) == (MAX_ITER, False)


def test_scoring_divergence_is_a_separation_error():
    # the maximum lies past the divergence bound
    with pytest.raises(SeparationError, match="diverged"):
        fisher_scoring(_least_squares(), _U[:, :1], np.full(6, 5000.0), np.zeros(1), SCORE_TOL)


def test_scoring_refuses_a_non_finite_start():
    with pytest.raises(FitError, match="not finite at the starting point"):
        fisher_scoring(_least_squares(), _U, _Y, np.array([np.nan, 0.0]), SCORE_TOL)
