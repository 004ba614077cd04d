"""Conditional composite-likelihood fitter for the pairwise-association
binary (quadratic exponential) model.

Responses live on {-1, +1}; a cluster y_i = (y_i1, ..., y_im) has density
proportional to exp(sum_j mu*_ij y_ij + w* sum_{j<j'} y_ij y_ij') where w*
carries the within-cluster association.  The full conditional of one
coordinate given the rest is Bernoulli with

    logit P(y_ij = +1 | rest) = mu_ij + w * s_ij,

on the doubled scale mu_ij = 2 mu*_ij, w = 2 w*, where s_ij is the sum of
the other responses in the cluster: s_ij = 2 z_i - m_i - y_ij with z_i the
cluster's count of +1s.  Summing the conditional Bernoulli log-likelihoods
over all observations therefore reduces to an ordinary logistic regression
of t_ij = 1{y_ij = +1} on the augmented covariate row (x_ij, s_ij), whose
coefficient vector is (beta, w).  The fit is `fit_rows` on the logistic row
functions, i.e. iteratively reweighted least squares; the sensitivity matrix
is the weighted logistic information and the variability matrix is the
empirical covariance of the per-cluster scores.
"""

from __future__ import annotations

import dataclasses
import functools

import numpy as np
from scipy.special import expit

from ..data import ClusteredDataset
from .base import SCORE_TOL, FitResult, RowModel, binary_targets, fit_rows, size_groups

__all__ = ["quadexp_cl_fit", "quadexp_cl_loglik", "quadexp_cl_score", "quadexp_enumeration_oracle"]

MAX_ENUMERATED_M = 20  # largest cluster whose 2^m response vectors are enumerated


def _augmented_design(d: ClusteredDataset, cluster_means: bool = False) -> tuple[np.ndarray, ...]:
    """(U, t, starts): logistic design [x | association column], 0/1 target."""
    x, starts, sizes = d.x, d.starts, d.cluster_sizes
    t = binary_targets(d, "association-model")
    # s_ij = 2 z_i - m_i - y_ij on the +-1 scale
    s = np.repeat(2.0 * np.add.reduceat(t, starts) - sizes, sizes) - (2.0 * t - 1.0)
    if cluster_means:
        x = np.repeat(np.add.reduceat(x, starts, axis=0) / sizes[:, None], sizes, axis=0)
    return np.column_stack([x, s]), t, starts


def _terms(eta, t):
    pi = expit(eta)
    return t - pi, pi * (1.0 - pi)


_LOGISTIC = RowModel(
    loglik=lambda eta, t: t * eta - np.logaddexp(0.0, eta),
    terms=_terms,
    mean=expit,
)


def quadexp_cl_loglik(d: ClusteredDataset, beta, w, cluster_mean_covariates=False) -> float:
    """Conditional composite log-likelihood at (beta, w)."""
    u, t, _ = _augmented_design(d, cluster_mean_covariates)
    return _LOGISTIC.objective(u, t, np.append(np.asarray(beta, dtype=float), w))


def quadexp_cl_score(d: ClusteredDataset, beta, w, cluster_mean_covariates=False) -> np.ndarray:
    u, t, _ = _augmented_design(d, cluster_mean_covariates)
    return _LOGISTIC.gradient(u, t, np.append(np.asarray(beta, dtype=float), w))


def quadexp_cl_fit(d: ClusteredDataset, cluster_mean_covariates: bool = False) -> FitResult:
    """Estimate (beta, w) jointly; theta_hat is (beta_1..beta_p, w).

    `cluster_mean_covariates` replaces each row of x by its cluster mean,
    for designs where the main effect is a single cluster-level quantity.
    """
    u, t, starts = _augmented_design(d, cluster_mean_covariates)
    fit, _ = fit_rows(_LOGISTIC, u, t, starts, np.zeros(d.p + 1), SCORE_TOL)
    return dataclasses.replace(fit, n_beta=d.p, nuisance={"w": float(fit.theta_hat[-1])})


@functools.lru_cache(maxsize=32)
def _configs_pm1(m: int) -> tuple[np.ndarray, np.ndarray]:
    """All 2^m sign configurations and their pairwise-product sums."""
    grid = np.indices((2,) * m).reshape(m, -1).T
    configs = (2.0 * grid - 1.0)[:, ::-1]
    srow = configs.sum(axis=1)
    inter = 0.5 * (srow * srow - m)
    configs.setflags(write=False)
    inter.setflags(write=False)
    return configs, inter


def quadexp_enumeration_oracle(x: np.ndarray, beta, w: float):
    """Exact probability table of the pairwise-association model.

    Returns (configs, probs): all 2^m response vectors over {-1,+1}^m and
    their exact probabilities under main effects x @ beta (on the doubled
    scale) and association w (likewise doubled: the density exponent uses
    mu* = x beta / 2 and w* = w / 2).
    """
    x = np.atleast_2d(np.asarray(x, dtype=float))
    m = x.shape[0]
    if m > MAX_ENUMERATED_M:
        raise ValueError(f"enumeration limited to m <= {MAX_ENUMERATED_M}, got {m}")
    configs, inter = _configs_pm1(m)
    mu_star = x @ np.asarray(beta, dtype=float) / 2.0
    expo = configs @ mu_star + (w / 2.0) * inter
    expo -= expo.max()
    weights = np.exp(expo)
    return configs, weights / weights.sum()


def draw(spec, x: np.ndarray, sizes: np.ndarray, rng) -> np.ndarray:
    """Exact sampling by enumerating all configurations per cluster size."""
    uniforms = rng.random(spec.n)
    mu_star = x @ spec.beta / 2.0
    y = np.empty(len(x))
    for m, rows, clusters in size_groups(sizes):
        configs, inter = _configs_pm1(m)
        expo = configs @ mu_star[rows].reshape(-1, m).T + (spec.w / 2.0) * inter[:, None]
        expo -= expo.max(axis=0, keepdims=True)
        weights = np.exp(expo)
        cum = np.cumsum(weights / weights.sum(axis=0, keepdims=True), axis=0)
        picks = (cum < uniforms[clusters][None, :]).sum(axis=0)
        y[rows] = configs[picks].ravel()
    return y
