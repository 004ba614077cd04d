"""Shared fitting machinery: the result type, the stop rule every fitter
shares (`MAX_ITER`, `SCORE_TOL`), the sandwich covariance and its
correlation-ignoring (naive) variant, the 0/1 targets of a binary dataset,
`fit_rows`, the step-halving Fisher-scoring driver for composite
likelihoods whose terms depend on theta only through eta = u' theta, and
`size_groups`, which the response draws loop over.  Every fitter takes the
dataset alone.  Per-cluster sums are `reduceat` sums over `d.starts`, which
a dataset keeps valid: every cluster has a row.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, NamedTuple

import numpy as np

from ..data import ClusteredDataset

__all__ = ["FitError", "SeparationError", "FitResult", "sandwich", "naive_fit"]

MAX_ITER = 100  # scoring steps, or gaussian alternating updates, before a fit gives up
SCORE_TOL = 1e-6  # sup norm of the score at which a fit has converged

_MAX_CONDITION = 1e12
_DIVERGENCE_BOUND = 1e3
_MAX_HALVINGS = 30


class FitError(RuntimeError):
    """Structural failure while fitting (singular design, bad responses, ...)."""


class SeparationError(FitError):
    """Binary-response estimates diverged, indicating complete separation."""


@dataclass(frozen=True)
class FitResult:
    """Maximum composite likelihood fit with its sandwich covariance.

    `theta_hat` is the estimated parameter vector; its leading `n_beta`
    entries are the regression coefficients (models with an interaction or
    dispersion parameter append it after the coefficients or report it in
    `nuisance`).  `gamma_hat` estimates the asymptotic covariance of
    sqrt(n) * (theta_hat - theta), i.e. H^-1 J H^-1 (`naive_fit` swaps in
    the correlation-ignoring H^-1).
    """

    theta_hat: np.ndarray
    h_hat: np.ndarray
    j_hat: np.ndarray
    gamma_hat: np.ndarray
    loglik: float
    iterations: int
    converged: bool
    n_beta: int
    nuisance: dict = field(default_factory=dict)

    @property
    def beta(self) -> np.ndarray:
        return self.theta_hat[: self.n_beta]


def sandwich(h_hat: np.ndarray, j_hat: np.ndarray, naive: bool = False) -> np.ndarray:
    """H^-1 J H^-1, or plain H^-1 for the naive variant; symmetrized output."""
    h = np.asarray(h_hat, dtype=float)
    cond = np.linalg.cond(h)
    if not np.isfinite(cond) or cond > _MAX_CONDITION:
        raise FitError(f"sensitivity matrix is ill-conditioned (cond ~ {cond:.2e})")
    h_inv = np.linalg.inv(h)
    out = h_inv if naive else h_inv @ np.asarray(j_hat, dtype=float) @ h_inv
    return 0.5 * (out + out.T)


def naive_fit(fit: FitResult) -> FitResult:
    """The fit with gamma_hat = H^-1, the covariance that ignores the
    correlation within clusters."""
    return replace(fit, gamma_hat=sandwich(fit.h_hat, fit.j_hat, naive=True))


@dataclass(frozen=True)
class RowModel:
    """Per-row terms of a composite likelihood in eta = u' theta.

    `loglik` maps (eta, y) to the row's log-likelihood.  `terms` maps it to
    the row's score, the derivative in eta, and its weight in the scoring
    steps, computed together so they share their intermediates; that weight
    is the Fisher weight -E[d2 loglik / d eta2] of H = U'WU/n unless
    `fisher_weight` gives another.  `mean` maps eta to a binary response's
    fitted mean for the separation check.
    """

    loglik: Callable[[np.ndarray, np.ndarray], np.ndarray]
    terms: Callable[[np.ndarray, np.ndarray], tuple[np.ndarray, np.ndarray]]
    fisher_weight: Callable[[np.ndarray, np.ndarray], np.ndarray] | None = None
    mean: Callable[[np.ndarray], np.ndarray] | None = None

    def objective(self, u: np.ndarray, y: np.ndarray, theta) -> float:
        return float(np.sum(self.loglik(u @ np.asarray(theta, dtype=float), y)))

    def gradient(self, u: np.ndarray, y: np.ndarray, theta) -> np.ndarray:
        return u.T @ self.terms(u @ np.asarray(theta, dtype=float), y)[0]


class Scoring(NamedTuple):
    """The last iterate of `fisher_scoring` and what was computed at it."""

    theta: np.ndarray
    eta: np.ndarray  # u @ theta
    loglik: float  # the objective
    score: np.ndarray  # the row scores
    weight: np.ndarray  # the row step weights
    gradient: np.ndarray  # u' score
    steps: int
    converged: bool  # the gradient's sup norm is at most the tolerance


def binary_targets(d: ClusteredDataset, model: str) -> np.ndarray:
    """0/1 targets of a dataset whose responses are coded {0,1} or {-1,+1}."""
    if d.response_kind == "binary01":
        return d.y
    if d.response_kind == "binary_pm1":
        return (d.y + 1.0) / 2.0
    raise FitError(f"{model} fitter needs binary responses in {{0,1}} or {{-1,+1}}")


def size_groups(sizes: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(m, row mask, cluster mask) per distinct cluster size m; the masked
    rows reshape to (clusters of size m, m)."""
    row_sizes = np.repeat(sizes, sizes)
    return [(int(m), row_sizes == m, sizes == m) for m in np.unique(sizes)]


def _gram(u: np.ndarray, w: np.ndarray) -> np.ndarray:
    return (u * w[:, None]).T @ u


def fisher_scoring(
    model: RowModel, u: np.ndarray, y: np.ndarray, theta0: np.ndarray, tol: float
) -> Scoring:
    """Maximize a row model's concave objective by step-halving Fisher scoring.

    Stops after at most MAX_ITER steps; converged means the score's sup norm
    fell below `tol`.  A tiny step alone never ends the loop: linearly
    converging iterations take steps far below 1e-8 while the score is still
    above its tolerance.  Each iterate's eta and row terms are computed once:
    the eta of the candidate the line search accepts is the next step's.
    Divergence past a fixed bound raises SeparationError, a singular
    information matrix raises FitError.
    """
    theta = np.array(theta0, dtype=float)
    eta = u @ theta
    ll = float(np.sum(model.loglik(eta, y)))
    if not np.isfinite(ll):
        raise FitError("objective not finite at the starting point")
    steps = 0
    while True:
        score, weight = model.terms(eta, y)
        s = u.T @ score
        if np.max(np.abs(s)) <= tol or steps == MAX_ITER:
            break
        try:
            step = np.linalg.solve(_gram(u, weight), s)
        except np.linalg.LinAlgError as exc:
            raise FitError("singular information matrix") from exc
        scale = 1.0
        for _ in range(_MAX_HALVINGS):
            cand = theta + scale * step
            eta_cand = u @ cand
            ll_new = float(np.sum(model.loglik(eta_cand, y)))
            if np.isfinite(ll_new) and ll_new >= ll - 1e-12:
                break
            scale *= 0.5
        else:
            break
        steps += 1
        theta, eta, ll = cand, eta_cand, ll_new
        if np.max(np.abs(theta)) > _DIVERGENCE_BOUND:
            raise SeparationError("estimates diverged; responses may be separable")
    return Scoring(theta, eta, ll, score, weight, s, steps, bool(np.max(np.abs(s)) <= tol))


def fit_rows(model: RowModel, u: np.ndarray, y: np.ndarray, starts: np.ndarray,
             theta0: np.ndarray, tol: float) -> tuple[FitResult, Scoring]:
    """Fit a row model to design rows u and responses y stacked by cluster,
    `starts` holding each cluster's first row (`d.starts`), scoring until the
    score's sup norm is below `tol`; J is the empirical covariance of the
    per-cluster score sums.  n_beta counts every entry of theta.  The final
    scoring iterate comes with the fit, for fitters that read more off it."""
    sc = fisher_scoring(model, u, y, theta0, tol)
    if model.mean is not None and np.max(np.abs(y - model.mean(sc.eta))) < 1e-6:
        raise SeparationError("fitted probabilities reproduce every response exactly")
    n = len(starts)
    weight = sc.weight if model.fisher_weight is None else model.fisher_weight(sc.eta, y)
    h_hat = _gram(u, weight) / n
    h_hat = 0.5 * (h_hat + h_hat.T)
    cluster_scores = np.add.reduceat(u * sc.score[:, None], starts, axis=0)
    j_hat = cluster_scores.T @ cluster_scores / n
    fit = FitResult(sc.theta, h_hat, 0.5 * (j_hat + j_hat.T), sandwich(h_hat, j_hat),
                    sc.loglik, sc.steps, sc.converged, u.shape[1])
    return fit, sc
