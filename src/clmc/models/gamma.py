"""Univariate composite-likelihood fitter for clustered gamma responses.

Each margin is Gamma with shape nu and mean mu_ij = exp(x_ij' beta), so the
per-observation log-density is

    -nu y/mu - nu log mu + nu log nu + (nu - 1) log y - log Gamma(nu).

The score in beta is nu * sum_ij x_ij (y_ij/mu_ij - 1): nu only scales it,
so beta_hat does not depend on nu and `fit_rows` runs Newton steps (observed
weight y/mu) on the nu-free quasi-objective sum(-y/mu - log mu), whose Fisher
weight is 1.  H and J of the full likelihood are nu and nu^2 times those of
the quasi-objective, so the sandwich is nu-free and H^-1 scales by 1/nu.  The
shape is then recovered from the mean scaled deviance

    D = 2/(N - p) * sum_ij ((y-mu)/mu + log(mu/y)),      N = total rows,

through 1/nu = D(6(n-p) + nD) / (6(n-p) + 2nD).  Zero-deviance (saturated)
fits would send nu to infinity; the dispersion is floored at 1e-12 so the
reported matrices stay finite.
"""

from __future__ import annotations

import dataclasses

import numpy as np
from scipy.special import gammaln

from ..data import ClusteredDataset
from .base import SCORE_TOL, FitError, FitResult, RowModel, fit_rows

__all__ = ["gamma_cl_fit", "gamma_cl_loglik", "gamma_cl_score"]

_MIN_DISPERSION = 1e-12


def _positive(y: np.ndarray) -> np.ndarray:
    if not (y > 0).all():
        raise FitError("gamma fitter needs strictly positive responses")
    return y


def _quasi_loglik(eta, y):
    with np.errstate(over="ignore"):
        mu = np.exp(eta)
    return np.where(np.isfinite(mu), -y / mu - eta, -np.inf)


def _quasi_terms(eta, y):
    w = y / np.exp(eta)  # the observed weight y/mu
    return w - 1.0, w


_QUASI = RowModel(
    loglik=_quasi_loglik,
    terms=_quasi_terms,
    fisher_weight=lambda eta, y: np.ones_like(eta),
)


def _loglik(eta: np.ndarray, y: np.ndarray, nu: float) -> float:
    terms = nu * _quasi_loglik(eta, y) + nu * np.log(nu) + (nu - 1.0) * np.log(y) - gammaln(nu)
    return float(np.sum(terms))


def gamma_cl_loglik(d: ClusteredDataset, beta, nu: float) -> float:
    return _loglik(d.x @ np.asarray(beta, dtype=float), _positive(d.y), nu)


def gamma_cl_score(d: ClusteredDataset, beta, nu: float) -> np.ndarray:
    return nu * _QUASI.gradient(d.x, _positive(d.y), beta)


def _dispersion(dev_sum: float, n_obs: int, n_clusters: int, p: int) -> float:
    """1/nu from the mean scaled deviance; 0 means no estimable dispersion."""
    dof = n_obs - p
    if dof <= 0 or dev_sum <= 0.0:
        return 0.0
    dmean = 2.0 * dev_sum / dof
    num = dmean * (6.0 * (n_clusters - p) + n_clusters * dmean)
    den = 6.0 * (n_clusters - p) + 2.0 * n_clusters * dmean
    if den == 0.0 or not np.isfinite(num / den) or num / den <= 0.0:
        return 0.0
    return num / den


def gamma_cl_fit(d: ClusteredDataset) -> FitResult:
    x, y = d.x, _positive(d.y)
    try:
        # least squares on log y by the normal equations, several times cheaper than lstsq's SVD
        beta0 = np.linalg.solve(x.T @ x, x.T @ np.log(y))
    except np.linalg.LinAlgError as exc:
        raise FitError("singular design matrix") from exc
    fit, sc = fit_rows(_QUASI, x, y, d.starts, beta0, 0.01 * SCORE_TOL)
    mu = np.exp(sc.eta)
    dev_sum = float(np.sum((y - mu) / mu + np.log(mu / y)))
    dispersion = _dispersion(dev_sum, len(y), d.n, d.p)
    nu = 1.0 / max(dispersion, _MIN_DISPERSION)
    # the convergence contract is on the full score nu * t
    score = nu * np.max(np.abs(sc.gradient))
    converged = bool(fit.converged and (dispersion <= _MIN_DISPERSION or score <= SCORE_TOL))
    return dataclasses.replace(
        fit, h_hat=nu * fit.h_hat, j_hat=nu * nu * fit.j_hat, loglik=_loglik(sc.eta, y, nu),
        converged=converged, nuisance={"nu": nu},
    )


def draw(spec, x: np.ndarray, sizes: np.ndarray, rng) -> np.ndarray:
    """Gamma margins of shape nu and mean exp(x_ij' beta): each row's own
    Gamma((1 - rho) nu) draw plus, at rho > 0, one Gamma(rho nu) draw its
    cluster shares, scaled by mu / nu; rho is the within-cluster correlation."""
    mu = np.exp(x @ spec.beta)
    nu = spec.nu
    rho = spec.correlation.rho if spec.correlation else 0.0
    if rho == 0.0:
        return mu * rng.gamma(nu, size=len(x)) / nu
    # one draw holds each cluster's shared component (its head) followed by its m own ones
    heads = np.cumsum(sizes + 1) - (sizes + 1)
    shapes = np.full(len(sizes) + len(x), (1.0 - rho) * nu)
    shapes[heads] = rho * nu
    g = rng.gamma(shapes)
    y = np.delete(g, heads)
    y += np.repeat(g[heads], sizes)
    y *= mu
    y /= rho * nu + (1.0 - rho) * nu  # nu, rounded as the sum of the two shapes
    return y
