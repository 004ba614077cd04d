"""Composite-likelihood and full-likelihood fitters for clustered Gaussian data.

The working model is y_i = X_i beta + eps_i with eps_i ~ N(0, Sigma) and a
common cluster size m.  The univariate composite likelihood treats each
coordinate marginally, so only the diagonal of Sigma enters the estimating
equation: with W = diag(Sigma)^-1,

    beta_hat = (sum_i X_i' W X_i)^-1 sum_i X_i' W y_i,

and Sigma is re-estimated from the residual vectors between steps.  The
full-likelihood (GLS) fitter replaces W by Sigma^-1 and is used for
efficiency comparisons only; both run one alternating loop that takes the
weight as a function of Sigma and stops when beta moves less than
PARAM_TOL.  H = sum_i X_i' W X_i / n and J = sum_i X_i' W Sigma W X_i / n,
so J = H for the GLS weight.
"""

from __future__ import annotations

import numpy as np

from ..data import ClusteredDataset
from .base import MAX_ITER, FitError, FitResult, sandwich, size_groups

__all__ = ["mvn_cl_fit", "mvn_mle_fit", "mvn_cl_loglik", "mvn_cl_score"]

PARAM_TOL = 1e-8  # largest change of beta between updates that ends the loop


def _gaussian_arrays(d: ClusteredDataset) -> tuple[np.ndarray, np.ndarray]:
    if d.response_kind in ("binary01", "binary_pm1"):
        raise FitError("gaussian fitters need continuous responses")
    if not d.constant_m:
        raise FitError(
            "residual-covariance estimation needs a constant cluster size; "
            f"got sizes {sorted(set(d.cluster_sizes.tolist()))}"
        )
    return d.x.reshape(d.n, -1, d.p), d.y.reshape(d.n, -1)


def _marginal_loglik(resid: np.ndarray, sigma_diag) -> float:
    v = np.asarray(sigma_diag, dtype=float)
    return float(np.sum(-0.5 * np.log(2.0 * np.pi * v) - resid * resid / (2.0 * v)))


def _full_loglik(resid: np.ndarray, sigma: np.ndarray) -> float:
    n, m = resid.shape
    sign, logdet = np.linalg.slogdet(sigma)
    if sign <= 0:
        raise FitError("residual covariance is not positive definite")
    # sum_i r_i' Sigma^-1 r_i = tr(R'R Sigma^-1)
    quad = float(np.dot((resid.T @ resid).ravel(), np.linalg.inv(sigma).T.ravel()))
    return -0.5 * n * (m * np.log(2.0 * np.pi) + logdet) - 0.5 * quad


def mvn_cl_loglik(d: ClusteredDataset, beta, sigma_diag) -> float:
    """Univariate composite log-likelihood at (beta, diag(Sigma))."""
    xs, ys = _gaussian_arrays(d)
    return _marginal_loglik(ys - xs @ np.asarray(beta, dtype=float), sigma_diag)


def mvn_cl_score(d: ClusteredDataset, beta, sigma_diag) -> np.ndarray:
    xs, ys = _gaussian_arrays(d)
    return np.einsum("imp,im->p", xs, (ys - xs @ np.asarray(beta, dtype=float)) / sigma_diag)


def _alternating_fit(d: ClusteredDataset, weigh, loglik) -> FitResult:
    """Alternate beta = (sum X_i' W X_i)^-1 sum X_i' W y_i, with the stacked
    W X_i = weigh(Sigma, X), and Sigma = residual covariance until beta moves
    less than PARAM_TOL."""
    xs, ys = _gaussian_arrays(d)
    n, m, p = xs.shape
    x_rows = xs.reshape(n * m, p)
    sigma = np.eye(m)
    beta = None
    try:
        for iterations in range(1, MAX_ITER + 1):
            wx_rows = weigh(sigma, xs).reshape(n * m, p)
            beta_new = np.linalg.solve(x_rows.T @ wx_rows, wx_rows.T @ ys.reshape(n * m))
            converged = beta is not None and np.max(np.abs(beta_new - beta)) < PARAM_TOL
            beta = beta_new
            if converged:
                break
            resid = ys - xs @ beta
            sigma = resid.T @ resid / n
        wx_rows = weigh(sigma, xs).reshape(n * m, p)
    except np.linalg.LinAlgError as exc:
        raise FitError("singular design matrix or residual covariance") from exc
    h_hat = x_rows.T @ wx_rows / n
    h_hat = 0.5 * (h_hat + h_hat.T)
    j_hat = wx_rows.T @ (sigma @ wx_rows.reshape(n, m, p)).reshape(n * m, p) / n
    j_hat = 0.5 * (j_hat + j_hat.T)
    return FitResult(
        beta, h_hat, j_hat, sandwich(h_hat, j_hat), loglik(ys - xs @ beta, sigma),
        iterations, bool(converged), p, {"sigma": sigma},
    )


def mvn_cl_fit(d: ClusteredDataset) -> FitResult:
    """Alternating weighted-least-squares / residual-covariance fit."""
    # W = diag(Sigma)^-1 scales the rows of each X_i
    return _alternating_fit(d, lambda s, xs: xs * (1.0 / np.diag(s))[:, None],
                            lambda r, s: _marginal_loglik(r, np.diag(s)))


def mvn_mle_fit(d: ClusteredDataset) -> FitResult:
    """Iterated GLS (full Gaussian likelihood); used for efficiency ratios."""
    return _alternating_fit(d, lambda s, xs: np.linalg.inv(s) @ xs, _full_loglik)


def draw(spec, x: np.ndarray, sizes: np.ndarray, rng) -> np.ndarray:
    """y_i = X_i beta + L_m z_i with z drawn for every row at once and L_m the
    Cholesky factor of the size-m covariance, spec.correlation.matrix(m), or
    of I when spec.correlation is None."""
    z = rng.standard_normal(len(x))
    eps = np.empty(len(x))
    for m, rows, _ in size_groups(sizes):
        sigma = np.eye(m) if spec.correlation is None else spec.correlation.matrix(m)
        eps[rows] = (z[rows].reshape(-1, m) @ np.linalg.cholesky(sigma).T).ravel()
    return x @ spec.beta + eps
