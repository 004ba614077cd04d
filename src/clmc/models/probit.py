"""Univariate composite-likelihood probit fitter for clustered binary data.

Marginally P(y_ij = 1 | x_ij) = Phi(x_ij' beta); the composite likelihood is
the product of these Bernoulli margins.  The score and the sensitivity matrix
use the inverse-Mills ratios r1 = phi/Phi and r0 = phi/(1 - Phi), evaluated
in log space so that extreme linear predictors do not underflow; note
r1 * r0 = phi^2 / (Phi (1 - Phi)), the Fisher weight, so the score and the
weight of a row share one pair of ratios.  The variability matrix
plugs the empirical outer product of the cluster residuals into the usual
middle term, which is exactly the empirical covariance of the per-cluster
score vectors.  The fit is `fit_rows` on the probit row functions below.
"""

from __future__ import annotations

import numpy as np
from scipy.special import log_ndtr, ndtr

from ..data import ClusteredDataset
from . import mvn
from .base import SCORE_TOL, FitResult, RowModel, binary_targets, fit_rows

__all__ = ["probit_cl_fit", "probit_cl_loglik", "probit_cl_score"]


def _mills(eta: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    log_phi = -0.5 * eta * eta - 0.5 * np.log(2.0 * np.pi)
    r1 = np.exp(log_phi - log_ndtr(eta))
    r0 = np.exp(log_phi - log_ndtr(-eta))
    return r1, r0


def _terms(eta, y):
    r1, r0 = _mills(eta)
    return y * r1 - (1.0 - y) * r0, r1 * r0


_PROBIT = RowModel(
    loglik=lambda eta, y: y * log_ndtr(eta) + (1.0 - y) * log_ndtr(-eta),
    terms=_terms,
    mean=ndtr,
)


def probit_cl_loglik(d: ClusteredDataset, beta) -> float:
    return _PROBIT.objective(d.x, binary_targets(d, "probit"), beta)


def probit_cl_score(d: ClusteredDataset, beta) -> np.ndarray:
    return _PROBIT.gradient(d.x, binary_targets(d, "probit"), beta)


def probit_cl_fit(d: ClusteredDataset) -> FitResult:
    y = binary_targets(d, "probit")
    return fit_rows(_PROBIT, d.x, y, d.starts, np.zeros(d.p), SCORE_TOL)[0]


def draw(spec, x: np.ndarray, sizes: np.ndarray, rng) -> np.ndarray:
    """The gaussian latent dichotomized at zero; its scale is one."""
    return (mvn.draw(spec, x, sizes, rng) > 0.0).astype(float)
