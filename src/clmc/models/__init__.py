"""Composite-likelihood fitters and `FITTERS`, the one registry of them.

The probit, association-model and gamma fitters state their per-row terms
once and share one driver, `base.fit_rows`, for the fit, H, J and sandwich.
The gaussian CL and GLS fitters share one alternating loop whose weight
matrix is diag(Sigma)^-1 for CL and Sigma^-1 for GLS.
"""

from .base import FitError, FitResult, SeparationError, naive_fit, sandwich
from .gamma import gamma_cl_fit, gamma_cl_loglik, gamma_cl_score
from .mvn import mvn_cl_fit, mvn_cl_loglik, mvn_cl_score, mvn_mle_fit
from .probit import probit_cl_fit, probit_cl_loglik, probit_cl_score
from .quadexp import quadexp_cl_fit, quadexp_cl_loglik, quadexp_cl_score

FITTERS = {
    "mvn": mvn_cl_fit, "probit": probit_cl_fit, "quadexp": quadexp_cl_fit, "gamma": gamma_cl_fit,
}

__all__ = [
    "FITTERS", "FitError", "FitResult", "SeparationError", "naive_fit", "sandwich",
    "mvn_cl_fit", "mvn_mle_fit", "mvn_cl_loglik", "mvn_cl_score",
    "probit_cl_fit", "probit_cl_loglik", "probit_cl_score",
    "quadexp_cl_fit", "quadexp_cl_loglik", "quadexp_cl_score",
    "gamma_cl_fit", "gamma_cl_loglik", "gamma_cl_score",
]
