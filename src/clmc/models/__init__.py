"""The four clustered models, each stated once in `MODELS`: its
composite-likelihood fitter, its response draw and the `ScenarioSpec` fields
that draw reads.  `FITTERS` indexes the fitters by model name.

The probit, association-model and gamma fitters state their per-row terms
once and share one driver, `base.fit_rows`, for the fit, H, J and sandwich.
The gaussian CL and GLS fitters share one alternating loop whose weight
matrix is diag(Sigma)^-1 for CL and Sigma^-1 for GLS.  Each draw maps
(spec, x, sizes, rng) to the stacked responses y; `simgen.generate` calls it
after drawing the sizes and the covariates.
"""

from typing import Callable, NamedTuple

from . import gamma, mvn, probit, quadexp
from .base import FitError, FitResult, SeparationError, naive_fit, sandwich
from .gamma import gamma_cl_fit, gamma_cl_loglik, gamma_cl_score
from .mvn import mvn_cl_fit, mvn_cl_loglik, mvn_cl_score, mvn_mle_fit
from .probit import probit_cl_fit, probit_cl_loglik, probit_cl_score
from .quadexp import quadexp_cl_fit, quadexp_cl_loglik, quadexp_cl_score, quadexp_enumeration_oracle


class Model(NamedTuple):
    """One model: its fitter (dataset) -> FitResult, its response draw
    (spec, x, sizes, rng) -> y, and the model-specific ScenarioSpec fields
    the draw reads."""

    fit: Callable
    draw: Callable
    reads: tuple[str, ...]


MODELS = {
    "mvn": Model(mvn_cl_fit, mvn.draw, ("correlation",)),
    "probit": Model(probit_cl_fit, probit.draw, ("correlation",)),
    "quadexp": Model(quadexp_cl_fit, quadexp.draw, ("w",)),
    "gamma": Model(gamma_cl_fit, gamma.draw, ("correlation", "nu")),
}
FITTERS = {name: m.fit for name, m in MODELS.items()}

__all__ = [
    "MODELS", "Model", "FITTERS", "FitError", "FitResult", "SeparationError", "naive_fit", "sandwich",
    "mvn_cl_fit", "mvn_mle_fit", "mvn_cl_loglik", "mvn_cl_score",
    "probit_cl_fit", "probit_cl_loglik", "probit_cl_score",
    "quadexp_cl_fit", "quadexp_cl_loglik", "quadexp_cl_score", "quadexp_enumeration_oracle",
    "gamma_cl_fit", "gamma_cl_loglik", "gamma_cl_score",
]
