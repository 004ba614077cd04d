"""Composite-likelihood estimation and simultaneous inference for clustered data.

The package fits marginal/conditional composite-likelihood models to
clustered responses (gaussian, probit, pairwise-association binary, gamma),
estimates the sandwich covariance of the estimator, and applies simultaneous
multiple-comparison procedures whose sharpest member thresholds the
statistics at the equicoordinate quantile of their estimated joint normal
law.  A self-contained quasi-Monte Carlo engine supplies the multivariate
normal rectangle probabilities and quantiles, and a replicated simulation
harness estimates familywise error rates and power for whole scenarios.
"""

from .data import (
    ClusteredDataset,
    ContrastFamily,
    build_contrasts,
    validate_dataset,
)
from .inference import (
    MethodDecision,
    TestReport,
    adjust,
    correlation_matrix_V,
    evaluate_tests,
    test_statistics,
)
from .models import (
    FitError,
    FitResult,
    SeparationError,
    gamma_cl_fit,
    mvn_cl_fit,
    mvn_mle_fit,
    probit_cl_fit,
    quadexp_cl_fit,
    quadexp_enumeration_oracle,
    sandwich,
)
from .mvnprob import (
    ProbEstimate,
    QmcConfig,
    equicoordinate_p_values,
    equicoordinate_quantile,
    equicoordinate_rejects,
    mvn_rectangle_prob,
    studentized_range_quantile,
)
from .harness import (
    ExperimentConfig,
    SimSummary,
    experiment_config,
    preset_config,
    run_experiment,
)
from .simgen import (
    Exchangeable,
    ScenarioSpec,
    Unstructured,
    generate,
)

__version__ = "0.1.0"
