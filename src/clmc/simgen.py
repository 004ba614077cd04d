"""Random clustered data from the four supported models.

`generate(spec, seed)` is the one way to draw a dataset, and a pure function
of (spec, seed): repeated calls with the same seed return bit-identical
datasets.  It draws the cluster sizes, then the covariates, then the
responses of spec.model by that model's draw in `clmc.models.MODELS`, the
one table of the models, which also names the model-specific `ScenarioSpec`
fields each draw reads.  A `ScenarioSpec` refuses on construction every
scenario its model cannot draw, whose fields it would not read, with a
count that is not an integer or with a non-finite value, so generation never
fails on a configuration.
Covariates are freshly sampled standard normals for every cluster.  Rows
are built stacked: each random quantity is one batched draw in the order
of a loop over clusters, and the within-cluster algebra runs once per
distinct size.
"""

from __future__ import annotations

import dataclasses
import numbers
from dataclasses import dataclass

import numpy as np

from .data import ClusteredDataset
from .models import MODELS
from .models.quadexp import MAX_ENUMERATED_M

__all__ = [
    "Exchangeable",
    "Unstructured",
    "ScenarioSpec",
    "UNSTRUCTURED_SIGMA_M4",
    "generate",
]

# the ScenarioSpec fields some model's draw reads
_MODEL_FIELDS = {name for m in MODELS.values() for name in m.reads}

# 4x4 covariance with no special structure, symmetrized from its published
# row listing (one off-diagonal pair disagreed; we use the average, 0.6).
_SIGMA_M4_ROWS = np.array(
    [
        [1.3, 0.9, 0.5, 0.3],
        [0.9, 1.9, 1.3, 0.3],
        [0.5, 1.3, 1.3, 0.1],
        [0.3, 0.9, 0.1, 0.7],
    ]
)
UNSTRUCTURED_SIGMA_M4 = 0.5 * (_SIGMA_M4_ROWS + _SIGMA_M4_ROWS.T)
UNSTRUCTURED_SIGMA_M4.setflags(write=False)


@dataclass(frozen=True)
class Exchangeable:
    """Equal-variance, equal-correlation covariance sigma2 * ((1-rho) I + rho J)."""

    sigma2: float = 1.0
    rho: float = 0.0

    def __post_init__(self):
        for name in ("sigma2", "rho"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)}")
            object.__setattr__(self, name, float(getattr(self, name)))
        if not 0.0 < self.sigma2 < np.inf:
            raise ValueError(f"sigma2 must be positive and finite, got {self.sigma2}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("need |rho| < 1")

    def matrix(self, m: int) -> np.ndarray:
        s = np.full((m, m), self.sigma2 * self.rho)
        np.fill_diagonal(s, self.sigma2)
        return s


@dataclass(frozen=True)
class Unstructured:
    """Explicit covariance matrix (symmetrized on construction)."""

    sigma: np.ndarray

    def __post_init__(self):
        s = np.asarray(self.sigma, dtype=float)
        if s.ndim != 2 or s.shape[0] != s.shape[1]:
            raise ValueError("covariance must be square")
        if not np.isfinite(s).all():
            raise ValueError("sigma must be finite")
        object.__setattr__(self, "sigma", 0.5 * (s + s.T))

    def matrix(self, m: int) -> np.ndarray:
        return self.sigma


@dataclass(frozen=True)
class ScenarioSpec:
    """Description of one simulated clustered-data design.

    `m` is either a fixed cluster size or a tuple of sizes sampled uniformly
    per cluster, stored as an int or a tuple of ints whatever integer type
    it is given in.  `correlation` drives the within-cluster dependence for the
    gaussian/probit/gamma models; `w` is the association parameter of the
    binary pairwise-interaction model; `nu` the gamma shape.
    `clmc.models.MODELS` says which of these three fields each model reads;
    another of them set away from its default is refused.

    `x_row_corr` adds a shared cluster-level factor to the covariates:
    x_ij = sqrt(r) z_i + sqrt(1-r) e_ij with z, e standard normal, so rows of
    one cluster correlate at r while every entry stays marginally N(0, 1).
    At 0 the rows are independent, at 1 every subject in a cluster shares one
    covariate vector (a cluster-level design).  `x_scale` multiplies the
    covariates, setting their marginal standard deviation.  An `n`, `p` or
    `seed` that is not an integer (numpy integers are), a non-finite value,
    or a scenario its model could not draw, raises ValueError
    (`_check_drawable`).
    """

    model: str
    n: int
    m: int | tuple[int, ...]
    p: int
    beta: np.ndarray
    correlation: Exchangeable | Unstructured | None = None
    w: float = 0.0
    nu: float = 1.0
    seed: int = 0
    x_row_corr: float = 0.0
    x_scale: float = 1.0

    def __post_init__(self):
        if self.model not in MODELS:
            raise ValueError(f"unknown model {self.model!r}")
        for name in ("n", "p", "seed"):
            if not isinstance(getattr(self, name), numbers.Integral):
                raise ValueError(f"{name} must be an integer, got {getattr(self, name)}")
        if self.n < 2:
            raise ValueError("need at least 2 clusters")
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if len(beta) != self.p:
            raise ValueError(f"beta has length {len(beta)}, expected p={self.p}")
        for name in ("w", "nu", "x_row_corr", "x_scale"):
            if not isinstance(getattr(self, name), numbers.Real):
                raise ValueError(f"{name} must be a real number, got {getattr(self, name)}")
            object.__setattr__(self, name, float(getattr(self, name)))
        for name in ("beta", "w", "nu", "x_scale"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        sizes = np.atleast_1d(self.m).tolist()
        if not all(isinstance(v, numbers.Integral) for v in sizes):
            raise ValueError(f"m must be an integer cluster size or a list of them, got {self.m!r}")
        object.__setattr__(self, "m", int(self.m) if isinstance(self.m, numbers.Integral) else tuple(sizes))
        if not sizes or min(sizes) < 1:
            raise ValueError(f"m must be a positive cluster size or a nonempty list of them, got {self.m}")
        if self.seed < 0:
            raise ValueError(f"seed must be nonnegative, got {self.seed}")
        if not 0.0 <= self.x_row_corr <= 1.0:
            raise ValueError("x_row_corr must lie in [0, 1]")
        if self.x_scale <= 0.0:
            raise ValueError("x_scale must be positive")
        _check_drawable(self)

    def sizes(self, rng: np.random.Generator) -> np.ndarray:
        if isinstance(self.m, int):
            return np.full(self.n, self.m, dtype=int)
        choices = np.asarray(self.m, dtype=int)
        return rng.choice(choices, size=self.n)


def _check_drawable(spec: ScenarioSpec) -> None:
    """Raise ValueError unless the response draw of `spec.model` reads every
    model-specific field `spec` sets and can draw a cluster of every size in
    `spec.m`."""
    reads = MODELS[spec.model].reads
    for f in dataclasses.fields(spec):
        if f.name in _MODEL_FIELDS and f.name not in reads and getattr(spec, f.name) != f.default:
            raise ValueError(f"the {spec.model} model does not read {f.name!r}")
    sizes = set(np.atleast_1d(spec.m).tolist())
    corr = spec.correlation
    if spec.model == "quadexp" and max(sizes) > MAX_ENUMERATED_M:
        raise ValueError(f"enumeration sampler limited to cluster sizes <= {MAX_ENUMERATED_M}")
    if spec.model == "gamma" and spec.nu <= 0.0:
        raise ValueError("the gamma shape nu must be positive")
    if corr is None:
        return
    if spec.model == "gamma" and not (isinstance(corr, Exchangeable) and corr.rho >= 0.0):
        raise ValueError("the shared-component gamma construction needs an exchangeable rho >= 0")
    if isinstance(corr, Unstructured) and sizes != {len(corr.sigma)}:
        raise ValueError(f"covariance is {len(corr.sigma)}x..., cluster size is {spec.m}")
    for m in sizes:
        if spec.model != "mvn" and np.any(np.diag(corr.matrix(m)) != 1.0):
            raise ValueError(f"the {spec.model} model reads a correlation: its variances "
                             "(sigma2, the diagonal of sigma) must be 1")
        try:
            np.linalg.cholesky(corr.matrix(m))
        except np.linalg.LinAlgError:
            raise ValueError(f"correlation is not positive definite at cluster size {m}") from None


def _covariates(spec: ScenarioSpec, sizes: np.ndarray, rng) -> np.ndarray:
    """Stacked (N, p) covariates; for x_row_corr > 0 one draw holds each
    cluster's shared-factor row (its head) followed by its m own rows.  At
    x_row_corr 1 the own rows carry no weight: they are drawn, so the stream
    does not depend on r, and left out."""
    r = spec.x_row_corr
    if r == 0.0:
        return spec.x_scale * rng.standard_normal((sizes.sum(), spec.p))
    draws = rng.standard_normal((len(sizes) + sizes.sum(), spec.p))
    heads = np.cumsum(sizes + 1) - (sizes + 1)
    x = np.repeat(draws[heads], sizes, axis=0)
    if r < 1.0:
        x *= np.sqrt(r)
        own = np.delete(draws, heads, axis=0)
        own *= np.sqrt(1.0 - r)
        x += own
    x *= spec.x_scale
    return x


def generate(spec: ScenarioSpec, seed=None) -> ClusteredDataset:
    """The dataset `spec` describes, drawn by the generator seeded with `seed`
    (spec.seed when None): cluster sizes, covariates, then the responses of
    spec.model."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    sizes = spec.sizes(rng)
    x = _covariates(spec, sizes, rng)
    y = MODELS[spec.model].draw(spec, x, sizes, rng)
    return ClusteredDataset(x, y, sizes)
