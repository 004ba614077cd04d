"""Random clustered data from the four supported models, plus an exact
enumeration oracle for the pairwise-association binary model.

`generate(spec, seed)` is the one way to draw a dataset, and a pure function
of (spec, seed): repeated calls with the same seed return bit-identical
datasets.  It draws the cluster sizes, then the covariates, then the
responses of spec.model.  `MODELS` is the one table of the models: each
one's response draw (spec, x, sizes, rng) -> y and the model-specific
`ScenarioSpec` fields it reads.  A `ScenarioSpec` refuses on construction
every scenario its model cannot draw, whose fields it would not read, or
with a non-finite value, so generation never fails on a configuration.
Covariates are freshly sampled standard normals for every cluster.  Rows
are built stacked: each random quantity is one batched draw in the order
of a loop over clusters, and the within-cluster algebra runs once per
distinct size.
"""

from __future__ import annotations

import dataclasses
import functools
from dataclasses import dataclass

import numpy as np

from .data import ClusteredDataset

__all__ = [
    "Exchangeable",
    "Unstructured",
    "ScenarioSpec",
    "UNSTRUCTURED_SIGMA_M4",
    "generate",
    "quadexp_enumeration_oracle",
]

_MAX_ENUMERATED_M = 20  # largest cluster whose 2^m response vectors are enumerated

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
    per cluster.  `correlation` drives the within-cluster dependence for the
    gaussian/probit/gamma models; `w` is the association parameter of the
    binary pairwise-interaction model; `nu` the gamma shape.  `MODELS` says
    which of these three fields each model reads; another of them set away
    from its default is refused.

    `x_row_corr` adds a shared cluster-level factor to the covariates:
    x_ij = sqrt(r) z_i + sqrt(1-r) e_ij with z, e standard normal, so rows of
    one cluster correlate at r while every entry stays marginally N(0, 1).
    At 0 the rows are independent, at 1 every subject in a cluster shares one
    covariate vector (a cluster-level design).  `x_scale` multiplies the
    covariates, setting their marginal standard deviation.  A non-finite
    value, or a scenario its model could not draw, raises ValueError
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
        if self.n < 2:
            raise ValueError("need at least 2 clusters")
        beta = np.asarray(self.beta, dtype=float)
        object.__setattr__(self, "beta", beta)
        if len(beta) != self.p:
            raise ValueError(f"beta has length {len(beta)}, expected p={self.p}")
        for name in ("beta", "w", "nu", "x_scale"):
            if not np.isfinite(getattr(self, name)).all():
                raise ValueError(f"{name} must be finite, got {getattr(self, name)}")
        if not isinstance(self.m, int):
            object.__setattr__(self, "m", tuple(int(v) for v in self.m))
        if not self.m or min(np.atleast_1d(self.m)) < 1:
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
    reads = MODELS[spec.model][1]
    for f in dataclasses.fields(spec):
        if f.name in _MODEL_FIELDS and f.name not in reads and getattr(spec, f.name) != f.default:
            raise ValueError(f"the {spec.model} model does not read {f.name!r}")
    sizes = set(np.atleast_1d(spec.m).tolist())
    corr = spec.correlation
    if spec.model == "quadexp" and max(sizes) > _MAX_ENUMERATED_M:
        raise ValueError(f"enumeration sampler limited to cluster sizes <= {_MAX_ENUMERATED_M}")
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
    cluster's shared-factor row followed by its m rows."""
    r = spec.x_row_corr
    if r == 0.0:
        return spec.x_scale * rng.standard_normal((sizes.sum(), spec.p))
    draws = rng.standard_normal((len(sizes) + sizes.sum(), spec.p))
    shared = np.zeros(len(draws), dtype=bool)
    shared[np.cumsum(sizes + 1) - (sizes + 1)] = True
    z = np.repeat(draws[shared], sizes, axis=0)
    return spec.x_scale * (np.sqrt(r) * z + np.sqrt(1.0 - r) * draws[~shared])


def _size_groups(sizes: np.ndarray) -> list[tuple[int, np.ndarray, np.ndarray]]:
    """(m, row mask, cluster mask) per distinct cluster size m; the masked
    rows reshape to (clusters of size m, m)."""
    row_sizes = np.repeat(sizes, sizes)
    return [(int(m), row_sizes == m, sizes == m) for m in np.unique(sizes)]


def _mvn(spec: ScenarioSpec, x: np.ndarray, sizes: np.ndarray, rng) -> np.ndarray:
    """y_i = X_i beta + L_m z_i with z drawn for every row at once and L_m the
    Cholesky factor of the size-m covariance."""
    corr = spec.correlation or Exchangeable(1.0, 0.0)
    z = rng.standard_normal(len(x))
    eps = np.empty(len(x))
    for m, rows, _ in _size_groups(sizes):
        eps[rows] = (z[rows].reshape(-1, m) @ np.linalg.cholesky(corr.matrix(m)).T).ravel()
    return x @ spec.beta + eps


def _probit(spec: ScenarioSpec, x: np.ndarray, sizes: np.ndarray, rng) -> np.ndarray:
    """The gaussian latent dichotomized at zero; its scale is one."""
    return (_mvn(spec, x, sizes, rng) > 0.0).astype(float)


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
    if m > _MAX_ENUMERATED_M:
        raise ValueError(f"enumeration limited to m <= {_MAX_ENUMERATED_M}, got {m}")
    configs, inter = _configs_pm1(m)
    mu_star = x @ np.asarray(beta, dtype=float) / 2.0
    expo = configs @ mu_star + (w / 2.0) * inter
    expo -= expo.max()
    weights = np.exp(expo)
    return configs, weights / weights.sum()


def _quadexp(spec: ScenarioSpec, x: np.ndarray, sizes: np.ndarray, rng) -> np.ndarray:
    """Exact sampling by enumerating all configurations per cluster size."""
    uniforms = rng.random(spec.n)
    mu_star = x @ spec.beta / 2.0
    y = np.empty(len(x))
    for m, rows, clusters in _size_groups(sizes):
        configs, inter = _configs_pm1(m)
        expo = configs @ mu_star[rows].reshape(-1, m).T + (spec.w / 2.0) * inter[:, None]
        expo -= expo.max(axis=0, keepdims=True)
        weights = np.exp(expo)
        cum = np.cumsum(weights / weights.sum(axis=0, keepdims=True), axis=0)
        picks = (cum < uniforms[clusters][None, :]).sum(axis=0)
        y[rows] = configs[picks].ravel()
    return y


def _gamma(spec: ScenarioSpec, x: np.ndarray, sizes: np.ndarray, rng) -> np.ndarray:
    """Gamma margins of shape nu and mean exp(x_ij' beta): each row's own
    Gamma((1 - rho) nu) draw plus, at rho > 0, one Gamma(rho nu) draw its
    cluster shares, scaled by mu / nu; rho is the within-cluster correlation."""
    mu = np.exp(x @ spec.beta)
    nu = spec.nu
    rho = spec.correlation.rho if spec.correlation else 0.0
    if rho == 0.0:
        return mu * rng.gamma(nu, size=len(x)) / nu
    # one draw holds each cluster's shared component followed by its m own ones
    shared = np.zeros(len(sizes) + len(x), dtype=bool)
    shared[np.cumsum(sizes + 1) - (sizes + 1)] = True
    g = rng.gamma(np.where(shared, rho * nu, (1.0 - rho) * nu))
    total_shape = rho * nu + (1.0 - rho) * nu  # nu, rounded as the sum of the two shapes
    return mu * (np.repeat(g[shared], sizes) + g[~shared]) / total_shape


# Each model's response draw (spec, x, sizes, rng) -> y and the
# model-specific ScenarioSpec fields it reads
MODELS = {
    "mvn": (_mvn, ("correlation",)),
    "probit": (_probit, ("correlation",)),
    "quadexp": (_quadexp, ("w",)),
    "gamma": (_gamma, ("correlation", "nu")),
}
_MODEL_FIELDS = {name for _, reads in MODELS.values() for name in reads}


def generate(spec: ScenarioSpec, seed=None) -> ClusteredDataset:
    """The dataset `spec` describes, drawn by the generator seeded with `seed`
    (spec.seed when None): cluster sizes, covariates, then the responses of
    spec.model."""
    rng = np.random.default_rng(spec.seed if seed is None else seed)
    sizes = spec.sizes(rng)
    x = _covariates(spec, sizes, rng)
    y = MODELS[spec.model][0](spec, x, sizes, rng)
    return ClusteredDataset(x, y, sizes, np.arange(len(sizes)).astype(str))
