"""Clustered datasets and contrast families.

A clustered dataset holds n independent clusters; cluster i contributes a
response vector y_i of length m_i and an m_i x p covariate matrix X_i.
Observations within a cluster may be dependent, observations from different
clusters are independent.  The dataset stores every row once, as columns:
the rows of all clusters stacked in cluster order (x is N x p and y has N
entries, N = sum m_i), the cluster sizes m_i >= 1 and one id per cluster.
Per-cluster sums are `reduceat` sums over `starts`, the first row of each
cluster.  The response kind is read off y, so it always agrees with it.
`validate_dataset` returns one message per problem the constructor leaves
to the data (too few clusters, non-finite values), as plain strings.
A contrast family is a c x p matrix C whose rows define the linear
hypotheses C_i' beta = 0 tested jointly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

CONTRAST_KINDS = ("many_to_one", "all_pairwise", "custom")


@dataclass(frozen=True)
class ClusteredDataset:
    """Rows of n clusters stacked in cluster order: covariates x (N, p) and
    responses y (N,), with the size and the opaque id of each cluster.

    Arrays that do not fit together (x not N x p, a cluster without rows,
    sizes that do not sum to N, not one id per cluster) raise ValueError;
    `validate_dataset` returns a message for everything else.
    """

    x: np.ndarray
    y: np.ndarray
    cluster_sizes: np.ndarray
    ids: np.ndarray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        sizes = np.asarray(self.cluster_sizes, dtype=int)
        ids = np.asarray(self.ids, dtype=object)  # ids kept verbatim, as Python strings
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(f"need covariates (N, p) and responses (N,), got {x.shape} and {y.shape}")
        if sizes.ndim != 1 or np.any(sizes < 1) or sizes.sum() != len(y):
            raise ValueError(f"cluster sizes must be positive and sum to the {len(y)} rows")
        if ids.shape != sizes.shape:
            raise ValueError(f"need one id per cluster, got {ids.size} ids for {sizes.size} clusters")
        for name, value in (("x", x), ("y", y), ("cluster_sizes", sizes), ("ids", ids)):
            object.__setattr__(self, name, value)

    @property
    def n(self) -> int:
        return len(self.cluster_sizes)

    @property
    def p(self) -> int:
        return self.x.shape[1]

    @property
    def starts(self) -> np.ndarray:
        """First row of each cluster."""
        return np.cumsum(self.cluster_sizes) - self.cluster_sizes

    @property
    def response_kind(self) -> str:
        """Kind of the responses, read off y: binary01 when every y is 0 or 1,
        else binary_pm1 when every y is -1 or +1, else positive when every
        y > 0, else continuous."""
        if np.isin(self.y, (0.0, 1.0)).all():
            return "binary01"
        if np.isin(self.y, (-1.0, 1.0)).all():
            return "binary_pm1"
        return "positive" if (self.y > 0).all() else "continuous"

    @property
    def constant_m(self) -> bool:
        sizes = self.cluster_sizes
        return bool(len(sizes) > 0 and (sizes == sizes[0]).all())


def validate_dataset(d: ClusteredDataset) -> list[str]:
    """The messages for what the constructor leaves to the data: fewer than
    2 clusters, then each cluster with a non-finite value in y or x, in
    cluster order and prefixed by its id.  Empty for a usable dataset.

    Never raises, so callers can show every problem at once.
    """
    messages = [f"need at least 2 clusters, got {d.n}"] if d.n < 2 else []
    bad_rows = np.flatnonzero(~(np.isfinite(d.y) & np.isfinite(d.x).all(axis=1)))
    bad_clusters = np.unique(np.searchsorted(d.starts, bad_rows, side="right") - 1)
    return messages + [f"{d.ids[i]}: non-finite value in y or x" for i in bad_clusters]


@dataclass(frozen=True)
class ContrastFamily:
    """c x p contrast matrix with one label per row (hypothesis C_i' beta = 0)."""

    matrix: np.ndarray
    labels: tuple[str, ...]
    kind: str = "custom"

    def __post_init__(self):
        m = np.atleast_2d(np.asarray(self.matrix, dtype=float))
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "labels", tuple(self.labels))
        if self.kind not in CONTRAST_KINDS:
            raise ValueError(f"unknown contrast kind {self.kind!r}")
        if m.shape[0] != len(self.labels):
            raise ValueError("one label per contrast row required")
        if m.shape[0] < 1:
            raise ValueError("need at least one contrast")
        if not np.isfinite(m).all():
            raise ValueError("contrast weights must be finite")
        if np.any(np.all(m == 0.0, axis=1)):
            raise ValueError("all-zero contrast row")

    @property
    def c(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]


def build_contrasts(kind: str, p: int, baseline: int | None = None) -> ContrastFamily:
    """Construct a many-to-one or all-pairwise contrast family.

    `baseline` is 1-based and required exactly for kind="many_to_one".
    Row ordering is deterministic: many-to-one rows follow the non-baseline
    index ascending; all-pairwise rows enumerate index pairs (i, j), i < j,
    in lexicographic order with +1 on i and -1 on j.
    """
    if p < 2:
        raise ValueError(f"need p >= 2 parameters to compare, got {p}")
    if kind == "many_to_one":
        if baseline is None:
            raise ValueError("many_to_one requires a baseline index")
        if not 1 <= baseline <= p:
            raise ValueError(f"baseline must be in 1..{p}, got {baseline}")
        pairs = [(baseline - 1, j) for j in range(p) if j != baseline - 1]
    elif kind == "all_pairwise":
        if baseline is not None:
            raise ValueError("all_pairwise takes no baseline")
        pairs = [(i, j) for i in range(p) for j in range(i + 1, p)]
    else:
        raise ValueError(f"cannot build contrasts of kind {kind!r}")
    rows = np.zeros((len(pairs), p))
    for k, (i, j) in enumerate(pairs):
        rows[k, i], rows[k, j] = 1.0, -1.0
    return ContrastFamily(rows, tuple(f"b{i + 1}=b{j + 1}" for i, j in pairs), kind)
