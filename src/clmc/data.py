"""Clustered datasets and contrast families.

A clustered dataset holds n independent clusters; cluster i contributes a
response vector y_i of length m_i and an m_i x p covariate matrix X_i.
Observations within a cluster may be dependent, observations from different
clusters are independent.  The dataset stores every row once, as columns:
the rows of all clusters stacked in cluster order (x is N x p and y has N
entries, N = sum m_i), the cluster sizes m_i >= 1 and one id per cluster.
Ids are optional: a dataset built without them, as `generate` builds one,
labels its clusters "0".."n-1", and those labels are made on first read
(`d.ids`, a validation message, a written CSV), so a simulated replicate
makes no per-cluster Python object.  Per-cluster sums are `reduceat` sums
over `starts`, the first row of each cluster.  The response kind is read
off y, so it always agrees with it.  `validate_dataset` returns one
message per problem the constructor leaves to the data (too few clusters,
non-finite values), as plain strings.
A contrast family is a c x p matrix C whose rows define the linear
hypotheses C_i' beta = 0 tested jointly, each row stored at a power-of-two
scale that leaves its hypothesis as it is.
"""

from __future__ import annotations

import functools
import numbers
from dataclasses import dataclass

import numpy as np

CONTRAST_KINDS = ("many_to_one", "all_pairwise", "custom")


class _Ids:
    """The `ids` field of `ClusteredDataset`: the ids given, kept verbatim as
    Python strings, or "0".."n-1" made on first read when none were."""

    def __get__(self, d, owner=None):
        if d is None:
            return None  # the field's default
        if d.__dict__["_ids"] is None:
            d.__dict__["_ids"] = np.arange(d.n).astype(str).astype(object)
        return d.__dict__["_ids"]

    def __set__(self, d, ids):
        d.__dict__["_ids"] = None if ids is None else np.asarray(ids, dtype=object)


@dataclass(frozen=True)
class ClusteredDataset:
    """Rows of n clusters stacked in cluster order: covariates x (N, p) and
    responses y (N,), with the size and the opaque id of each cluster
    ("0".."n-1" when `ids` is omitted).

    Arrays that do not fit together (x not N x p, a cluster without rows,
    sizes that do not sum to N, not one id per cluster) raise ValueError;
    `validate_dataset` returns a message for everything else.
    """

    x: np.ndarray
    y: np.ndarray
    cluster_sizes: np.ndarray
    ids: np.ndarray | None = _Ids()

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float)
        y = np.asarray(self.y, dtype=float)
        sizes = np.asarray(self.cluster_sizes, dtype=int)
        ids = self.__dict__["_ids"]  # as given, or None
        if x.ndim != 2 or y.ndim != 1 or x.shape[0] != y.shape[0]:
            raise ValueError(f"need covariates (N, p) and responses (N,), got {x.shape} and {y.shape}")
        if sizes.ndim != 1 or np.any(sizes < 1) or sizes.sum() != len(y):
            raise ValueError(f"cluster sizes must be positive and sum to the {len(y)} rows")
        if ids is not None and ids.shape != sizes.shape:
            raise ValueError(f"need one id per cluster, got {ids.size} ids for {sizes.size} clusters")
        for name, value in (("x", x), ("y", y), ("cluster_sizes", sizes)):
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
    """c x p contrast matrix with one label per row (hypothesis C_i' beta = 0).

    Each row is stored scaled by the power of two that brings its largest
    |weight| into [1, 2); the hypotheses, the statistics and V are those of
    the rows as given.  The rows of `build_contrasts` are stored as built.
    Scheffe's rank is that of the scaled rows, so rows that differ in scale
    by more than about 1/eps still count as independent."""

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
        # T_i and V do not depend on a row's scale: bring each row's largest
        # |weight| into [1, 2) by a power of two, which rounds no weight that
        # does not underflow, so C Gamma C' neither overflows nor underflows
        # with the weights
        _, exponent = np.frexp(np.abs(m).max(axis=1))
        object.__setattr__(self, "matrix", np.ldexp(m, 1 - exponent[:, None]))

    @property
    def c(self) -> int:
        return self.matrix.shape[0]

    @property
    def p(self) -> int:
        return self.matrix.shape[1]

    @functools.cached_property
    def _rank(self) -> int:
        # Scheffe's degrees of freedom: one SVD per family, not per test
        return int(np.linalg.matrix_rank(self.matrix))


def build_contrasts(kind: str, p: int, baseline: int | None = None) -> ContrastFamily:
    """Construct a many-to-one or all-pairwise contrast family.

    `baseline` is 1-based and required exactly for kind="many_to_one".
    Row ordering is deterministic: many-to-one rows follow the non-baseline
    index ascending; all-pairwise rows enumerate index pairs (i, j), i < j,
    in lexicographic order with +1 on i and -1 on j.
    """
    if not isinstance(p, numbers.Integral):
        raise ValueError(f"p must be an integer, got {p}")
    if p < 2:
        raise ValueError(f"need p >= 2 parameters to compare, got {p}")
    if kind == "many_to_one":
        if baseline is None:
            raise ValueError("many_to_one requires a baseline index")
        if not isinstance(baseline, numbers.Integral):
            raise ValueError(f"baseline must be an integer, got {baseline}")
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
