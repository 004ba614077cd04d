"""Exact coverage oracles for the equicoordinate (mnq) cutoff.

For iid unit-variance coefficients the two contrast families of the
benchmark have closed-form joint laws:

* all-pairwise over p coefficients: max_ij |b_i - b_j| / sqrt(2) is the range
  of p iid N(0, 1) divided by sqrt(2) (Tukey's range law);
* many-to-one with one baseline: the c statistics are equicorrelated with
  rho = 0.5, and P(max |T_j| <= q) is the 1-D integral of Dunnett (1955,
  JASA 50:1096).

Both are evaluated here with a trapezoid rule on a fixed grid, independent of
the package's own quadrature.  The integrands are smooth and decay like the
normal density, so the rule is accurate far below the QMC errors measured.
"""

from __future__ import annotations

import dataclasses

import clmc
import numpy as np
from scipy.special import ndtr

_Z = np.linspace(-12.0, 12.0, 4801)
_STEP = float(_Z[1] - _Z[0])
_PHI = np.exp(-0.5 * _Z * _Z) / np.sqrt(2.0 * np.pi)

# seed offsets of the QMC configuration at which the cutoff is evaluated
COVER_OFFSETS = tuple(range(6))


def range_cdf(w: float, k: int) -> float:
    """P(range of k iid standard normals <= w)."""
    if w <= 0.0:
        return 0.0
    return float(k * np.sum(_PHI * (ndtr(_Z) - ndtr(_Z - w)) ** (k - 1)) * _STEP)


def equicorrelated_cdf(q: float, c: int, rho: float) -> float:
    """P(max_j |T_j| <= q) for c standard normals with common correlation rho >= 0."""
    s, r = np.sqrt(rho), np.sqrt(1.0 - rho)
    inner = ndtr((q + s * _Z) / r) - ndtr((-q + s * _Z) / r)
    return float(np.sum(_PHI * inner**c) * _STEP)


def exact_coverage(kind: str, p: int, q: float) -> float:
    """Exact P(max |T| <= q) for the family `kind` over p iid coefficients."""
    if kind == "all_pairwise":
        return range_cdf(q * np.sqrt(2.0), p)
    if kind == "many_to_one":
        return equicorrelated_cdf(q, p - 1, 0.5)
    raise ValueError(f"no exact oracle for contrast kind {kind!r}")


def cover_error(kind: str, p: int, qmc, alpha: float) -> dict:
    """RMS over COVER_OFFSETS of (exact coverage of the mnq cutoff) - (1 - alpha).

    V is the exact correlation C C' / 2 of the family under iid unit-variance
    coefficients; the cutoff is the package's equicoordinate quantile under
    `qmc` with its seed shifted by each offset.
    """
    cf = clmc.build_contrasts(kind, p, baseline=1 if kind == "many_to_one" else None)
    v = cf.matrix @ cf.matrix.T / 2.0
    errors, cutoffs = [], []
    for k in COVER_OFFSETS:
        q = clmc.equicoordinate_quantile(v, alpha, dataclasses.replace(qmc, seed=qmc.seed + k))
        cutoffs.append(q)
        errors.append(exact_coverage(kind, p, q) - (1.0 - alpha))
    err = np.asarray(errors)
    return {
        "rms": float(np.sqrt(np.mean(err * err))),
        "max_abs": float(np.max(np.abs(err))),
        "errors": errors,
        "cutoffs": cutoffs,
        "c": cf.c,
        "offsets": list(COVER_OFFSETS),
    }
