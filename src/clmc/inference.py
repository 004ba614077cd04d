"""Simultaneous test statistics and multiple-comparison procedures.

Given a fit with estimated sandwich covariance Gamma and a contrast family C,
the statistic for hypothesis i is

    T_i = C_i' theta_hat / sqrt(C_i' Gamma C_i / n),

jointly asymptotically N(0, V) with V the correlation matrix obtained by
standardizing D = C Gamma C'.  Each procedure turns the T vector into
per-hypothesis reject decisions: one-step normal-margin cutoffs (Bonferroni,
Dunn-Sidak), the Holm step-down rule, the projection (Scheffe) cutoff, the
studentized-range (Tukey) cutoff for all-pairwise families, and the
equicoordinate quantile of N(0, V) ("mnq"), which accounts for the estimated
correlation between the statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
from scipy.special import chdtri, ndtr, ndtri

from .data import ContrastFamily
from .models.base import FitResult
from .mvnprob import (
    QmcConfig,
    _abs_statistics,
    _PreparedV,
    equicoordinate_p_values,
    equicoordinate_quantile,
    equicoordinate_rejects,
    mvn_rectangle_prob,  # not called here; perfbench/workloads.py wraps it by this name
    studentized_range_quantile,
)

__all__ = [
    "METHODS",
    "MethodDecision",
    "TestReport",
    "test_statistics",
    "correlation_matrix_V",
    "adjust",
    "evaluate_tests",
]

METHODS = ("bonferroni", "sidak", "holm", "scheffe", "tukey", "mnq")
DEFAULT_METHODS = ("mnq", "bonferroni", "sidak", "holm", "scheffe")


def _beta_block(fit_or_matrix, cf: ContrastFamily, what: str) -> np.ndarray:
    """Leading block of theta/Gamma addressed by a width-p contrast family."""
    m = np.asarray(fit_or_matrix)
    if len(m) < cf.p:
        raise ValueError(f"{what}: contrasts address {cf.p} parameters, fit has {len(m)}")
    return m[:cf.p] if m.ndim == 1 else m[:cf.p, :cf.p]


def test_statistics(fit: FitResult, cf: ContrastFamily, n: int) -> np.ndarray:
    """Standardized contrast statistics T_i; uses the coefficient block of
    theta/Gamma when the model carries trailing extra parameters."""
    theta = _beta_block(fit.theta_hat, cf, "theta")
    gamma = _beta_block(fit.gamma_hat, cf, "gamma")
    c = cf.matrix
    num = c @ theta
    var = np.einsum("ij,jk,ik->i", c, gamma, c) / n
    if not np.isfinite(var).all():
        raise ValueError("contrast variance C Gamma C' is not finite")
    if np.any(var <= 0):
        raise ValueError("nonpositive contrast variance; sandwich estimate is degenerate")
    return num / np.sqrt(var)


def correlation_matrix_V(gamma_hat: np.ndarray, cf: ContrastFamily) -> np.ndarray:
    """Correlation matrix of the T vector: standardize D = C Gamma C'."""
    gamma = _beta_block(gamma_hat, cf, "gamma")
    with np.errstate(over="ignore", invalid="ignore"):
        d = cf.matrix @ gamma @ cf.matrix.T
    if not np.isfinite(d).all():
        raise ValueError("C Gamma C' is not finite; cannot standardize")
    diag = np.diag(d)
    if np.any(diag <= 0):
        raise ValueError("zero contrast variance in D; cannot standardize")
    s = 1.0 / np.sqrt(diag)
    v = d * np.outer(s, s)
    v = 0.5 * (v + v.T)
    np.fill_diagonal(v, 1.0)
    return v


@dataclass(frozen=True)
class MethodDecision:
    """Reject per hypothesis, the cutoff on |T| (None for Holm) and adjusted p-values."""

    reject: np.ndarray
    threshold: float | None = None
    adjusted_p: np.ndarray | None = None

    global_reject = property(lambda self: bool(np.any(self.reject)), doc="Some hypothesis rejected.")


def _two_sided_p(t: np.ndarray) -> np.ndarray:
    return 2.0 * ndtr(-np.abs(t))


def _holm(t: np.ndarray, alpha: float) -> MethodDecision:
    """Holm's step-down rule: in ascending order of p, reject while p <= alpha/(c-k);
    the adjusted p is the running maximum of min(1, (c-k) p)."""
    c = len(t)
    p = _two_sided_p(t)
    order = np.argsort(p, kind="stable")
    remaining = c - np.arange(c)
    reject = np.empty(c, dtype=bool)
    reject[order] = np.logical_and.accumulate(p[order] <= alpha / remaining)
    adj = np.empty(c)
    adj[order] = np.maximum.accumulate(np.minimum(1.0, remaining * p[order]))
    return MethodDecision(reject, adjusted_p=adj)


def adjust(
    method: str,
    t: np.ndarray,
    v_hat: np.ndarray,
    alpha: float,
    cf: ContrastFamily,
    cfg: QmcConfig = QmcConfig(),
) -> MethodDecision:
    """Apply one multiple-comparison procedure to the statistics `t`."""
    t = np.asarray(t, dtype=float)
    c = len(t)
    if not 0.0 < alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    if cf.c != c:
        raise ValueError("statistics and contrast family sizes differ")
    abs_t = _abs_statistics(t, c)

    if method == "bonferroni":
        cut = float(-ndtri(alpha / (2.0 * c)))
        return MethodDecision(abs_t > cut, cut, adjusted_p=np.minimum(1.0, c * _two_sided_p(t)))
    if method == "sidak":
        # 1 - (1 - x)^k as -expm1(k log1p(-x)), which keeps a small x that 1 - x rounds away
        cut = float(-ndtri(-np.expm1(np.log1p(-alpha) / c) / 2.0))
        with np.errstate(divide="ignore"):  # a statistic of 0 has p = 1: log1p(-1) = -inf, adjusted p 1
            adj = -np.expm1(c * np.log1p(-_two_sided_p(t)))
        return MethodDecision(abs_t > cut, cut, adjusted_p=adj)
    if method == "holm":
        return _holm(t, alpha)
    if method == "scheffe":
        cut = float(np.sqrt(chdtri(cf._rank, alpha)))
        return MethodDecision(abs_t > cut, cut)
    if method == "tukey":
        if cf.kind != "all_pairwise":
            raise ValueError("tukey applies to all-pairwise families only")
        cut = studentized_range_quantile(cf.p, alpha) / np.sqrt(2.0)
        return MethodDecision(abs_t > cut, cut)
    if method == "mnq":
        # the simulations' rule decides; the searched cutoff is clipped between the accepted
        # and the rejected |t_i|, and each p-value onto its decision's side of alpha.  The
        # three calls share one prepared V: validated once, factored and bounded at most once
        v = _PreparedV(v_hat)
        reject = equicoordinate_rejects(v, abs_t, alpha, cfg)
        cut = np.clip(equicoordinate_quantile(v, alpha, cfg), abs_t[~reject].max(initial=-np.inf),
                      np.nextafter(abs_t[reject].min(initial=np.inf), 0.0))
        adj = equicoordinate_p_values(v, abs_t, alpha, cfg)
        adj = np.where(reject, np.minimum(adj, alpha), np.maximum(adj, np.nextafter(alpha, 1.0)))
        return MethodDecision(reject, float(cut), adjusted_p=adj)
    raise ValueError(f"unknown method {method!r}")


@dataclass(frozen=True)
class TestReport:
    """Joint test of one contrast family under one fitted model: T, V,
    the contrast labels and a MethodDecision per procedure."""

    t_stats: np.ndarray
    v_hat: np.ndarray
    labels: tuple[str, ...]
    decisions: dict = field(default_factory=dict)


def evaluate_tests(
    fit: FitResult,
    cf: ContrastFamily,
    n: int,
    alpha: float = 0.05,
    methods: tuple[str, ...] = DEFAULT_METHODS,
    cfg: QmcConfig = QmcConfig(),
) -> TestReport:
    """Compute T, estimate V, and run each requested procedure."""
    t = test_statistics(fit, cf, n)
    v = correlation_matrix_V(fit.gamma_hat, cf)
    decisions = {m: adjust(m, t, v, alpha, cf, cfg) for m in methods}
    return TestReport(t_stats=t, v_hat=v, labels=cf.labels, decisions=decisions)
