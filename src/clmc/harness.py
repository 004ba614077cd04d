"""Replicated simulation experiments over the clustered-data models.

One experiment repeatedly generates a dataset from a scenario, fits the
matching composite-likelihood model and tests a contrast family with the
requested procedures.  Each replicate returns its raw outcome: a boolean
reject matrix (procedures x contrasts) and, for the gaussian model, the
MLE efficiency ratio.  `run_experiment` stacks the outcomes and counts
everything once from that array: familywise error, or global power when
some contrast of beta is nonzero, per-row reject rates, ordering violations
and the mean efficiency.  The pseudo-procedure "naive" is the equicoordinate
(mnq) rule applied with the correlation-ignoring covariance H^-1
(`models.naive_fit`) instead of the full sandwich; everything else uses the
sandwich.  Both mnq rules read only which statistics exceed the cutoff, so
they come from `mvnprob.equicoordinate_rejects`, which reads them off
P(max|Z| <= |t_i|) (the max-T identity) with no search for the cutoff: each
statistic between the univariate and Bonferroni cutoffs, largest first, on
as many QMC points as settle its side, often a 64-point prefix.  Every
experiment runs at the CLI's QmcConfig() unless its config says otherwise.

Replicate r draws its generator seed from SeedSequence(master, spawn_key=(r,)),
and outcomes are collected in replicate order, so results are identical for
any worker count and scheduling order.  A replicate whose fit fails or does
not converge, or whose statistics or V cannot be computed (ValueError), is
dropped and counted, never retried.
"""

from __future__ import annotations

import concurrent.futures
import dataclasses
import os
from dataclasses import dataclass, field
from functools import partial

import numpy as np

from .data import ContrastFamily, build_contrasts
from .inference import METHODS, evaluate_tests
from .models import FITTERS, FitError, mvn_mle_fit, naive_fit
from .mvnprob import QmcConfig, equicoordinate_rejects
from .simgen import Exchangeable, ScenarioSpec, Unstructured, UNSTRUCTURED_SIGMA_M4, generate

__all__ = [
    "ExperimentConfig",
    "ProcedureSummary",
    "SimSummary",
    "run_experiment",
    "PRESETS",
    "experiment_config",
    "preset_config",
]

DEFAULT_PROCEDURES = ("mnq", "naive", "bonferroni", "sidak", "holm", "scheffe")


@dataclass(frozen=True)
class ExperimentConfig:
    scenario: ScenarioSpec
    contrasts: ContrastFamily
    replicates: int = 2000
    alpha: float = 0.05
    procedures: tuple[str, ...] = DEFAULT_PROCEDURES
    qmc: QmcConfig = QmcConfig()
    workers: int = 1
    compute_efficiency: bool = False

    def __post_init__(self):
        if self.replicates < 1:
            raise ValueError("need at least one replicate")
        if self.workers < 1:
            raise ValueError(f"workers must be at least 1, got {self.workers}")
        if not 0.0 < self.alpha < 1.0:
            raise ValueError("alpha must be in (0, 1)")
        if self.compute_efficiency and self.scenario.model != "mvn":
            raise ValueError("efficiency ratios are defined for the gaussian model only")
        # here, not in ScenarioSpec: mixed sizes draw fine, mvn_cl_fit cannot fit them
        if self.scenario.model == "mvn" and len(set(np.atleast_1d(self.scenario.m))) > 1:
            raise ValueError(f"the gaussian fitter needs one cluster size 'm', got {self.scenario.m}")
        # checked here because _replicate drops a replicate whose tests raise ValueError
        unknown = [m for m in self.procedures if m not in METHODS and m != "naive"]
        if unknown:
            raise ValueError(f"unknown procedures {unknown}")
        if not self.procedures or len(set(self.procedures)) < len(self.procedures):
            raise ValueError(f"need at least one procedure, each named once, got {list(self.procedures)}")
        if "tukey" in self.procedures and self.contrasts.kind != "all_pairwise":
            raise ValueError("tukey applies to all-pairwise families only")
        if self.contrasts.p > self.scenario.p:
            raise ValueError(f"contrasts address {self.contrasts.p} coefficients, "
                             f"the scenario has {self.scenario.p}")


@dataclass(frozen=True)
class ProcedureSummary:
    """One procedure's global reject rate (the `metric`) with its Monte Carlo
    SE, summed reject rate of the nonzero contrasts and rate per contrast."""

    metric: str
    estimate: float
    mc_std_error: float
    ind_power_sum: float | None
    reject_rates: np.ndarray


@dataclass(frozen=True)
class SimSummary:
    """Replicate counts, ProcedureSummary by procedure, MLE efficiency, ordering violations."""

    replicates_completed: int
    failures: int
    per_procedure: dict
    efficiency: float | None = None
    efficiency_se: float | None = None
    ordering_violations: dict = field(default_factory=dict)


def _rejects(cfg: ExperimentConfig, fit, n: int) -> np.ndarray:
    """The reject matrix (procedures x contrasts, in the order of
    cfg.procedures) of one fit.  mnq and naive need only the side of the
    cutoff each statistic falls on, not the cutoff itself."""
    others = tuple(m for m in cfg.procedures if m not in ("mnq", "naive"))
    tests = evaluate_tests(fit, cfg.contrasts, n, cfg.alpha, others, cfg.qmc)
    rejects = {m: d.reject for m, d in tests.decisions.items()}
    if "mnq" in cfg.procedures:
        rejects["mnq"] = equicoordinate_rejects(tests.v_hat, tests.t_stats, cfg.alpha, cfg.qmc)
    if "naive" in cfg.procedures:
        naive = evaluate_tests(naive_fit(fit), cfg.contrasts, n, cfg.alpha, (), cfg.qmc)
        rejects["naive"] = equicoordinate_rejects(naive.v_hat, naive.t_stats, cfg.alpha, cfg.qmc)
    return np.array([rejects[m] for m in cfg.procedures], dtype=bool)


def _replicate(cfg: ExperimentConfig, rep: int) -> tuple[np.ndarray, float | None] | None:
    """Replicate `rep`: its reject matrix and MLE efficiency, or None for a
    fit that fails or does not converge, or whose statistics or V cannot be
    computed (a degenerate sandwich).
    An MLE that fails or does not converge leaves only the efficiency out.
    Generation cannot fail: the ScenarioSpec refused an undrawable scenario
    when the config was built."""
    data = generate(cfg.scenario, np.random.SeedSequence(cfg.scenario.seed, spawn_key=(rep,)))
    try:
        fit = FITTERS[cfg.scenario.model](data)
    except FitError:
        return None
    if not fit.converged:
        return None
    try:
        rejects = _rejects(cfg, fit, data.n)
    except ValueError:
        return None

    try:
        mle = mvn_mle_fit(data) if cfg.compute_efficiency else None
    except FitError:
        mle = None
    if mle is None or not mle.converged:
        return rejects, None
    return rejects, float(np.mean(np.sqrt(np.diag(mle.gamma_hat)) / np.sqrt(np.diag(fit.gamma_hat))))


def _ordering_violations(procedures: tuple[str, ...], rejects: np.ndarray) -> dict:
    """Replicates that break an ordering the procedures guarantee, from the
    (replicates, procedures, contrasts) reject array: Holm and mnq reject
    every row that Bonferroni rejects, and Holm rejects some row exactly
    when Bonferroni does."""
    r = dict(zip(procedures, rejects.swapaxes(0, 1)))
    bonf = r.get("bonferroni")
    out = dict.fromkeys(("holm_missing_bonferroni_rejection", "holm_bonferroni_global_mismatch",
                         "mnq_missing_bonferroni_rejection"), 0)
    if bonf is not None and "holm" in r:
        holm = r["holm"]
        out["holm_missing_bonferroni_rejection"] = (bonf & ~holm).any(axis=1).sum()
        out["holm_bonferroni_global_mismatch"] = (holm.any(axis=1) != bonf.any(axis=1)).sum()
    if bonf is not None and "mnq" in r:
        out["mnq_missing_bonferroni_rejection"] = (bonf & ~r["mnq"]).any(axis=1).sum()
    return {k: int(v) for k, v in out.items()}


def run_experiment(cfg: ExperimentConfig) -> SimSummary:
    """Run all replicates (optionally across processes) and summarize."""
    reps = range(cfg.replicates)
    # the pool forks all its workers at the first submit, needed or not
    workers = min(cfg.workers, cfg.replicates, os.cpu_count() or 1)
    if workers <= 1:
        outcomes = [_replicate(cfg, rep) for rep in reps]
    else:
        chunksize = max(1, cfg.replicates // (4 * workers))
        with concurrent.futures.ProcessPoolExecutor(max_workers=workers) as pool:
            outcomes = list(pool.map(partial(_replicate, cfg), reps, chunksize=chunksize))
    done = [out for out in outcomes if out is not None]
    completed = len(done)
    if completed == 0:
        raise RuntimeError("every replicate was dropped (its fit, statistics or mnq decisions failed)")

    # replicate outcomes arrive in replicate order for any worker count, so
    # every sum below is bit-identical across worker counts
    rejects = np.stack([r for r, _ in done])
    global_rates = rejects.any(axis=2).sum(axis=0) / completed
    row_rates = rejects.sum(axis=0) / completed
    truth_rows = np.abs(cfg.contrasts.matrix @ cfg.scenario.beta) > 1e-12
    metric = "global_power" if truth_rows.any() else "fwer"
    per_proc = {}
    for k, m in enumerate(cfg.procedures):
        p_hat = float(global_rates[k])
        per_proc[m] = ProcedureSummary(
            metric=metric,
            estimate=p_hat,
            mc_std_error=float(np.sqrt(p_hat * (1.0 - p_hat) / completed)),
            ind_power_sum=float(row_rates[k][truth_rows].sum()) if truth_rows.any() else None,
            reject_rates=row_rates[k],
        )

    efficiency = efficiency_se = None
    vals = np.array([e for _, e in done if e is not None])
    if len(vals):
        efficiency = float(vals.mean())
        efficiency_se = float(vals.std(ddof=1) / np.sqrt(len(vals))) if len(vals) > 1 else 0.0

    return SimSummary(
        replicates_completed=completed,
        failures=cfg.replicates - completed,
        per_procedure=per_proc,
        efficiency=efficiency,
        efficiency_se=efficiency_se,
        ordering_violations=_ordering_violations(cfg.procedures, rejects),
    )


# ---------------------------------------------------------------------------
# experiment descriptions


def _numeric(value, key: str, kind=float):
    """`value` converted by `kind` when it is a JSON number or a list of them;
    anything else, text included, is a ValueError naming `key`."""
    try:
        if np.asarray(value).dtype.kind not in "iuf":
            raise TypeError
        return kind(value)
    except (TypeError, ValueError, OverflowError):
        raise ValueError(f"{key!r} must be numeric, got {value!r}") from None


def _integer(value, key: str, sizes: bool = False):
    """`value` as an int, or a list of them as a tuple where `sizes` allows
    one; a number with a fractional part is a ValueError naming `key`."""
    num = _numeric(value, key, np.asarray)
    if num.ndim > sizes:
        raise ValueError(f"{key!r} must be numeric, got {value!r}")
    if not np.isfinite(num).all() or (num % 1 != 0).any():
        raise ValueError(f"{key!r} must be an integer")
    return tuple(int(v) for v in num.tolist()) if num.ndim else int(num)


def _shaped(kind, what: str, convert=lambda value: value):
    """A conversion by `convert` of values of type `kind`; any other value is
    a ValueError naming its key."""
    def check(value, key: str):
        if not isinstance(value, kind):
            raise ValueError(f"{key!r} must be {what}")
        return convert(value)
    return check


def _object(raw, keys: dict, name: str = "", cls=None) -> dict:
    """The JSON object `raw`, the value of key `name`, with each value
    converted by keys[key].  A key not in `keys`, or a field without a
    default in dataclass `cls` that `raw` lacks, is a ValueError naming it."""
    if not isinstance(raw, dict):
        raise ValueError(f"{name!r} must be an object" if name else "the experiment must be a JSON object")
    needed = [f.name for f in dataclasses.fields(cls) if f.default is dataclasses.MISSING] if cls else []
    for key in [*raw, *needed]:
        if key not in keys or key not in raw:
            path = f"{name}.{key}".lstrip(".")
            raise ValueError(f"{'unknown' if key in raw else 'missing'} key {path!r}")
    return {key: keys[key](value, key) for key, value in raw.items()}


# each correlation "type" of a `--config` object: its class and other keys
_CORRELATIONS = {
    "exchangeable": (Exchangeable, {"sigma2": _numeric, "rho": _numeric}),
    "unstructured": (Unstructured, {"sigma": partial(_numeric, kind=np.array)}),
}


def _correlation(raw, key: str):
    """The correlation the object `raw` describes (null is none)."""
    if raw is None:
        return None
    if not isinstance(raw, dict) or raw.get("type") not in tuple(_CORRELATIONS):
        raise ValueError(f"{key!r} must be an object with a type in {list(_CORRELATIONS)}, got {raw!r}")
    cls, keys = _CORRELATIONS[raw["type"]]
    return cls(**_object({k: v for k, v in raw.items() if k != "type"}, keys, key, cls))


# Every `clmc simulate --config` key with the conversion of its JSON value,
# the ScenarioSpec fields first; an absent key keeps the dataclass default.
_SCENARIO_KEYS = {
    "model": _shaped(str, "text"), "n": _integer, "m": partial(_integer, sizes=True),
    "p": _integer, "beta": partial(_numeric, kind=np.atleast_1d), "correlation": _correlation,
    "w": _numeric, "nu": _numeric, "seed": _integer, "x_row_corr": _numeric, "x_scale": _numeric,
}
_KEYS = {
    **_SCENARIO_KEYS,
    "contrasts": lambda value, key: _object(
        value, {"kind": _shaped(str, "text"), "baseline": _integer}, key),
    "replicates": _integer, "alpha": _numeric,
    "procedures": _shaped((list, tuple), "a list", tuple),
    "compute_efficiency": _shaped(bool, "true or false"),
}


def experiment_config(raw, replicates: int = 2000, seed: int = 1234,
                      workers: int = 1) -> ExperimentConfig:
    """The experiment `raw`, a `clmc simulate --config` object, describes
    (README "CLI examples" lists its keys); `replicates` and `seed` stand in
    for absent keys.  A malformed or unknown key is a ValueError naming it."""
    fields = {"seed": seed, "replicates": replicates, **_object(raw, _KEYS, cls=ScenarioSpec)}
    scenario = ScenarioSpec(**{key: fields.pop(key) for key in _SCENARIO_KEYS if key in fields})
    cspec = fields.pop("contrasts", {"kind": "many_to_one"})
    kind = cspec.get("kind")
    contrasts = build_contrasts(kind, scenario.p,
                                baseline=cspec.get("baseline", 1 if kind == "many_to_one" else None))
    return ExperimentConfig(scenario, contrasts, workers=workers,
                            **{"compute_efficiency": scenario.model == "mvn", **fields})


# Preset covariate design: rows of one cluster share a common factor with
# correlation 0.15.  With fully independent rows the cross-row terms of the
# score covariance vanish in expectation and ignoring the cluster correlation
# would cost nothing; this level of row correlation reproduces the documented
# behaviour of the correlation-ignoring ("naive") analysis across cluster
# sizes and correlation levels.  The association-model and correlated-gamma
# designs use one covariate vector per cluster (row correlation 1), the
# cluster-level reading of their regression structure; anything much weaker
# cannot produce the near-zero naive error rate seen for positive association.
#
# Gaussian and probit preset covariates have standard deviation 5: the
# documented powers of the tiny preset effect sizes (0.008-0.032) require a
# per-coordinate standard error near 0.007 at n=200..500, which unit-variance
# covariates cannot deliver.  The association-model presets keep unit scale,
# whose stated standard-normal covariates match their documented powers.
_SCALED = {"x_row_corr": 0.15, "x_scale": 5.0}

# Preset effects by model: the value of every coefficient under the null,
# the (index, value) of the one coefficient "a1" moves, and the values "a2"
# gives coefficients 1..5.
_EFFECTS = {
    "mvn": (0.0, (3, 0.032), (0.008, 0.01, -0.03, 0.005, -0.01)),
    "probit": (0.0, (3, 0.03), (0.008, 0.01, -0.03, 0.005, -0.01)),
    "quadexp": (0.0, (3, 0.12), (0.08, 0.12, -0.03, 0.05, -0.08)),
    "gamma": (0.75, (2, 0.68), (0.80, 0.68, 0.70, 0.79, 0.69)),
}


def _preset(model: str, truth: str, n: int, m, p: int, **design) -> dict:
    null, (k, a1), a2 = _EFFECTS[model]
    beta = [null] * p
    if truth == "a1":
        beta[k] = a1
    elif truth == "a2":
        beta[1 : 1 + len(a2)] = a2
    return {"model": model, "n": n, "m": m, "p": p, "beta": beta, **design}


# Each preset as a `clmc simulate --config` object, without its contrasts,
# procedures, replicates and seed (`preset_config` supplies them).  Names
# follow "<model>-<truth>-<design>", a leading 0 in a design number marking
# a decimal point (rho02 is rho = 0.2, w05 is w = 0.5):
#   mvn-{null,a1,a2}-rho{0,02,05}-m{4,10}-p{10,20}
#   mvn-{null,a1,a2}-unstructured-m4-p10
#   probit-{null,a1,a2}-rho{0,05}-m{4,10}-p{10,20}
#   quadexp-{null,a1,a2}-w{0,05}-p{10,20}
#   gamma-{null,a1,a2}-{independent,correlated}
_TRUTHS = ("null", "a1", "a2")
PRESETS = {
    **{f"mvn-{t}-rho{r}-m{m}-p{p}": _preset(
           "mvn", t, 200, m, p, correlation={"type": "exchangeable", "sigma2": 0.8, "rho": rho},
           **_SCALED)
       for t in _TRUTHS for r, rho in (("0", 0.0), ("02", 0.2), ("05", 0.5))
       for m in (4, 10) for p in (10, 20)},
    **{f"mvn-{t}-unstructured-m4-p10": _preset(
           "mvn", t, 200, 4, 10,
           correlation={"type": "unstructured", "sigma": UNSTRUCTURED_SIGMA_M4.tolist()}, **_SCALED)
       for t in _TRUTHS},
    **{f"probit-{t}-rho{r}-m{m}-p{p}": _preset(
           "probit", t, 500, m, p, correlation={"type": "exchangeable", "rho": rho}, **_SCALED)
       for t in _TRUTHS for r, rho in (("0", 0.0), ("05", 0.5))
       for m in (4, 10) for p in (10, 20)},
    **{f"quadexp-{t}-w{r}-p{p}": _preset("quadexp", t, 700, [4, 5, 6, 7, 8], p, w=w, x_row_corr=1.0)
       for t in _TRUTHS for r, w in (("0", 0.0), ("05", 0.5)) for p in (10, 20)},
    **{f"gamma-{t}-{c}": _preset("gamma", t, 3000, 3, 10, **design)
       for t in _TRUTHS for c, design in (
           ("independent", {"x_row_corr": 0.15}),
           ("correlated", {"correlation": {"type": "exchangeable", "rho": 0.5},
                           "x_row_corr": 1.0}))},
}


def preset_config(
    name: str,
    replicates: int = 2000,
    seed: int = 1234,
    workers: int = 1,
    contrast_kind: str = "many_to_one",
) -> ExperimentConfig:
    """The experiment PRESETS[name] describes, testing either the many-to-one
    family against coefficient 1 or the all-pairwise family (Tukey added)."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}")
    raw = PRESETS[name]
    if contrast_kind != "many_to_one":
        raw = {**raw, "contrasts": {"kind": contrast_kind},
               "procedures": [*DEFAULT_PROCEDURES, "tukey"]}
    return experiment_config(raw, replicates, seed, workers)
