"""The benchmark's four workloads: set-up, the timed loop, the traced run and
the output checks.

Simulation workloads call `run_experiment` on a preset with `workers=1`,
one replicate after another (a closed loop).  The traced run replays the
same replicates through the public functions, in the order of the harness,
with a span around each stage, and must reproduce the harness counts exactly.
The CLI workload writes a probit CSV from the seed and calls
`clmc.cli.main(argv)` in-process; its traced run wraps the functions the
CLI calls.
"""

from __future__ import annotations

import contextlib
import dataclasses
import io
import json
import resource
import sys
import time
import traceback
from collections import Counter
from pathlib import Path

import clmc
import clmc.cli
import clmc.inference
import numpy as np
from scipy.special import ndtri

import oracle
from speed import SpeedScale
from spans import Recorder, fit_failures, layer_shares, patched, per_layer


@dataclasses.dataclass
class Result:
    metrics: dict
    attempted: int
    failed: int
    problems: list
    detail: dict


def derive_seed(seed: int, *tags: int) -> int:
    """Independent 32-bit seed for one use (tags) of the workload seed."""
    return int(np.random.SeedSequence([seed, *tags]).generate_state(1)[0])


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


# ---------------------------------------------------------------------------
# simulation workloads


def check_summary(s, replicates: int) -> list[str]:
    problems = []
    if s.replicates_completed + s.failures != replicates:
        problems.append(
            f"completed {s.replicates_completed} + failed {s.failures} != attempted {replicates}"
        )
    bad = {k: v for k, v in s.ordering_violations.items() if v}
    if bad:
        problems.append(f"ordering violations {bad}")
    return problems


def summary_key(s) -> tuple:
    """The integer outcome of a SimSummary, to compare repeated calls."""
    return (s.replicates_completed, s.failures, tuple(s.ordering_violations.values()),
            tuple((m, ps.estimate, tuple(ps.reject_rates)) for m, ps in s.per_procedure.items()),
            s.efficiency)


def _replay_one(cfg, rep: int, rec: Recorder) -> dict | None:
    """One replicate in the order of the harness's replicate loop; returns
    the reject vectors and efficiency, or None for a dropped replicate."""
    cf, alpha, qmc = cfg.contrasts, cfg.alpha, cfg.qmc
    with rec.span("simgen.generate") as sp:
        data = clmc.generate(cfg.scenario, np.random.SeedSequence(cfg.scenario.seed, spawn_key=(rep,)))
        sp["rows"] = int(data.cluster_sizes.sum())
    fitter = getattr(clmc, f"{cfg.scenario.model}_cl_fit")
    try:
        with rec.span("models.fit") as sp:
            fit = fitter(data)
            sp.update(iterations=fit.iterations, converged=fit.converged)
    except clmc.FitError:
        return None
    if not fit.converged:
        return None

    full = tuple(m for m in cfg.procedures if m != "naive")
    rejects = {}
    with rec.span("inference.stats"):
        t = clmc.test_statistics(fit, cf, data.n)
        v = clmc.correlation_matrix_V(fit.gamma_hat, cf)
    if "mnq" in full:
        with rec.span("mvnprob.quantile"):
            cut = clmc.equicoordinate_quantile(v, alpha, qmc)
        rejects["mnq"] = np.abs(t) > cut
    if "naive" in cfg.procedures:
        with rec.span("inference.stats"):
            gamma = clmc.sandwich(fit.h_hat, fit.j_hat, naive=True)
            t_naive = clmc.test_statistics(dataclasses.replace(fit, gamma_hat=gamma), cf, data.n)
            v_naive = clmc.correlation_matrix_V(gamma, cf)
        with rec.span("mvnprob.quantile"):
            cut = clmc.equicoordinate_quantile(v_naive, alpha, qmc)
        rejects["naive"] = np.abs(t_naive) > cut
    with rec.span("inference.procs"):
        for m in full:
            if m != "mnq":
                rejects[m] = clmc.adjust(m, t, v, alpha, cf, qmc).reject

    efficiency = None
    if cfg.compute_efficiency:
        with rec.span("models.mle_fit"):
            mle = clmc.mvn_mle_fit(data)
        if mle.converged:
            efficiency = float(
                np.mean(np.sqrt(np.diag(mle.gamma_hat)) / np.sqrt(np.diag(fit.gamma_hat)))
            )
    return {"rejects": rejects, "efficiency": efficiency}


def replay(cfg, rec: Recorder) -> dict:
    """Integer counts of every replicate of `cfg`, traced."""
    agg = {"completed": 0, "failed": 0, "globals": Counter(),
           "rows": {m: np.zeros(cfg.contrasts.c, dtype=int) for m in cfg.procedures},
           "violations": np.zeros(3, dtype=int), "efficiencies": []}
    for rep in range(cfg.replicates):
        with rec.span("harness.replicate", trace=rep):
            out = _replay_one(cfg, rep, rec)
        if out is None:
            agg["failed"] += 1
            continue
        agg["completed"] += 1
        r = out["rejects"]
        for m, rej in r.items():
            agg["globals"][m] += int(rej.any())
            agg["rows"][m] += rej.astype(int)
        if "holm" in r and "bonferroni" in r:
            agg["violations"][0] += bool(np.any(r["bonferroni"] & ~r["holm"]))
            agg["violations"][1] += r["holm"].any() != r["bonferroni"].any()
        if "mnq" in r and "bonferroni" in r:
            agg["violations"][2] += bool(np.any(r["bonferroni"] & ~r["mnq"]))
        if out["efficiency"] is not None:
            agg["efficiencies"].append(out["efficiency"])
    return agg


def compare_counts(s, agg: dict, cfg) -> list[str]:
    """Differences between a SimSummary and the traced replay's counts."""
    problems = []
    done = s.replicates_completed
    if (done, s.failures) != (agg["completed"], agg["failed"]):
        problems.append(f"completed/failed {done}/{s.failures} vs traced "
                        f"{agg['completed']}/{agg['failed']}")
    for m in cfg.procedures:
        ps = s.per_procedure[m]
        if round(ps.estimate * done) != agg["globals"][m]:
            problems.append(f"{m}: global rejections differ from the traced replay")
        if not np.array_equal(np.rint(ps.reject_rates * done).astype(int), agg["rows"][m]):
            problems.append(f"{m}: per-row rejections differ from the traced replay")
    if list(s.ordering_violations.values()) != agg["violations"].tolist():
        problems.append("ordering violation counts differ from the traced replay")
    traced_eff = float(np.array(agg["efficiencies"]).mean()) if agg["efficiencies"] else None
    if s.efficiency != traced_eff:
        problems.append(f"efficiency {s.efficiency!r} vs traced {traced_eff!r}")
    return problems


@dataclasses.dataclass(frozen=True)
class SimWorkload:
    preset: str
    contrast_kind: str
    trace_reps: int         # replicates of the traced and untraced comparison run
    dominant: str           # layer expected to take most of a traced replicate
    calls: int              # run_experiment calls in the timed pool
    reps_per_call: int      # replicates of each call
    # seed of the timed replicates when they must not depend on --seed (see README)
    pool_seed: int | None = None

    def config(self, seed: int, replicates: int):
        return clmc.preset_config(self.preset, replicates=replicates, seed=seed,
                                  contrast_kind=self.contrast_kind)

    def setup(self, seed: int, tiny: bool, work: Path) -> dict:
        # one completed replicate imports everything lazily loaded and fills
        # the Sobol cache; run_experiment raises when its only replicate is dropped
        base = seed if self.pool_seed is None else self.pool_seed
        for k in range(3):
            try:
                clmc.run_experiment(self.config(derive_seed(base, 0, k), 1))
                break
            except RuntimeError as exc:
                print(f"warm-up replicate dropped: {exc}", file=sys.stderr)
        else:
            raise RuntimeError("no warm-up replicate completed")
        return {"seed": seed, "tiny": tiny}

    def _inputs(self, cfg) -> dict:
        sc = cfg.scenario
        return {"preset": self.preset, "contrast_kind": self.contrast_kind,
                "c": cfg.contrasts.c, "p": sc.p, "clusters": sc.n, "m": sc.m,
                "rows_per_replicate": sc.n * sc.m,
                "procedures": list(cfg.procedures), "efficiency_mle": cfg.compute_efficiency}

    def pool(self, state: dict) -> list:
        """The timed run_experiment calls, made from the seed (or pool_seed)."""
        base = state["seed"] if self.pool_seed is None else self.pool_seed
        calls = 1 if state["tiny"] else self.calls
        return [self.config(derive_seed(base, 1, i), self.reps_per_call) for i in range(calls)]

    def timed(self, state: dict, seconds: float) -> Result:
        # The pool of calls is run pass after pass until the deadline, and
        # every pass must give the same summaries.  op_ms is the sum over the
        # pool of each call's mean scaled time, per replicate: the
        # milliseconds per replicate of an experiment made of the pool's
        # replicates.  A fixed pool keeps a costly call from weighing more in
        # a run where it was timed more often.
        pool = self.pool(state)
        times = [[] for _ in pool]
        walls = [[] for _ in pool]
        first, problems, failed, dropped, calls = {}, [], 0, 0, 0
        speed = SpeedScale()
        deadline = time.perf_counter() + seconds
        passes = 0
        while passes == 0 or time.perf_counter() < deadline:
            for i, cfg in enumerate(pool):
                if passes and time.perf_counter() >= deadline:
                    break
                calls += 1
                t0 = time.perf_counter()
                try:
                    s = clmc.run_experiment(cfg)
                except Exception as exc:
                    # a call that raises counts as failed and is not retried
                    print(f"run_experiment call {i} failed: {exc!r}", file=sys.stderr)
                    failed += 1
                    speed.scale(0.0)
                    continue
                wall = (time.perf_counter() - t0) * 1e3
                walls[i].append(wall)
                times[i].append(speed.scale(wall))
                # a dropped replicate is the harness's own outcome, reported
                # in its summary, not a failed call
                dropped += s.failures
                problems += check_summary(s, cfg.replicates)
                if first.setdefault(i, summary_key(s)) != summary_key(s):
                    problems.append(f"run_experiment call {i} gave another summary on a later pass")
            passes += 1
        rss = peak_rss_mb()
        cfg = pool[0]
        cover = oracle.cover_error(self.contrast_kind, cfg.scenario.p, cfg.qmc, cfg.alpha)
        if not all(times):
            problems.append("a call of the pool never completed")
        reps = len(pool) * self.reps_per_call
        means = [float(np.mean(t)) for t in times if t]
        wall_means = [float(np.mean(t)) for t in walls if t]
        return Result(
            metrics={"op_ms": sum(means) / reps if means else 0.0,
                     "peak_rss_mb": rss, "cover_err_rms": cover["rms"]},
            attempted=calls, failed=failed, problems=problems,
            detail={"inputs": dict(self._inputs(cfg), calls=len(pool),
                                   replicates_per_call=self.reps_per_call,
                                   pool_seed=self.pool_seed),
                    "passes": passes, "calls_timed": calls - failed,
                    "replicates_attempted": (calls - failed) * self.reps_per_call,
                    "replicates_dropped": dropped,
                    "op_ms_wall": sum(wall_means) / reps if wall_means else 0.0,
                    **speed.detail(),
                    "call_ms_each": times, "call_wall_ms_each": walls, "cover_err": cover},
        )

    def traced(self, state: dict) -> tuple[Result, Recorder]:
        # two replicates at tiny size: run_experiment raises if all are dropped
        n = 2 if state["tiny"] else self.trace_reps
        cfg = self.config(derive_seed(state["seed"], 2), n)
        s = clmc.run_experiment(cfg)
        # timed again now that the first pass has filled the caches the replay reuses
        t0 = time.perf_counter()
        clmc.run_experiment(cfg)
        untraced = time.perf_counter() - t0
        rec = Recorder()
        t0 = time.perf_counter()
        agg = replay(cfg, rec)
        traced = time.perf_counter() - t0
        problems = check_summary(s, n) + compare_counts(s, agg, cfg)
        return Result(
            metrics=per_layer(rec, (traced / untraced - 1.0) * 100.0),
            # the operations are the two run_experiment calls; one that raises
            # ends the run, and dropped replicates are models.fit_failed
            attempted=2, failed=0, problems=problems,
            detail={"inputs": dict(self._inputs(cfg), replicates=n),
                    "replicates_dropped": s.failures,
                    "untraced_s": untraced, "traced_s": traced,
                    "layer_shares": layer_shares(rec, traced), "expected_dominant": self.dominant,
                    "failures_by_class": fit_failures(rec)},
        ), rec


# ---------------------------------------------------------------------------
# CLI workload

ALPHA = 0.05  # the CLI's default level


def write_probit_csv(path: Path, n_clusters: int, seed: int) -> int:
    """Null probit design of the probit-null-rho05-m4-p10 preset: m=4, p=10,
    latent exchangeable correlation 0.5, beta=0, covariates of scale 5 with
    row correlation 0.15.  Generated here, not by the package, so the input
    does not change when the package's generators do.  Returns the row count."""
    m, p, rho, x_corr, x_scale = 4, 10, 0.5, 0.15, 5.0
    rng = np.random.default_rng(seed)
    x = x_scale * (np.sqrt(x_corr) * rng.standard_normal((n_clusters, 1, p))
                   + np.sqrt(1.0 - x_corr) * rng.standard_normal((n_clusters, m, p)))
    latent = (np.sqrt(rho) * rng.standard_normal((n_clusters, 1))
              + np.sqrt(1.0 - rho) * rng.standard_normal((n_clusters, m)))
    y = (latent > 0.0).astype(int).ravel().tolist()
    ids = np.repeat(np.arange(n_clusters), m).tolist()
    with open(path, "w") as fh:
        fh.write("cluster_id,y," + ",".join(f"x{j + 1}" for j in range(p)) + "\n")
        for cid, yi, row in zip(ids, y, x.reshape(-1, p).tolist()):
            fh.write(f"c{cid},{yi}," + ",".join(map(repr, row)) + "\n")
    return n_clusters * m


def fit_argv(path) -> list[str]:
    return ["fit", "--model", "probit", "--data", str(path), "--format", "json"]


def test_argv(path) -> list[str]:
    return ["test", "--model", "probit", "--data", str(path), "--contrasts", "many-to-one:1",
            "--methods", "mnq,bonferroni,holm", "--format", "json"]


def run_cli(argv) -> tuple[int | None, str, float]:
    """(exit code or None if it raised, stdout, wall seconds) of one call."""
    out, err = io.StringIO(), io.StringIO()
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = clmc.cli.main(argv)
    except (Exception, SystemExit):
        traceback.print_exc()
        rc = None
    wall = time.perf_counter() - t0
    if rc != 0:
        print(f"clmc {argv[0]} exited with {rc}: {err.getvalue().strip()}", file=sys.stderr)
    return rc, out.getvalue(), wall


def check_fit(text: str) -> list[str]:
    """Every coefficient lies within 5 standard errors of the true beta = 0."""
    try:
        rows = json.loads(text)
        far = [r["coefficient"] for r in rows if abs(float(r["estimate"])) > 5.0 * float(r["se"])]
    except (ValueError, KeyError, TypeError) as exc:
        return [f"fit output does not parse: {exc}"]
    return [f"coefficients more than 5 SE from 0: {far}"] if far else []


def check_test(text: str) -> list[str]:
    """The mnq cutoff lies between the unadjusted two-sided normal cutoff and
    the Bonferroni cutoff (6 printed digits, hence the slack)."""
    try:
        cut = {r["method"]: r["threshold"] for r in json.loads(text)["methods"]}
        mnq, bonf = float(cut["mnq"]), float(cut["bonferroni"])
    except (ValueError, KeyError, TypeError) as exc:
        return [f"test output does not parse: {exc}"]
    lo = float(ndtri(1.0 - ALPHA / 2.0))
    if not lo - 1e-5 <= mnq <= bonf + 1e-5:
        return [f"mnq cutoff {mnq} outside [{lo}, {bonf}]"]
    return []


def probit_convergence_probe(seed: int, fits: int = 40) -> dict:
    """Fits of probit-null-rho05-m4-p10 replicates made from the seed that
    report converged=False.  fisher_scoring stops on a parameter step below
    param_tol and then tests an absolute score tolerance, which fails on
    some datasets whose parameters have converged; a CSV on which this
    happens makes `clmc fit` exit 1.  The timed CSV is one on which it does
    not, so this probe is where the defect shows."""
    sc = clmc.preset_config("probit-null-rho05-m4-p10", replicates=1, seed=seed).scenario
    bad = [r for r in range(fits)
           if not clmc.probit_cl_fit(clmc.generate(sc, np.random.SeedSequence(seed, spawn_key=(r,)))).converged]
    if bad:
        print(f"known defect: {len(bad)} of {fits} probit fits report converged=False", file=sys.stderr)
    return {"fits": fits, "clusters": sc.n, "nonconverged": len(bad)}


@dataclasses.dataclass(frozen=True)
class CliWorkload:
    clusters: int       # clusters in the timed CSV
    csv_seed: int       # seed of the timed CSV, the same in every run (see README)
    trace_pairs: int    # fit+test pairs in each of the traced and untraced runs
    dominant: str = "cli.read"

    def setup(self, seed: int, tiny: bool, work: Path) -> dict:
        work.mkdir(parents=True, exist_ok=True)
        n = 300 if tiny else self.clusters
        path = work / "probit.csv"
        rows = write_probit_csv(path, n, derive_seed(self.csv_seed, 3))
        warm = work / "warm.csv"
        write_probit_csv(warm, 200, derive_seed(self.csv_seed, 4))
        for argv in (fit_argv(warm), test_argv(warm)):
            # a non-zero exit (a fit flagged non-converged) still warms every
            # stage; only a call that raised leaves the warm-up incomplete
            if run_cli(argv)[0] is None:
                raise RuntimeError(f"warm-up call clmc {argv[0]} raised")
        return {"path": path, "tiny": tiny, "seed": seed,
                "inputs": {"clusters": n, "m": 4, "p": 10, "c": 9, "rows": rows,
                           "csv_seed": self.csv_seed, "csv_bytes": path.stat().st_size}}

    def _pair(self, state: dict, outputs: dict, problems: list,
              speed: SpeedScale | None = None) -> tuple[list, list, int]:
        """One fit call and one test call; returns their walls, the walls
        scaled by `speed` (if given) and the failures."""
        walls, scaled, failed = [], [], 0
        for argv, check in ((fit_argv(state["path"]), check_fit),
                            (test_argv(state["path"]), check_test)):
            rc, text, wall = run_cli(argv)
            walls.append(wall)
            if speed is not None:
                scaled.append(speed.scale(wall))
            if outputs.setdefault(argv[0], text) != text:
                problems.append(f"clmc {argv[0]} output changed between calls")
            if rc != 0:
                failed += 1
            else:
                problems += check(text)
        return walls, scaled, failed

    def timed(self, state: dict, seconds: float) -> Result:
        # fit+test pairs until the deadline; op_ms is their mean scaled time
        outputs, problems, pairs, scaled, failed = {}, [], [], [], 0
        speed = SpeedScale()
        deadline = time.perf_counter() + seconds
        while not pairs or time.perf_counter() < deadline:
            walls, sc, f = self._pair(state, outputs, problems, speed)
            pairs.append(walls)
            scaled.append(sc)
            failed += f
        rss = peak_rss_mb()
        cover = oracle.cover_error("many_to_one", 10, clmc.QmcConfig(), ALPHA)
        fit_s = [w[0] for w in pairs]
        test_s = [w[1] for w in pairs]
        return Result(
            metrics={"op_ms": float(np.mean([a + b for a, b in scaled])) * 1e3,
                     "peak_rss_mb": rss, "cover_err_rms": cover["rms"]},
            attempted=2 * len(pairs), failed=failed, problems=problems,
            detail={"inputs": dict(state["inputs"], pairs=len(pairs)),
                    "op_ms_wall": float(np.mean(fit_s) + np.mean(test_s)) * 1e3,
                    "cli_fit_s": float(np.median(fit_s)), "cli_test_s": float(np.median(test_s)),
                    **speed.detail(),
                    "fit_s_each": fit_s, "test_s_each": test_s, "scaled_s_each": scaled,
                    "cover_err": cover,
                    "probit_convergence_probe": probit_convergence_probe(state["seed"])},
        )

    def traced(self, state: dict) -> tuple[Result, Recorder]:
        n = 1 if state["tiny"] else self.trace_pairs
        outputs, problems, failed = {}, [], 0
        t0 = time.perf_counter()
        for _ in range(n):
            failed += self._pair(state, outputs, problems)[2]
        untraced = time.perf_counter() - t0

        rec = Recorder()
        targets = [
            (clmc.cli, "read_clustered_csv", "cli.read",
             lambda d: {"rows": int(d.cluster_sizes.sum())}),
            (clmc.cli, "validate_dataset", "data.validate", None),
            (clmc.cli.FITTERS, "probit", "models.fit",
             lambda f: {"iterations": f.iterations, "converged": f.converged}),
            (clmc.inference, "test_statistics", "inference.stats", None),
            (clmc.inference, "correlation_matrix_V", "inference.stats", None),
            # adjust("mnq") is covered by the quantile and rectangle spans below
            (clmc.inference, "adjust",
             lambda method, *a, **k: None if method == "mnq" else "inference.procs", None),
            (clmc.inference, "equicoordinate_quantile", "mvnprob.quantile", None),
            (clmc.inference, "mvn_rectangle_prob", "mvnprob.rect", None),
        ]
        call = 0
        t0 = time.perf_counter()
        with patched(rec, targets):
            for _ in range(n):
                for argv in (fit_argv(state["path"]), test_argv(state["path"])):
                    with rec.span("cli.call", trace=call):
                        rc, text, _ = run_cli(argv)
                    call += 1
                    failed += rc != 0
                    if text != outputs.get(argv[0]):
                        problems.append(f"traced clmc {argv[0]} output differs from untraced")
        traced = time.perf_counter() - t0
        return Result(
            metrics=per_layer(rec, (traced / untraced - 1.0) * 100.0),
            attempted=4 * n, failed=failed, problems=problems,
            detail={"inputs": dict(state["inputs"], pairs=n),
                    "untraced_s": untraced, "traced_s": traced,
                    "layer_shares": layer_shares(rec, traced), "expected_dominant": self.dominant,
                    "failures_by_class": fit_failures(rec)},
        ), rec


WORKLOADS = {
    "sim-pairwise": SimWorkload("mvn-null-rho0-m4-p10", "all_pairwise", 8, "mvnprob",
                                calls=4, reps_per_call=1, pool_seed=1234),
    "sim-gamma": SimWorkload("gamma-null-correlated", "many_to_one", 40, "simgen",
                             calls=4, reps_per_call=3),
    "sim-mvn-p20": SimWorkload("mvn-null-rho05-m10-p20", "many_to_one", 20, "models",
                               calls=4, reps_per_call=2),
    "cli-probit": CliWorkload(clusters=10000, csv_seed=2, trace_pairs=2),
}
