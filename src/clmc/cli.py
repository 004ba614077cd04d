"""Command-line interface: fit models, test contrast families, run experiments.

Data files are long-format CSV with header ``cluster_id,y,x1,...,xp``: one row
per observation, rows of one cluster grouped by the shared cluster_id (in
order of first appearance; file order within a cluster is preserved).
numpy's C parser reads a file wherever csv.reader would read it alike
(`_numpy_reads_alike`); csv.reader reads the rest and words every error.
Reports are emitted as aligned text, CSV, or JSON, and are byte-stable for a
fixed seed.  The subcommands raise on every failure, and `main` alone reports
it: one `error: ` line per problem on stderr, exit status 1.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
from array import array
import json
import sys
import warnings

import numpy as np
from scipy.special import ndtr

from .data import ClusteredDataset, ContrastFamily, build_contrasts, validate_dataset
from .harness import PRESETS, experiment_config, preset_config, run_experiment
from .inference import DEFAULT_METHODS, METHODS, evaluate_tests
from .models import FITTERS, naive_fit
from .mvnprob import QmcConfig
from .simgen import generate


# ---------------------------------------------------------------------------
# clustered CSV input/output


def _csv_rows(path: str):
    """(line number, fields) of each CSV row; text the csv module cannot
    parse or bytes that are not UTF-8 raise ValueError naming the file.
    A leading UTF-8 byte-order mark is dropped."""
    with open(path, newline="", encoding="utf-8-sig") as fh:
        reader = csv.reader(fh)
        try:
            for row in reader:
                yield reader.line_num, row
        except csv.Error as exc:
            raise ValueError(f"{path}:{reader.line_num}: {exc}") from None
        except UnicodeDecodeError as exc:
            raise ValueError(f"{path}: not UTF-8 text ({exc.reason})") from None


def _numpy_reads_alike(fh) -> bool:
    """Whether numpy reads the text of `fh` as csv.reader does: it holds none
    of \x1c-\x1f, which numpy's float parser alone reads as whitespace, and no
    field longer than csv.field_size_limit(), which csv.reader alone refuses.
    One pass in 1 MiB chunks finds the separators and any quote.  With no
    quote no field spans a line end, so no line may be longer than the limit;
    with a quote, csv.reader reads the whole text and raises csv.Error at a
    field over the limit, its one error on a file opened with newline=""."""
    limit, longest, tail, quoted = csv.field_size_limit(), 0, "", False
    while chunk := fh.read(1 << 20):
        if any(sep in chunk for sep in "\x1c\x1d\x1e\x1f"):
            return False
        quoted = quoted or '"' in chunk
        if not quoted and longest <= limit:
            lines = (tail + chunk).replace("\r", "\n").split("\n")
            longest, tail = max(longest, *map(len, lines)), lines[-1]
    if not quoted:
        return longest <= limit
    fh.seek(0)
    for _ in csv.reader(fh):
        pass
    return True


def _read_fast(path: str):
    """(id ranks, row clusters, y|x table) from one pass of numpy's C parser, or
    None on any error and wherever `_numpy_reads_alike` cannot show that numpy
    reads the file as `_read_rows` does.  numpy unquotes fields as csv.reader
    does, so R's write.csv quoting (every header name and every id) is read
    here; a converter ranks the ids in column 0 in order of first appearance."""
    rank = {}

    def cluster(field: str) -> int:
        cid = field.strip()
        if not cid:
            raise ValueError("empty cluster id")
        return rank.setdefault(cid, len(rank))

    try:
        with open(path, newline="", encoding="utf-8-sig") as fh, warnings.catch_warnings():
            if not _numpy_reads_alike(fh):
                return None
            fh.seek(0)
            header = [h.strip() for h in next(csv.reader(fh), [])]
            if len(header) < 3 or header[:2] != ["cluster_id", "y"]:
                return None
            warnings.simplefilter("error")  # numpy warns on a file without data rows
            table = np.loadtxt(fh, delimiter=",", quotechar='"', comments=None, ndmin=2,
                               converters={0: cluster})
    except Exception:
        return None
    return (rank, table[:, 0].astype(int), table[:, 1:]) if table.shape[1] == len(header) else None


def _read_rows(path: str):
    """`_read_fast`'s result by csv.reader and float(); ValueError naming the line."""
    rows = _csv_rows(path)
    _, header = next(rows, (None, None))
    if header is None:
        raise ValueError(f"{path}: empty file")
    header = [h.strip() for h in header]
    if len(header) < 3 or header[0] != "cluster_id" or header[1] != "y":
        raise ValueError(
            f"{path}: header must be cluster_id,y,x1,...,xp; got {','.join(header)}"
        )
    rank: dict[str, int] = {}
    cluster, values = [], array("d")  # y and x of each row, flat
    for lineno, row in rows:
        if not row or (len(row) == 1 and not row[0].strip()):
            continue
        if len(row) != len(header):
            raise ValueError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        cid = row[0].strip()
        try:
            nums = [float(f) for f in row[1:]]
        except ValueError:
            nums = None
        if nums is None or not cid:
            problem = "missing field" if any(not f.strip() for f in row) else "malformed numeric field"
            raise ValueError(f"{path}:{lineno}: {problem}")
        values.extend(nums)
        cluster.append(rank.setdefault(cid, len(rank)))
    if not values:
        raise ValueError(f"{path}: no data rows")
    return rank, cluster, np.frombuffer(values).reshape(len(cluster), -1)


def read_clustered_csv(path: str) -> ClusteredDataset:
    """Parse a long-format clustered CSV; malformed rows fail with their
    line number so problems can be fixed in place.  Clusters are ordered by
    the first appearance of their id and keep their rows in file order, so
    the rows of one cluster need not be contiguous.  numpy reads the file in
    one pass wherever it reads it as the csv module does; the csv module
    reads the rest and words every error."""
    rank, cluster, table = _read_fast(path) or _read_rows(path)
    cluster = np.array(cluster)
    table = table[np.argsort(cluster, kind="stable")]
    return ClusteredDataset(table[:, 1:], table[:, 0], np.bincount(cluster), list(rank))


def write_clustered_csv(d: ClusteredDataset, path: str) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["cluster_id", "y"] + [f"x{j + 1}" for j in range(d.p)])
        ids = np.repeat(d.ids, d.cluster_sizes).tolist()
        writer.writerows([cid, repr(yi)] + [repr(v) for v in xi]
                         for cid, yi, xi in zip(ids, d.y.tolist(), d.x.tolist()))


# ---------------------------------------------------------------------------
# report rendering


def _emit(rows: list[dict], fmt: str, out) -> None:
    """Render a nonempty list of flat records as aligned text, CSV, or JSON."""
    if fmt == "json":
        json.dump(rows, out, indent=2, default=str)
        out.write("\n")
        return
    cols = list(rows[0].keys())
    if fmt == "csv":
        writer = csv.writer(out)
        writer.writerow(cols)
        for r in rows:
            writer.writerow([r[c] for c in cols])
        return
    widths = {c: max(len(c), *(len(str(r[c])) for r in rows)) for c in cols}
    out.write("  ".join(c.ljust(widths[c]) for c in cols).rstrip() + "\n")
    for r in rows:
        out.write("  ".join(str(r[c]).ljust(widths[c]) for c in cols).rstrip() + "\n")


def _fmt(x: float, digits: int = 6) -> str:
    return f"{x:.{digits}g}"


def _output(path: str | None):
    """Context manager for the --output file, or for stdout (left open)."""
    return open(path, "w") if path else contextlib.nullcontext(sys.stdout)


# ---------------------------------------------------------------------------
# subcommands


def _coef_labels(model: str, p: int) -> list[str]:
    labels = [f"x{j + 1}" for j in range(p)]
    if model == "quadexp":
        labels.append("w")
    return labels


def _read_valid(path: str) -> ClusteredDataset:
    """The dataset in `path`; a ValueError with one line per validation error."""
    data = read_clustered_csv(path)
    errors = validate_dataset(data)
    if errors:
        raise ValueError("\n".join(errors))
    return data


def _fit(args, data: ClusteredDataset):
    """The --model fit of `data`, with --cluster-means (fit only) and --naive."""
    if args.model == "quadexp" and getattr(args, "cluster_means", False):
        fit = FITTERS["quadexp"](data, cluster_mean_covariates=True)
    else:
        fit = FITTERS[args.model](data)
    return naive_fit(fit) if args.naive else fit


def cmd_fit(args) -> int:
    data = _read_valid(args.data)
    fit = _fit(args, data)
    se = np.sqrt(np.diag(fit.gamma_hat) / data.n)
    rows = []
    for name, est, s in zip(_coef_labels(args.model, data.p), fit.theta_hat, se):
        z = est / s if s > 0 else np.inf
        rows.append(
            {
                "coefficient": name,
                "estimate": _fmt(est),
                "se": _fmt(s),
                "p_value": _fmt(2.0 * ndtr(-abs(z)), 4),
            }
        )
    if args.model == "gamma":
        rows.append(
            {"coefficient": "nu", "estimate": _fmt(fit.nuisance["nu"]), "se": "", "p_value": ""}
        )
    with _output(args.output) as out:
        _emit(rows, args.format, out)
        meta = f"# n={data.n} converged={fit.converged} iterations={fit.iterations} loglik={_fmt(fit.loglik, 8)}"
        if args.format == "text":
            out.write(meta + "\n")
    if not fit.converged:
        raise RuntimeError("fit did not converge")
    return 0


def _parse_contrasts(spec: str, p: int) -> ContrastFamily:
    if spec == "all-pairwise":
        return build_contrasts("all_pairwise", p)
    if spec.startswith("many-to-one:"):
        baseline = spec.split(":", 1)[1]
        if not baseline.strip().isdecimal():
            raise ValueError(f"baseline {baseline!r} of --contrasts {spec!r} is not a positive integer")
        return build_contrasts("many_to_one", p, baseline=int(baseline))
    if spec.startswith("file:"):
        path = spec.split(":", 1)[1]
        labels, rows = [], []
        for lineno, row in _csv_rows(path):
            if not row or (len(row) == 1 and not row[0].strip()):
                continue
            if len(row) != p + 1:
                raise ValueError(f"{path}:{lineno}: contrast rows must have {p} weights")
            labels.append(row[0].strip())
            try:
                rows.append([float(v) for v in row[1:]])
            except ValueError:
                raise ValueError(f"{path}:{lineno}: malformed contrast weight") from None
            if not np.isfinite(rows[-1]).all():
                raise ValueError(f"{path}:{lineno}: contrast weights must be finite")
        if not rows:
            raise ValueError(f"{path}: contrast rows must have {p} weights")
        return ContrastFamily(np.array(rows), tuple(labels), "custom")
    raise ValueError(f"unknown contrast spec {spec!r}")


def cmd_test(args) -> int:
    # the flags first: an error naming one of them is not the data file's
    methods = tuple(m.strip() for m in args.methods.split(","))
    unknown = [m for m in methods if m not in METHODS]
    if unknown:
        raise ValueError(f"unknown methods {unknown}; choose from {METHODS}")
    if len(set(methods)) < len(methods):
        raise ValueError(f"--methods names a method twice: {args.methods}")
    if not 0.0 < args.alpha < 1.0:
        raise ValueError("alpha must be in (0, 1)")
    qmc = QmcConfig(points_per_shift=args.qmc_points, shifts=args.qmc_shifts, seed=args.seed)
    for flag, given, size in (("--qmc-points", args.qmc_points, qmc.points_per_shift),
                              ("--qmc-shifts", args.qmc_shifts, qmc.shifts)):
        if size > np.iinfo(np.intp).max:
            raise ValueError(f"{flag} {given} is larger than any array dimension")
    data = _read_valid(args.data)
    cf = _parse_contrasts(args.contrasts, data.p)
    # the Sobol stack holds shifts x points x (c - 1) coordinates, 8 bytes each
    if qmc.shifts * qmc.points_per_shift * max(cf.c - 1, 1) * 8 > np.iinfo(np.intp).max:
        raise ValueError(f"--qmc-shifts {args.qmc_shifts} and --qmc-points {args.qmc_points} "
                         "ask for a Sobol stack larger than any array")
    fit = _fit(args, data)
    if not fit.converged:
        raise RuntimeError("fit did not converge")
    result = evaluate_tests(fit, cf, data.n, args.alpha, methods, qmc)
    rows = []
    for i, label in enumerate(result.labels):
        row = {"hypothesis": label, "t": _fmt(result.t_stats[i])}
        for m in methods:
            dec = result.decisions[m]
            row[m] = "R" if dec.reject[i] else "A"
            if dec.adjusted_p is not None:
                row[f"{m}_adj_p"] = _fmt(dec.adjusted_p[i], 4)
        rows.append(row)
    thresholds = [
        {
            "method": m,
            "threshold": _fmt(result.decisions[m].threshold)
            if result.decisions[m].threshold is not None
            else "step-down",
            "global_reject": result.decisions[m].global_reject,
        }
        for m in methods
    ]
    with _output(args.output) as out:
        if args.format == "json":
            json.dump({"hypotheses": rows, "methods": thresholds}, out, indent=2, default=str)
            out.write("\n")
        else:
            _emit(rows, args.format, out)
            out.write("\n" if args.format == "text" else "")
            _emit(thresholds, args.format, out)
    return 0


def cmd_simulate(args) -> int:
    if args.list_presets:
        for name in PRESETS:
            print(name)
        return 0
    if bool(args.preset) == bool(args.config):
        raise ValueError("give exactly one of --preset or --config")
    if args.preset:
        cfg = preset_config(args.preset, args.replicates, args.seed, args.workers,
                            args.contrast_kind or "many_to_one")
    elif args.contrast_kind:
        raise ValueError("--contrast-kind applies to --preset only")
    elif args.workers < 1 or args.seed < 0:  # before the file: an error naming it is the file's
        raise ValueError(f"workers must be at least 1, got {args.workers}" if args.workers < 1
                         else f"seed must be nonnegative, got {args.seed}")
    else:
        try:
            with open(args.config) as fh:
                cfg = experiment_config(json.load(fh), args.replicates, args.seed, args.workers)
        except ValueError as exc:
            raise ValueError(f"{args.config}: {exc}") from None
    summary = run_experiment(cfg)
    scenario_name = args.preset or args.config

    def row(procedure, metric, estimate, mc_se=""):
        return {"scenario": scenario_name, "procedure": procedure, "metric": metric,
                "estimate": estimate, "mc_se": mc_se, "replicates": summary.replicates_completed}

    rows = []
    for m, ps in summary.per_procedure.items():
        rows.append(row(m, ps.metric, _fmt(ps.estimate), _fmt(ps.mc_std_error)))
        if ps.ind_power_sum is not None:
            rows.append(row(m, "ind_power_sum", _fmt(ps.ind_power_sum)))
    if summary.efficiency is not None:
        rows.append(row("mcle_vs_mle", "efficiency", _fmt(summary.efficiency),
                        _fmt(summary.efficiency_se)))
    if summary.failures:
        rows.append(row("", "dropped_replicates", summary.failures))
    with _output(args.output) as out:
        _emit(rows, args.format, out)
    return 0


def cmd_generate(args) -> int:
    cfg = preset_config(args.preset, seed=args.seed)
    data = generate(cfg.scenario)
    write_clustered_csv(data, args.output)
    return 0


# ---------------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="clmc",
        description="Composite-likelihood fitting and simultaneous inference for clustered data.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    report = argparse.ArgumentParser(add_help=False)
    report.add_argument("--format", default="text", choices=("text", "csv", "json"))
    report.add_argument("--output")
    model = argparse.ArgumentParser(add_help=False)
    model.add_argument("--model", required=True, choices=tuple(FITTERS))
    model.add_argument("--data", required=True)
    model.add_argument("--naive", action="store_true",
                       help="use the correlation-ignoring covariance H^-1")

    p_fit = sub.add_parser("fit", parents=[model, report],
                           help="fit a model to a clustered CSV file")
    p_fit.add_argument("--cluster-means", action="store_true",
                       help="association model: use cluster-mean covariates")
    p_fit.set_defaults(func=cmd_fit)

    p_test = sub.add_parser("test", parents=[model, report],
                            help="simultaneous contrast tests on a fitted model")
    p_test.add_argument("--contrasts", required=True,
                        help="many-to-one:B | all-pairwise | file:PATH")
    p_test.add_argument("--alpha", type=float, default=0.05)
    p_test.add_argument("--methods", default=",".join(DEFAULT_METHODS))
    qmc = QmcConfig()
    target = np.format_float_scientific(qmc.target_abs_error, trim="-", exp_digits=1)
    p_test.add_argument("--seed", type=int, default=qmc.seed,
                        help="seed of the QMC scrambles; mnq output is a function of it")
    p_test.add_argument("--qmc-points", type=int, default=qmc.points_per_shift,
                        help="starting Sobol points per shift, rounded up to a power of two; "
                             f"an mnq p-value whose union bounds lie over {target} apart grows its first 1/16 "
                             "until 3 SEs fit, the cutoff until 1 SE does; the decisions, the simulations' rule, "
                             f"from 64 points until 4 SEs settle each (default {qmc.points_per_shift})")
    p_test.add_argument("--qmc-shifts", type=int, default=qmc.shifts,
                        help="independent scrambles; their spread is each estimate's SE "
                             f"(default {qmc.shifts})")
    p_test.set_defaults(func=cmd_test)

    p_sim = sub.add_parser("simulate", parents=[report], help="run a replicated experiment")
    p_sim.add_argument("--preset")
    p_sim.add_argument("--config", help="JSON experiment description")
    p_sim.add_argument("--list-presets", action="store_true")
    p_sim.add_argument("--replicates", type=int, default=2000)
    p_sim.add_argument("--seed", type=int, default=1234)
    p_sim.add_argument("--workers", type=int, default=1)
    p_sim.add_argument("--contrast-kind", choices=("many_to_one", "all_pairwise"),
                       help="the preset's contrast family (default many_to_one)")
    p_sim.set_defaults(func=cmd_simulate)

    p_gen = sub.add_parser("generate", help="write one simulated dataset as CSV")
    p_gen.add_argument("--preset", required=True)
    p_gen.add_argument("--seed", type=int, default=1234)
    p_gen.add_argument("--output", required=True)
    p_gen.set_defaults(func=cmd_generate)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    # FitError, SeparationError and QuantileConvergenceError are RuntimeErrors;
    # numpy refuses an impossible allocation with a MemoryError naming its size
    try:
        return args.func(args)
    except (ValueError, KeyError, OSError, RuntimeError, MemoryError) as exc:
        for line in str(exc).splitlines() or [""]:
            print(f"error: {line}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
