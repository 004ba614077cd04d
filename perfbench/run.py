"""clmc benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root; the package is imported from ./src.  One run
sets up one workload, measures it and checks its outputs.  With --trace 0 the
end-to-end metrics of BENCHMARK.json are timed with tracing off; with
--trace 1 a separate traced run gives the per-layer metrics.  The last line of
standard output is one JSON object with the keys correct, attempted, failed
and metrics; the line before it records the environment, the input sizes and
the details behind each metric.  The exit status is 0 only when every output
check passed.

`--workload all` runs every workload of BENCHMARK.json in turn, and
`--size tiny` shrinks every input for the self-test (selftest.py).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

import speed  # noqa: E402  (standard library only: set-up is scaled from its start)

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"     # scratch inputs, removed at the end of a run
OUT = ROOT / ".perfbench_out"       # span dumps of traced runs
SETUP_REPEATS = 3
BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")


def load_spec() -> dict:
    with open(ROOT / "BENCHMARK.json") as fh:
        return json.load(fh)


def _cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def environment() -> dict:
    import numpy
    import scipy

    try:
        blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "blas_threads": {v: os.environ.get(v) for v in BLAS_VARS},
    }


def setup_in_subprocess(args) -> dict:
    """Set-up times of a fresh process, measured the way main() measures them."""
    cmd = [sys.executable, str(HERE / "run.py"), "--setup-only", "--workload", args.workload,
           "--seed", str(args.seed), "--size", args.size]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=170)
    if done.returncode != 0:
        raise RuntimeError(f"set-up subprocess failed: {done.stderr.strip()}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def run_all(args, spec: dict) -> int:
    """Every workload in its own process; prints each one's metric table."""
    results, status = {}, 0
    for w in spec["workloads"]:
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", w["name"],
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace), "--size", args.size]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        status = status or done.returncode
        results[w["name"]] = json.loads(lines[-1]) if lines else None
    print(json.dumps(results))
    return status


def print_table(workload: str, metrics: dict) -> None:
    width = max(map(len, metrics))
    print(f"{workload}:", file=sys.stderr)
    for name, m in metrics.items():
        print(f"  {name:<{width}}  {m['value']:.6g} {m['unit']}", file=sys.stderr)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "tiny"), default="full")
    ap.add_argument("--setup-only", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    spec = load_spec()
    if args.workload == "all":
        return run_all(args, spec)

    ref0 = speed.ref_ms()
    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    try:
        import workloads
    except ImportError as exc:
        print(f"error: cannot import the clmc package from {SRC}: {exc}", file=sys.stderr)
        return 2
    if not Path(workloads.clmc.__file__).resolve().is_relative_to(SRC.resolve()):
        print(f"error: clmc was imported from {workloads.clmc.__file__}, not {SRC}", file=sys.stderr)
        return 2
    wl = workloads.WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}", file=sys.stderr)
        return 2

    work = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        state = wl.setup(args.seed, args.size == "tiny", work)
        wall = time.perf_counter() - t0
        # scaled like every timed call (speed.py), by the loop before and after
        setup = {"setup_s": wall * 2.0 * speed.REF_MS / (ref0 + speed.ref_ms()),
                 "setup_wall_s": wall}
        if args.setup_only:
            print(json.dumps(setup))
            return 0
        if args.trace:
            result, rec = wl.traced(state)
        else:
            result = wl.timed(state, args.seconds)
            setups = [setup] + [setup_in_subprocess(args) for _ in range(SETUP_REPEATS - 1)]
            result.metrics["setup_s"] = statistics.median(s["setup_s"] for s in setups)
            result.detail["setup_s_each"] = [s["setup_s"] for s in setups]
            result.detail["setup_wall_s_each"] = [s["setup_wall_s"] for s in setups]
    finally:
        shutil.rmtree(work, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    env = environment()
    kind = "per_layer" if args.trace else "end_to_end"
    units = {m["name"]: m["unit"] for m in spec[kind]}
    problems = list(result.problems)
    if set(result.metrics) != set(units):
        problems.append(f"metrics {sorted(result.metrics)} do not match the {kind} "
                        f"metrics of BENCHMARK.json {sorted(units)}")
    record = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "size": args.size, "env": env,
              "problems": problems, **result.detail}
    if args.trace:
        shares = result.detail["layer_shares"]
        top = max(shares, key=shares.get)
        record["dominant_layer"] = top
        if top != result.detail["expected_dominant"]:
            print(f"warning: {top} takes the largest share of the traced run, expected "
                  f"{result.detail['expected_dominant']}: {shares}", file=sys.stderr)
        OUT.mkdir(exist_ok=True)
        dump = OUT / f"trace-{args.workload}-seed{args.seed}.json"
        with open(dump, "w") as fh:
            json.dump(dict(record, spans=rec.dump()), fh)
        record["spans_file"] = str(dump.relative_to(ROOT))
    for p in problems:
        print(f"check failed: {p}", file=sys.stderr)

    metrics = {name: {"value": float(result.metrics[name]), "unit": unit}
               for name, unit in units.items() if name in result.metrics}
    print_table(args.workload, metrics)
    print(json.dumps(record, default=str))
    print(json.dumps({"correct": not problems, "attempted": result.attempted,
                      "failed": result.failed, "metrics": metrics}))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
