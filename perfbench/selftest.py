"""Fast self-test of the benchmark, at tiny input sizes.

    python3 perfbench/selftest.py

Checks that every workload runs with tracing off and on, passes its output
checks, and prints every metric of BENCHMARK.json with its unit; that the
exact-coverage oracles agree with independent closed forms; and that the
benchmark fails without printing a result where the package is missing.
Takes about a minute on two cores.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

sys.dont_write_bytecode = True
HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))


def check_oracles() -> list[str]:
    import numpy as np
    from scipy.special import ndtr

    import clmc
    import oracle

    bad = []
    for p in (3, 10):
        q = clmc.studentized_range_quantile(p, 0.05)
        if abs(oracle.range_cdf(q, p) - 0.95) > 1e-7:
            bad.append(f"range law disagrees with studentized_range_quantile at p={p}")
    for q, c in ((2.5, 9), (2.8, 19)):
        if abs(oracle.equicorrelated_cdf(q, c, 0.0) - (2.0 * ndtr(q) - 1.0) ** c) > 1e-12:
            bad.append(f"equicorrelated integral at rho=0 is not the product law (c={c})")
        if abs(oracle.equicorrelated_cdf(q, 1, 0.5) - (2.0 * ndtr(q) - 1.0)) > 1e-12:
            bad.append("equicorrelated integral with c=1 is not the normal law")
    if not np.isclose(oracle.exact_coverage("all_pairwise", 2, 1.96), 2.0 * ndtr(1.96) - 1.0):
        bad.append("two-coefficient pairwise coverage is not the normal law")
    return bad


def check_runs(spec: dict) -> list[str]:
    bad = []
    for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
        units = {m["name"]: m["unit"] for m in spec[kind]}
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", "all", "--size", "tiny",
               "--seconds", "1", "--seed", "3", "--trace", str(trace)]
        done = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=600)
        results = json.loads(done.stdout.strip().splitlines()[-1])
        for w in spec["workloads"]:
            res = results.get(w["name"])
            if res is None:
                bad.append(f"{w['name']} trace={trace}: no result")
                continue
            if not res["correct"] or res["attempted"] < 1 or res["failed"]:
                bad.append(f"{w['name']} trace={trace}: {res}")
            got = {k: v["unit"] for k, v in res["metrics"].items()}
            if got != units:
                bad.append(f"{w['name']} trace={trace}: metrics {got} != {units}")
    return bad


def check_without_package(spec: dict) -> list[str]:
    """A directory holding only BENCHMARK.json and the benchmark fails fast."""
    bare = ROOT / ".perfbench_work" / "selftest-bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        for path in spec["paths"]:
            shutil.copytree(ROOT / path, bare / path, ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare / "BENCHMARK.json")
        w = spec["workloads"][0]["name"]
        cmd = spec["command"] + ["--workload", w, "--seed", "1", "--seconds", "1", "--trace", "0"]
        done = subprocess.run(cmd, cwd=bare, capture_output=True, text=True, timeout=170)
    finally:
        shutil.rmtree(bare, ignore_errors=True)
    if done.returncode == 0 or done.stdout.strip():
        return [f"without the package: exit {done.returncode}, stdout {done.stdout!r}"]
    return []


def main() -> int:
    with open(ROOT / "BENCHMARK.json") as fh:
        spec = json.load(fh)
    bad = check_oracles() + check_without_package(spec) + check_runs(spec)
    for b in bad:
        print(f"FAIL {b}")
    print("selftest " + ("failed" if bad else "passed"))
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
