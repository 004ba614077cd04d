import importlib
import json
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import clmc
import clmc.cli
import clmc.inference
from clmc.models import MODELS
from clmc.simgen import ScenarioSpec, generate

MODULES = ["clmc"] + [m.name for m in pkgutil.walk_packages(clmc.__path__, "clmc.")]

# names the benchmark (perfbench/workloads.py) wraps in place or calls; none
# is otherwise needed by the package's own tests, so a cleanup could drop one
BENCHMARK_HOOKS = {
    "clmc.inference": ["equicoordinate_quantile", "mvn_rectangle_prob", "adjust",
                       "test_statistics", "correlation_matrix_V"],
    "clmc.cli": ["read_clustered_csv", "validate_dataset", "main"],
    "clmc": ["generate", "FitError", "test_statistics", "correlation_matrix_V",
             "equicoordinate_quantile", "sandwich", "adjust", "mvn_mle_fit", "preset_config",
             "run_experiment", "build_contrasts", "studentized_range_quantile", "QmcConfig",
             *(f"{model}_cl_fit" for model in MODELS)],
}


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry imports fine but breaks `from <module> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []


@pytest.mark.parametrize("module", BENCHMARK_HOOKS)
def test_benchmark_hooks_exist(module):
    mod = importlib.import_module(module)
    missing = [n for n in BENCHMARK_HOOKS[module] if not callable(getattr(mod, n, None))]
    assert missing == []


def test_cli_fitter_registry_has_probit():
    assert callable(clmc.cli.FITTERS["probit"])


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    code = re.search(r"## Library example\n\n```python\n(.*?)```", readme, re.S).group(1)
    spec = ScenarioSpec("quadexp", 300, (3, 4, 5), 3, np.array([0.4, 0.1, -0.2]), w=0.3,
                        seed=32, x_row_corr=0.3)
    clmc.cli.write_clustered_csv(generate(spec), str(tmp_path / "panel.csv"))
    monkeypatch.chdir(tmp_path)  # the example reads panel.csv
    exec(code, {})
    out = capsys.readouterr().out
    assert out.startswith("300 clusters of sizes")
    rows = [line.split() for line in out.splitlines() if " T=" in line]
    assert [(r[0], r[-1] in ("reject", "accept")) for r in rows] == [
        (label, True) for label in clmc.build_contrasts("all_pairwise", 3).labels]


# A fresh process runs the commands below, then `then`, and reports after
# each step whether scipy.stats and scipy.sparse are loaded and how many
# times it has asked for a Sobol stack.  Importing scipy.stats takes about
# as long as the rest of `import clmc`, and no step loads it: the QMC
# integrator builds its Sobol points in numpy, and Tukey's cutoff is solved
# from the range law in numpy.  The union bounds' spanning tree is built in
# numpy too, so no step loads scipy.sparse either.
STATS_PROBE = """
import json, sys
import numpy as np
import clmc, clmc.cli
from clmc.mvnprob import _sobol_stack

def step():
    info = _sobol_stack.cache_info()
    return ["scipy.stats" in sys.modules, "scipy.sparse" in sys.modules, info.hits + info.misses]

steps = {"import clmc": step()}
for name, argv in %r:
    assert clmc.cli.main(argv) == 0, argv
    steps[name] = step()
%s
steps["then"] = step()
print(json.dumps(steps))
"""


@pytest.mark.parametrize("then", [
    "clmc.equicoordinate_quantile(0.5 * np.eye(3) + 0.5, 0.05)",
    "clmc.studentized_range_quantile(4, 0.05)",
], ids=["quantile", "tukey"])
def test_no_step_loads_scipy_stats(tmp_path, then):
    csv = str(tmp_path / "probit.csv")
    commands = [
        ("generate", ["generate", "--preset", "probit-null-rho05-m4-p10", "--seed", "3", "--output", csv]),
        ("fit", ["fit", "--model", "probit", "--data", csv]),
        ("test", ["test", "--model", "probit", "--data", csv, "--contrasts", "many-to-one:1",
                  "--methods", "bonferroni,holm,sidak,scheffe"]),
        ("test tukey", ["test", "--model", "probit", "--data", csv, "--contrasts", "all-pairwise",
                        "--methods", "tukey"]),
        ("test mnq", ["test", "--model", "probit", "--data", csv, "--contrasts", "many-to-one:1"]),
        ("simulate", ["simulate", "--preset", "gamma-null-correlated", "--replicates", "40", "--seed", "1"]),
    ]
    src = str(Path(__file__).parents[1] / "src")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    run = subprocess.run([sys.executable, "-c", STATS_PROBE % (commands, then)],
                         capture_output=True, text=True, env=env, timeout=120)
    assert run.returncode == 0, run.stderr
    steps = json.loads(run.stdout.splitlines()[-1])
    # the default methods (mnq among them) integrate, in `test` and in the
    # simulation's replicates, and still load neither scipy.stats nor scipy.sparse;
    # Tukey's cutoff integrates the range law on its own grid, with no Sobol stack
    assert steps["test"][2] == steps["test tukey"][2] == 0 < steps["test mnq"][2] < steps["simulate"][2]
    for module in (0, 1):
        loaded = {name: step[module] for name, step in steps.items()}
        assert loaded == dict.fromkeys(["import clmc", "generate", "fit", "test", "test tukey", "test mnq",
                                        "simulate", "then"], False)
