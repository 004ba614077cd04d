import importlib
import pkgutil
import re
from pathlib import Path

import numpy as np
import pytest

import clmc
import clmc.cli
import clmc.inference
from clmc.simgen import MODELS, ScenarioSpec, generate

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
