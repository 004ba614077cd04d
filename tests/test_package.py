import importlib
import pkgutil

import pytest

import clmc
import clmc.cli
import clmc.inference
from clmc.simgen import MODELS

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
