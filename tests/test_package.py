import importlib
import pkgutil

import pytest

import clmc

MODULES = ["clmc"] + [m.name for m in pkgutil.walk_packages(clmc.__path__, "clmc.")]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    # a stale __all__ entry imports fine but breaks `from <module> import *`
    module = importlib.import_module(name)
    missing = [n for n in getattr(module, "__all__", ()) if not hasattr(module, n)]
    assert missing == []
