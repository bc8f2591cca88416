"""Every public export resolves: each name in a chargelab module's __all__
is an attribute of the module, so `from chargelab.<module> import *` works."""
import importlib
import pkgutil

import pytest

import chargelab

MODULES = sorted(info.name for info in pkgutil.iter_modules(chargelab.__path__))


def test_every_module_is_found():
    assert {"bogolubov", "cli", "correlation", "foldy", "matrixloc", "numerics",
            "spectral", "trialstate", "variational"} <= set(MODULES)


@pytest.mark.parametrize("name", MODULES)
def test_all_resolves(name):
    module = importlib.import_module(f"chargelab.{name}")
    exported = list(getattr(module, "__all__", ()))
    assert len(set(exported)) == len(exported), f"chargelab.{name}: duplicate __all__ entry"
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert not missing, f"chargelab.{name}.__all__ names no attribute: {missing}"
    namespace = {}
    exec(f"from chargelab.{name} import *", namespace)
    assert set(exported) <= set(namespace)
