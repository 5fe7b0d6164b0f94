"""Every exported name resolves: the package's __all__ and each module's.

The benchmark's span tracer looks up every name in each module's __all__,
so a stale entry breaks traced runs."""
import importlib
import pkgutil

import pytest

import pccss

MODULES = ["pccss"] + [f"pccss.{m.name}" for m in pkgutil.iter_modules(pccss.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []
