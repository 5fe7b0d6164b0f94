"""Every exported name resolves: the package's __all__ and each module's.
And the package keeps its per-code state in one place.

The benchmark's span tracer looks up every name in each module's __all__,
so a stale entry breaks traced runs."""
import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import pccss

MODULES = ["pccss"] + [f"pccss.{m.name}" for m in pkgutil.iter_modules(pccss.__path__)]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    assert module.__all__
    assert [attr for attr in module.__all__ if not hasattr(module, attr)] == []


SOURCES = sorted(Path(pccss.__file__).parent.glob("*.py"))


def called_names(path: Path) -> list[str]:
    """The names of the functions path's code calls, as written."""
    tree = ast.parse(path.read_text())
    calls = [node.func for node in ast.walk(tree) if isinstance(node, ast.Call)]
    return [f.attr if isinstance(f, ast.Attribute) else getattr(f, "id", "") for f in calls]


def test_per_code_state_lives_in_the_decoders_memo_alone():
    # decode._per_code is the one per-code cache: no other module makes a
    # weak-keyed one, and the harness sets nothing on the codes it is given
    makers = {p.name: called_names(p).count("WeakKeyDictionary") for p in SOURCES}
    assert {name: count for name, count in makers.items() if count} == {"decode.py": 1}
    harness_calls = called_names(next(p for p in SOURCES if p.name == "harness.py"))
    assert not {"setattr", "__setattr__"} & set(harness_calls)
