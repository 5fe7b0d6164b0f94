"""Every exported name resolves: the package's __all__ and each module's.
And the package keeps its per-code state and its minimum-weight enumeration
in one place each, with no module importing another inside a function, and
the bundle text format in one module.  GF(2) words are packed in matgf
alone, and no module imports a name it never uses.

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


def imports_inside_functions(path: Path) -> list[int]:
    """The lines at which a function in path imports a pccss module."""
    lines = []
    for fn in ast.walk(ast.parse(path.read_text())):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if isinstance(node, ast.ImportFrom):
                names = [node.module or ""] if not node.level else ["pccss"]
            elif isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            else:
                continue
            if any(name.split(".")[0] == "pccss" for name in names):
                lines.append(node.lineno)
    return lines


def test_modules_import_each_other_only_at_module_top():
    # a deferred import hides a cycle between modules; the package has none
    found = {p.name: imports_inside_functions(p) for p in SOURCES}
    assert {name: lines for name, lines in found.items() if lines} == {}


def test_minimum_weight_enumeration_lives_in_matgf_alone():
    # codes.min_weight and both css distance oracles run the one enumeration
    defined = [p.name for p in SOURCES for node in ast.parse(p.read_text()).body
               if isinstance(node, ast.FunctionDef) and node.name == "_min_weight_outside"]
    assert defined == ["matgf.py"]


def top_level_functions(path: Path) -> list[str]:
    return [node.name for node in ast.parse(path.read_text()).body
            if isinstance(node, ast.FunctionDef)]


def test_bundle_format_lives_in_bundle_alone():
    # one module reads and writes every bundle; matgf keeps matrix arithmetic
    names = ("take_matrix", "bundle_key", "rows_to_text", "read_bundle", "write_bundle")
    defined = {name: [p.name for p in SOURCES if name in top_level_functions(p)] for name in names}
    assert defined == {name: ["bundle.py"] for name in names}
    matgf = next(p for p in SOURCES if p.name == "matgf.py")
    assert [name for name in top_level_functions(matgf)
            if any(word in name for word in ("text", "bundle", "take"))] == []


def test_gf2_words_are_packed_in_matgf_alone():
    # decode's bit lanes, stabcirc's tableau columns and codes' generator
    # check go through matgf._pack_rows and _unpack_rows
    packers = {p.name: sum(called_names(p).count(f) for f in ("packbits", "unpackbits"))
               for p in SOURCES}
    assert {name for name, count in packers.items() if count} == {"matgf.py"}


def unused_imports(path: Path) -> list[str]:
    """The names path imports at module level and never reads, but for
    __future__ imports and the names in the module's __all__ when it is
    the package's __init__.py."""
    tree = ast.parse(path.read_text())
    imported = [(alias.asname or alias.name).split(".")[0]
                for node in tree.body if isinstance(node, (ast.Import, ast.ImportFrom))
                and getattr(node, "module", None) != "__future__" for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    if path.name == "__init__.py":
        used |= set(importlib.import_module("pccss").__all__)
    return [name for name in imported if name not in used]


def test_no_module_imports_a_name_it_never_uses():
    found = {p.name: unused_imports(p) for p in SOURCES}
    assert {name: names for name, names in found.items() if names} == {}


def test_field_powers_are_taken_in_galois_alone():
    # power rows come from FieldSpec.power_rows and element orders from
    # FieldSpec.generator: no other module raises field elements to powers
    callers = {p.name for p in SOURCES for node in ast.walk(ast.parse(p.read_text()))
               if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
               and node.func.attr == "pow"}
    assert callers == {"galois.py"}
