"""No API that only the tests use: every name src/pwenum defines is used by the program.

A module-level function or class must be referenced somewhere in src/
outside its own definition, and so must a method or property of a class,
as an attribute; special methods such as __eq__ are called by Python.  The
only exemptions are the names that readers outside the program rely on:
the functions the benchmark's tracer wraps (perfbench/spans.py LAYERS),
the names its set-up code reads (perfbench/run.py SETUP_CODE), both read
as text, and the README's Library import.
"""

import ast
import re
from collections import Counter
from pathlib import Path

import pwenum
from test_benchmark_contract import PERFBENCH, _constant

ROOT = Path(__file__).resolve().parent.parent


def _names(tree) -> Counter:
    return Counter(node.id for node in ast.walk(tree) if isinstance(node, ast.Name))


def _attributes(tree) -> Counter:
    return Counter(node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute))


def _library_import() -> set:
    """The names of the README's `from pwenum import ...` line."""
    (line,) = re.findall(r"^from pwenum import (.+)$", (ROOT / "README.md").read_text(), re.M)
    return {name.strip() for name in line.split(",")}


def _trees() -> list:
    return [ast.parse(path.read_text()) for path in sorted((ROOT / "src" / "pwenum").glob("*.py"))]


def _exempt() -> set:
    layers = _constant(PERFBENCH / "spans.py", "LAYERS")
    exempt = {name for names in layers.values() for name in names}
    exempt |= set(re.findall(r"\w+", _constant(PERFBENCH / "run.py", "SETUP_CODE")))
    return exempt | _library_import()


def test_every_module_level_function_and_class_is_used_in_src():
    trees, exempt = _trees(), _exempt()
    uses = sum(map(_names, trees), Counter())
    unused = [
        node.name
        for tree in trees
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and node.name not in exempt
        and uses[node.name] == _names(node)[node.name]
    ]
    assert unused == []


def test_every_method_and_property_is_used_in_src():
    trees, exempt = _trees(), _exempt()
    uses = sum(map(_attributes, trees), Counter())
    unused = [
        f"{cls.name}.{node.name}"
        for tree in trees
        for cls in tree.body
        if isinstance(cls, ast.ClassDef)
        for node in cls.body
        if isinstance(node, ast.FunctionDef)
        and not (node.name.startswith("__") and node.name.endswith("__"))
        and node.name not in exempt
        and uses[node.name] == _attributes(node)[node.name]
    ]
    assert unused == []


def test_the_package_exports_the_library_import_and_the_errors():
    assert set(pwenum.__all__) == _library_import() | {"CapExceededError", "IntegrityError"}
    assert all(hasattr(pwenum, name) for name in pwenum.__all__)
