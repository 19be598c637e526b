"""Each layer module's ``__all__`` names what it defines, and only that; and
every import of a sibling module sits at module level, where a cycle cannot hide."""

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import pytest

import fluoinv

# the command-line front end is run, not imported as a library
LAYERS = sorted(m.name for m in pkgutil.iter_modules(fluoinv.__path__) if m.name != "cli")


@pytest.mark.parametrize("name", LAYERS)
def test_all_lists_exactly_the_public_definitions(name):
    module = importlib.import_module(f"fluoinv.{name}")
    listed = module.__all__
    assert len(set(listed)) == len(listed)
    assert [n for n in listed if not hasattr(module, n)] == []
    defined = [n for n, obj in vars(module).items()
               if not n.startswith("_") and (inspect.isfunction(obj) or inspect.isclass(obj))
               and obj.__module__ == module.__name__]
    assert [n for n in defined if n not in listed] == []


def test_no_relative_import_inside_a_function():
    # a function-level ``from .x import ...`` is how an import cycle between
    # layers hides; deferred stdlib imports (multiprocessing) are not relative
    found = set()
    for path in sorted(Path(fluoinv.__file__).parent.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.update(f"{path.name}:{node.lineno}" for node in ast.walk(fn)
                             if isinstance(node, ast.ImportFrom) and node.level > 0)
    assert sorted(found) == []


def test_no_module_makes_up_a_robin_parameter():
    # what does not read beta is the grid's, so no module asks for the
    # operators at a literal beta to reach it
    found = set()
    for path in sorted(Path(fluoinv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "operators"
                    and any(isinstance(arg, ast.Constant)
                             for arg in [*node.args, *(k.value for k in node.keywords)])):
                found.add(f"{path.name}:{node.lineno}")
    assert sorted(found) == []


def test_no_module_reads_the_environment():
    # every setting comes from the command line or a configuration file, so
    # the manifest records what a run read; the environment would bypass both
    readers = {"environ", "environb", "getenv", "getenvb"}
    found = set()
    for path in sorted(Path(fluoinv.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if ((isinstance(node, ast.Attribute) and node.attr in readers)
                    or (isinstance(node, ast.ImportFrom) and node.module == "os"
                        and any(alias.name in readers for alias in node.names))):
                found.add(f"{path.name}:{node.lineno}")
    assert sorted(found) == []
