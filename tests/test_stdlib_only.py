"""The package's surface: the runtime stays stdlib-only, every absolute
import in the package naming a module of the standard library; every
module reads each name it imports; and ``lgvlab.__all__`` lists exactly
the public names the package binds."""

import ast
import pathlib
import sys
import types

import lgvlab

PACKAGE = pathlib.Path(lgvlab.__file__).resolve().parent


def absolute_imports(source: str) -> set[str]:
    """Top-level names of the absolute imports anywhere in ``source``,
    function-level imports included; relative imports are skipped."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names.add(node.module.split(".")[0])
    return names


def test_absolute_imports_are_collected_at_every_depth():
    source = ("import os.path\nfrom .paths import Path\n"
              "def f():\n    from numpy.linalg import det\n")
    assert absolute_imports(source) == {"os", "numpy"}


def unused_imports(source: str) -> set[str]:
    """Names that the top-level imports of ``source`` bind and that no
    expression in it reads; ``__future__`` imports are skipped."""
    tree = ast.parse(source)
    bound = set()
    for node in tree.body:
        if isinstance(node, ast.Import):
            bound.update(alias.asname or alias.name.split(".")[0]
                         for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return bound - read


def test_unused_imports_are_the_top_level_names_never_read():
    source = ("import os.path\nimport json as j\n"
              "from .paths import Path, Step\n"
              "from __future__ import annotations\n"
              "def f(step: Step):\n    import sys\n    return os.sep\n")
    assert unused_imports(source) == {"j", "Path"}


def test_every_module_reads_what_it_imports():
    unused = {
        (module.name, name)
        for module in sorted(PACKAGE.rglob("*.py"))
        if module.name != "__init__.py"
        for name in unused_imports(module.read_text())
    }
    assert unused == set()


def test_the_package_imports_only_the_standard_library():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    outside = {
        (module.name, name)
        for module in modules
        for name in absolute_imports(module.read_text())
        if name not in sys.stdlib_module_names
    }
    assert outside == set()


def test_the_export_list_is_what_the_package_binds():
    exported = lgvlab.__all__
    assert len(exported) == len(set(exported))
    assert all(hasattr(lgvlab, name) for name in exported)
    bound = {name for name, value in vars(lgvlab).items()
             if not name.startswith("_")
             and not isinstance(value, types.ModuleType)}
    assert set(exported) == bound
