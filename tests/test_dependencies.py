"""The library imports only the standard library and its declared dependencies, and no
module of it imports or reads another's private name."""

import ast
import os
import re
import subprocess
import sys

import pytest

tomllib = pytest.importorskip("tomllib")   # standard library from Python 3.11
ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")


def declared_dependencies():
    with open(os.path.join(ROOT, "pyproject.toml"), "rb") as f:
        deps = tomllib.load(f)["project"]["dependencies"]
    return {re.match(r"[A-Za-z0-9_.-]+", d).group(0).lower().replace("-", "_") for d in deps}


def parsed_modules(package_dir):
    """(path relative to the repository, AST) of every .py file under ``package_dir``."""
    for dirpath, _, files in os.walk(package_dir):
        for name in sorted(files):
            if name.endswith(".py"):
                path = os.path.join(dirpath, name)
                with open(path) as f:
                    yield os.path.relpath(path, ROOT), ast.parse(f.read(), path)


def imported_top_level_modules(package_dir):
    found = {}
    for path, tree in parsed_modules(package_dir):
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                mods = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                mods = [node.module]
            else:
                continue
            for mod in mods:
                found.setdefault(mod.split(".")[0], path)
    return found


def test_every_third_party_import_is_declared():
    deps = declared_dependencies()
    assert deps == {"numpy"}
    undeclared = {mod: path for mod, path in imported_top_level_modules(
                      os.path.join(SRC, "maflow")).items()
                  if mod not in sys.stdlib_module_names and mod != "maflow" and mod not in deps}
    assert undeclared == {}


def test_no_module_imports_another_modules_private_name():
    crossing = [f"{path}: from {'.' * node.level}{node.module or ''} import {alias.name}"
                for path, tree in parsed_modules(os.path.join(SRC, "maflow"))
                for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0
                for alias in node.names if alias.name.startswith("_")]
    assert crossing == []


def private_attributes_of_sibling_names(path, tree):
    """``Name._attr`` uses in ``tree`` whose ``Name`` it imports from a sibling module."""
    siblings = {alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom) and node.level > 0 for alias in node.names}
    return [f"{path}:{node.lineno} {node.value.id}.{node.attr}" for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
            and node.value.id in siblings and node.attr.startswith("_")
            and not node.attr.endswith("__")]


def test_no_module_reads_a_private_attribute_of_a_name_from_another_module():
    crossing = [use for path, tree in parsed_modules(os.path.join(SRC, "maflow"))
                for use in private_attributes_of_sibling_names(path, tree)]
    assert crossing == []


def test_import_leaves_scipy_unloaded():
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, maflow, maflow.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"
