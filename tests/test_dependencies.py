"""The library imports only the standard library and its declared dependencies."""

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


def imported_top_level_modules(package_dir):
    found = {}
    for dirpath, _, files in os.walk(package_dir):
        for name in files:
            if not name.endswith(".py"):
                continue
            path = os.path.join(dirpath, name)
            with open(path) as f:
                tree = ast.parse(f.read(), path)
            for node in ast.walk(tree):
                if isinstance(node, ast.Import):
                    mods = [alias.name for alias in node.names]
                elif isinstance(node, ast.ImportFrom) and node.level == 0:
                    mods = [node.module]
                else:
                    continue
                for mod in mods:
                    found.setdefault(mod.split(".")[0], os.path.relpath(path, ROOT))
    return found


def test_every_third_party_import_is_declared():
    deps = declared_dependencies()
    assert deps == {"numpy"}
    undeclared = {mod: path for mod, path in imported_top_level_modules(
                      os.path.join(SRC, "maflow")).items()
                  if mod not in sys.stdlib_module_names and mod != "maflow" and mod not in deps}
    assert undeclared == {}


def test_import_leaves_scipy_unloaded():
    env = {**os.environ, "PYTHONPATH": SRC + os.pathsep + os.environ.get("PYTHONPATH", "")}
    code = "import sys, maflow, maflow.cli; print(sorted(m for m in sys.modules if m.startswith('scipy')))"
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.strip() == "[]"
