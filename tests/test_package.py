"""The package's import paths: each public name lives in its module only,
and each of the format and the graph hash has one source in ``src/``."""

import ast
import importlib
import os
import subprocess
import sys
import warnings
from pathlib import Path

import dpcharge
from dpcharge.reporting import TOOL_VERSION

SRC = str(Path(dpcharge.__file__).resolve().parent.parent)


def _run(*args: str) -> subprocess.CompletedProcess:
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": SRC}, timeout=60)


def test_submodule_is_not_shadowed_by_a_function():
    import dpcharge.hunt as m
    from dpcharge import hunt
    assert m is hunt is importlib.import_module("dpcharge.hunt")
    assert callable(hunt.hunt)


def test_python_m_version():
    done = _run("-m", "dpcharge", "--version")
    assert (done.returncode, done.stdout, done.stderr) == (0, "dpcharge 0.1.0\n", "")


def test_cli_import_leaves_the_oracle_unloaded():
    done = _run("-c", "import sys, dpcharge.cli; print('dpcharge.oracle' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_cli_import_leaves_the_thread_pool_unloaded():
    done = _run("-c", "import sys, dpcharge.cli; print('concurrent.futures' in sys.modules)")
    assert (done.returncode, done.stdout) == (0, "False\n")


def test_pyproject_reads_the_version_from_the_package():
    from setuptools.config.pyprojecttoml import read_configuration

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # [tool.setuptools] support is flagged beta
        config = read_configuration(Path(SRC).parent / "pyproject.toml", expand=True)
    assert config["project"]["version"] == TOOL_VERSION


def _sites(test) -> list[str]:
    """``module.function`` of each node of ``src/`` that ``test`` accepts;
    ``module`` alone for a node outside any function."""
    sites = []

    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if test(child):
                sites.append(where)
            inner = isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
            visit(child, f"{where}.{child.name}" if inner else where)

    for path in sorted(Path(SRC, "dpcharge").glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path.stem)
    return sites


def test_only_dump_json_writes_json():
    def writes(node):
        names = ({node.attr} if isinstance(node, ast.Attribute)
                 and isinstance(node.value, ast.Name) and node.value.id == "json"
                 else {a.name for a in node.names}
                 if isinstance(node, ast.ImportFrom) and node.module == "json" else set())
        return bool(names & {"dump", "dumps"})

    assert _sites(writes) == ["reporting.dump_json"]


def test_only_rotfile_imports_hashlib():
    def imports(node):
        return (isinstance(node, ast.Import) and "hashlib" in {a.name for a in node.names}
                or isinstance(node, ast.ImportFrom) and node.module == "hashlib")

    assert _sites(imports) == ["rotfile"]
