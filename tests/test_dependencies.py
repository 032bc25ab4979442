"""numpy is avgcell's only runtime dependency.

Every import in the package's modules must name the standard library,
numpy or avgcell itself; scipy or any other installed package would
otherwise slip in unnoticed.  The switched oracle, which checks the
averaged engine, takes nothing from the engine's modules.
"""

import ast
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "avgcell"
ALLOWED = {"numpy", "avgcell"}


def imported_modules(path):
    """Top-level names of the absolute imports in a source file."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.partition(".")[0]


@pytest.mark.parametrize("path", sorted(PACKAGE.glob("*.py")), ids=lambda p: p.name)
def test_imports_are_stdlib_numpy_or_avgcell(path):
    for name in imported_modules(path):
        assert name in sys.stdlib_module_names or name in ALLOWED, name


def package_modules(path):
    """The avgcell modules a source file imports, relatively or not."""
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.startswith("avgcell."):
                    yield alias.name.split(".")[1]
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if node.level == 0:
                if not module.startswith("avgcell"):
                    continue
                module = module.partition(".")[2]
            if module:
                yield module.partition(".")[0]
            else:  # from . import x, y
                yield from (alias.name for alias in node.names)


def test_oracle_imports_only_errors_and_netlist():
    assert set(package_modules(PACKAGE / "oracle.py")) == {"errors", "netlist"}
