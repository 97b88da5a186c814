"""The package's own promises about itself."""

import ast
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted((ROOT / "src" / "kingmesh").glob("*.py"))


def test_every_import_is_the_standard_library_or_the_package():
    # the package declares no dependencies: an import of numpy, say, would
    # pass every test on a machine that has it, so read the imports, those
    # inside functions too
    outside = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                if top != "kingmesh" and top not in sys.stdlib_module_names:
                    outside.add((path.name, name))
    assert len(MODULES) > 5 and not outside


def test_the_package_declares_no_dependencies():
    tomllib = pytest.importorskip("tomllib")
    pyproject = tomllib.loads((ROOT / "pyproject.toml").read_text())
    assert pyproject["project"]["dependencies"] == []
