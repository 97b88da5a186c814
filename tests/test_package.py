"""The package's own promises about itself."""

import ast
import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import kingmesh

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


def run_fresh(code: str) -> str:
    """Run code in a fresh interpreter and return its stdout."""
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env,
                          timeout=50, check=True)
    return done.stdout


# the kingmesh modules each command loads besides cli: kings for the parser,
# and then only what the command runs; ORACLE is the oracle and its imports
ORACLE = {"kings", "series", "mesh", "oracle"}
LOADED = {
    "--help": {"kings"},
    "count --n 5": {"kings"},
    "list --n 5": {"kings"},
    "dist --pattern nr:16 --n-max 4": ORACLE,
    "dist --pattern nr:X --n-max 4": ORACLE | {"transfer"},  # a single's rows come by state
    "series --name A --order 5": {"kings", "series", "gfs"},
    "verify --equation EQ_B": ORACLE | {"gfs", "verify"},
    "verify --all --order 8 --n-max 4": ORACLE | {"gfs", "verify", "transfer"},
}


@pytest.mark.parametrize("argv", list(LOADED))
def test_each_command_loads_only_the_modules_it_runs(argv):
    code = (
        "import contextlib, io, sys\nfrom kingmesh import cli\n"
        "with contextlib.redirect_stdout(io.StringIO()):\n"
        f"    code = cli.main({argv.split()!r})\n"
        "print(code, sorted(name for name in sys.modules if name.startswith('kingmesh.')))\n"
    )
    expected = sorted(f"kingmesh.{name}" for name in LOADED[argv] | {"cli"})
    assert run_fresh(code) == f"0 {expected}\n"


def test_importing_the_package_loads_no_module():
    code = (
        "import sys\nimport kingmesh\n"
        "print(kingmesh.__version__, sorted(name for name in sys.modules if 'kingmesh' in name))\n"
        "from kingmesh import cli, gfs, kings, mesh, oracle, verify\n"
        "print([module.__name__ for module in (cli, gfs, kings, mesh, oracle, verify)])\n"
    )
    modules = [f"kingmesh.{name}" for name in ("cli", "gfs", "kings", "mesh", "oracle", "verify")]
    assert run_fresh(code) == f"0.1.0 ['kingmesh']\n{modules}\n"


def test_every_public_name_is_the_object_of_its_home_module():
    for name in kingmesh.__all__:
        value = getattr(kingmesh, name)
        home = value.__module__
        assert home.startswith("kingmesh.") and getattr(sys.modules[home], name) is value, name
    assert set(kingmesh.__all__) <= set(dir(kingmesh))


def test_a_star_import_binds_every_public_name():
    namespace: dict = {}
    exec("from kingmesh import *", namespace)
    assert all(namespace[name] is getattr(kingmesh, name) for name in kingmesh.__all__)


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="module 'kingmesh' has no attribute 'count'"):
        kingmesh.count
    with pytest.raises(ImportError, match="cannot import name 'count'"):
        from kingmesh import count  # noqa: F401


def test_every_package_name_the_benchmark_trace_wraps_exists():
    # perfbench/traced.py skips a name the package no longer has, and that
    # layer then reads 0 with no error; the names are read from the file, so
    # that its tables stay the one list of them
    tree = ast.parse((ROOT / "perfbench" / "traced.py").read_text())
    modules = {
        alias.name for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.module == "kingmesh" for alias in node.names
    }
    tables = {
        target.id: ast.literal_eval(node.value) for node in tree.body if isinstance(node, ast.Assign)
        for target in node.targets if getattr(target, "id", None) in ("GFS_FUNCTIONS", "FAMILY_CHECKS")
    }
    wrapped = {
        (node.value.id, node.attr) for node in ast.walk(tree)
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
        and node.value.id in modules
    }
    wrapped |= {("gfs", name) for name in tables["GFS_FUNCTIONS"]}
    wrapped |= {("verify", name) for name in tables["FAMILY_CHECKS"]}
    assert {
        ("kings", "enumerate_kings"), ("kings", "count_kings"), ("mesh", "occurrence_counts"),
        ("mesh", "avoids"), ("oracle", "distribution_tables"), ("cli", "_emit_json"),
    } <= wrapped
    missing = [
        f"{module}.{name}" for module, name in sorted(wrapped)
        if not hasattr(importlib.import_module(f"kingmesh.{module}"), name)
    ]
    assert not missing
