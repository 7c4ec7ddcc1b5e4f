"""Module layering and start-up cost.

Each module imports at its top level only the layers below it, and each
CLI command loads only the modules it calls: the package's exports, the
CLI's subcommands and the verify suites import their modules on first
use.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import quasiinv

PACKAGE = Path(quasiinv.__file__).parent

# module -> the package modules it may import at its top level;
# "__init__" is the package itself
ALLOWED = {
    "__init__": set(),
    "__main__": {"cli"},
    "exactalg": set(),
    "symgroup": {"exactalg"},
    "tableaux": {"symgroup", "exactalg"},
    "quasi": {"exactalg"},
    "jsonio": {"exactalg"},
    "hookbasis": {"exactalg", "symgroup"},
    "calogero": {"exactalg", "hookbasis"},
    "structure": {"exactalg", "quasi", "tableaux"},
    "verify": {"__init__"},
    "cli": {"__init__", "jsonio"},
}


def _tree(module):
    return ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))


def top_level_imports(module):
    """The package modules ``module`` imports in its top-level statements.
    ``from . import x`` counts as module x when x is one, else as the
    package itself."""
    found = set()
    for node in _tree(module).body:
        if isinstance(node, ast.ImportFrom) and node.level == 1:
            if node.module:
                found.add(node.module)
            else:
                found |= {a.name if (PACKAGE / f"{a.name}.py").is_file()
                          else "__init__" for a in node.names}
    return found


def test_table_covers_every_module():
    assert {path.stem for path in PACKAGE.glob("*.py")} == set(ALLOWED)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_top_level_imports_follow_the_layers(module):
    assert top_level_imports(module) <= ALLOWED[module]


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_no_dataclasses(module):
    imported = {alias.name for node in ast.walk(_tree(module))
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(_tree(module))
                 if isinstance(node, ast.ImportFrom)}
    assert "dataclasses" not in imported


LOADED = """
import os, sys
sys.path.insert(0, {src!r})
from quasiinv.cli import main
code = main({argv!r} + ["--out", os.devnull])
print(code, " ".join(sorted(sys.modules)))
"""


def modules_after(*argv):
    """sys.modules after ``cli.main(argv)`` in a fresh interpreter without
    site, so nothing but the command itself has been imported."""
    script = LOADED.format(src=str(PACKAGE.parent), argv=list(argv))
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    code, names = proc.stdout.split(" ", 1)
    assert code == "0"
    return set(names.split())


def test_oracle_loads_only_its_layers():
    loaded = modules_after("oracle", "--n", "3", "--m", "1", "--d", "2")
    assert {"quasiinv.cli", "quasiinv.jsonio", "quasiinv.exactalg",
            "quasiinv.quasi"} <= loaded
    for name in ("tableaux", "symgroup", "structure", "hookbasis", "calogero",
                 "verify"):
        assert f"quasiinv.{name}" not in loaded
    assert "dataclasses" not in loaded


def test_detcheck_loads_no_construction():
    loaded = modules_after("detcheck", "--m", "0")
    assert {"quasiinv.structure", "quasiinv.tableaux",
            "quasiinv.symgroup"} <= loaded
    for name in ("hookbasis", "calogero", "verify"):
        assert f"quasiinv.{name}" not in loaded
    assert "dataclasses" not in loaded


def test_verify_lm_loads_no_projector():
    loaded = modules_after("verify", "--suite", "lm", "--n", "3", "--m", "1")
    assert {"quasiinv.verify", "quasiinv.calogero", "quasiinv.hookbasis",
            "quasiinv.exactalg"} <= loaded
    for name in ("quasi", "structure", "tableaux", "symgroup"):
        assert f"quasiinv.{name}" not in loaded
    assert "random" not in loaded


def test_verify_groupalgebra_loads_only_its_layers():
    loaded = modules_after("verify", "--suite", "groupalgebra", "--n", "3",
                           "--seed", "1")
    assert {"quasiinv.verify", "quasiinv.quasi", "quasiinv.tableaux",
            "quasiinv.symgroup", "random"} <= loaded
    for name in ("structure", "calogero"):
        assert f"quasiinv.{name}" not in loaded


@pytest.mark.parametrize("name", quasiinv.__all__)
def test_export_is_its_home_object(name):
    value = getattr(quasiinv, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("quasiinv.")
    assert getattr(home, name) is value


def test_package_namespace():
    assert set(quasiinv.__all__) <= set(dir(quasiinv))
    assert quasiinv.__version__ == "1.0.0"
    namespace = {}
    exec("from quasiinv import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(quasiinv.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        quasiinv.no_such_name
