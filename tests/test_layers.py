"""Module layering and start-up cost.

Each module imports at its top level only the layers below it, and each
CLI command loads only the modules it calls: the package's exports, the
CLI's subcommands, the verify suites and the projector functions of
``tableaux`` import their modules on first use.  ``COMMANDS`` pins the
exact module set of every subcommand, ``apply`` operation and ``verify``
suite.
"""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import quasiinv
from quasiinv import cli, jsonio
from quasiinv.exactalg import elementary_symmetric

PACKAGE = Path(quasiinv.__file__).parent

# module -> the package modules it may import at its top level;
# "__init__" is the package itself
ALLOWED = {
    "__init__": set(),
    "__main__": {"cli"},
    "exactalg": set(),
    "symgroup": {"exactalg"},
    "tableaux": {"exactalg"},
    "quasi": {"exactalg"},
    "jsonio": {"exactalg"},
    "hookbasis": {"exactalg"},
    "calogero": {"exactalg", "hookbasis"},
    "structure": {"exactalg", "tableaux"},
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


def imported_modules(module):
    """Every module ``module`` names in an import statement, at any depth."""
    imported = {alias.name for node in ast.walk(_tree(module))
                if isinstance(node, ast.Import) for alias in node.names}
    imported |= {node.module for node in ast.walk(_tree(module))
                 if isinstance(node, ast.ImportFrom)}
    return imported


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_no_dataclasses(module):
    assert "dataclasses" not in imported_modules(module)


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_no_random(module):
    # every check is exact; no module draws random input
    assert "random" not in imported_modules(module)


def _names_assertion_error(node):
    if isinstance(node, ast.Call):
        node = node.func
    if isinstance(node, ast.Tuple):
        return any(_names_assertion_error(e) for e in node.elts)
    return isinstance(node, ast.Name) and node.id == "AssertionError"


@pytest.mark.parametrize("module", sorted(ALLOWED))
def test_no_assertion_error(module):
    # a failed identity raises TheoremViolationError, which cli.main reports;
    # a bare assert or AssertionError would escape it as a traceback
    for node in ast.walk(_tree(module)):
        assert not isinstance(node, ast.Assert), node.lineno
        if isinstance(node, ast.Raise):
            assert not _names_assertion_error(node.exc), node.lineno
        if isinstance(node, ast.ExceptHandler):
            assert not _names_assertion_error(node.type), node.lineno


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


# command -> the package modules it loads besides cli, jsonio and exactalg,
# which every command loads; "{poly}" stands for a JSON polynomial file
COMMANDS = [
    (("oracle", "--n", "3", "--m", "1", "--d", "2"), {"quasi"}),
    (("detcheck", "--m", "0"), {"quasi"}),
    (("hilbert", "--n", "3", "--m", "1", "--D", "4", "--oracle"),
     {"quasi", "structure", "tableaux"}),
    (("hilbert", "--n", "3", "--m", "1", "--D", "4"), {"structure", "tableaux"}),
    (("basis", "--n", "3", "--m", "1", "--j", "2", "--verify"), {"hookbasis"}),
    (("apply", "--op", "gamma", "--in", "{poly}", "--shape", "2,1", "--j", "2"),
     {"tableaux", "symgroup"}),
    (("apply", "--op", "lm", "--in", "{poly}", "--m", "1"),
     {"calogero", "hookbasis"}),
    (("apply", "--op", "perm", "--in", "{poly}", "--sigma", "(1,2)"),
     {"symgroup"}),
    (("apply", "--op", "delta2", "--in", "{poly}", "--m", "0"), {"quasi"}),
    (("verify", "--suite", "groupalgebra", "--n", "3", "--seed", "1"),
     {"verify", "quasi", "tableaux", "symgroup"}),
    (("verify", "--suite", "thm-main", "--n", "3", "--m", "1"),
     {"verify", "quasi", "structure", "tableaux", "symgroup"}),
    (("verify", "--suite", "hook", "--n", "3", "--m", "1"),
     {"verify", "hookbasis", "quasi", "structure", "tableaux", "symgroup"}),
    (("verify", "--suite", "lm", "--n", "3", "--m", "1"),
     {"verify", "calogero", "hookbasis"}),
    (("verify", "--suite", "chain", "--n", "3", "--m", "1"),
     {"verify", "quasi", "structure", "tableaux"}),
    (("verify", "--suite", "all", "--n", "3", "--m", "1", "--seed", "1"),
     {"verify", "calogero", "hookbasis", "quasi", "structure", "tableaux",
      "symgroup"}),
]


@pytest.mark.parametrize("argv, modules", COMMANDS,
                         ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_command_loads_exactly_its_modules(tmp_path, argv, modules):
    poly = tmp_path / "p.json"
    poly.write_text(jsonio.dumps(jsonio.poly_to_obj(elementary_symmetric(3, 1))))
    loaded = modules_after(*(str(poly) if a == "{poly}" else a for a in argv))
    package = {name.removeprefix("quasiinv.") for name in loaded
               if name.startswith("quasiinv.")}
    assert package == modules | {"cli", "jsonio", "exactalg"}
    assert "dataclasses" not in loaded
    assert "random" not in loaded


def _choices(parser, dest):
    return next(a.choices for a in parser._actions if a.dest == dest)


def test_table_covers_every_command_op_and_suite():
    commands = _choices(cli.build_parser(), "command")
    assert {argv[0] for argv, _ in COMMANDS} == set(commands)
    for command, dest in (("apply", "op"), ("verify", "suite")):
        assert ({argv[2] for argv, _ in COMMANDS if argv[0] == command}
                == set(_choices(commands[command], dest)))


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
