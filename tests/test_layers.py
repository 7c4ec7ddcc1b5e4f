"""Module layering and start-up cost.

Each module imports at its top level only the layers below it, and each
CLI command loads only the modules it calls: the package's exports, the
CLI's command handlers, the verify suites, the functions of ``tableaux``
that build group-algebra elements and the quasiinvariance predicate's
fold import their modules on first use.  ``COMMANDS`` pins the exact
module set of every subcommand, ``apply`` operation and ``verify`` suite,
and the invariants below pin that none of them loads ``fractions`` (with
``decimal`` and ``numbers``) or ``argparse`` (with ``gettext`` and
``locale``), which of them load ``json``, ``symgroup``, ``quasi``,
``symbasis`` and the transposition kernel ``brackets``, that ``hilbert``
loads no Young projector, that each command's handler lives in a module
the command loads anyway, and that help and usage errors load no handler.
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
    "brackets": set(),
    "symgroup": {"exactalg", "brackets"},
    "young": {"exactalg"},
    "tableaux": {"exactalg", "brackets", "young"},
    "predicate": {"exactalg"},
    "quasi": {"exactalg", "predicate"},
    "symbasis": {"exactalg", "predicate", "quasi"},
    "jsonio": {"exactalg"},
    "hookbasis": {"exactalg"},
    "calogero": {"exactalg"},
    "structure": {"exactalg", "young"},
    "verify": {"__init__"},
    "cli": {"__init__", "exactalg"},
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
def test_no_atexit(module):
    # cli.console_entry ends the process with os._exit, which runs no
    # exit handler
    assert "atexit" not in imported_modules(module)


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
try:
    code = main({argv!r} + ["--out", os.devnull])
except SystemExit as exc:
    code = exc.code
print(code, " ".join(sorted(sys.modules)))
"""


def modules_after(*argv, code=0):
    """sys.modules after ``cli.main(argv)`` in a fresh interpreter without
    site, so nothing but the command itself has been imported; the command
    must end with exit code ``code``, returned or raised by SystemExit."""
    script = LOADED.format(src=str(PACKAGE.parent), argv=list(argv))
    proc = subprocess.run([sys.executable, "-S", "-c", script],
                          capture_output=True, text=True, check=True)
    got, names = proc.stdout.splitlines()[-1].split(" ", 1)
    assert got == str(code)
    return set(names.split())


# command -> the package modules it loads besides cli and exactalg, which
# every command loads; "{poly}" stands for a JSON polynomial file
COMMANDS = [
    (("oracle", "--n", "3", "--m", "1", "--d", "2"), {"jsonio", "predicate", "quasi"}),
    (("detcheck", "--m", "0"), {"brackets", "jsonio", "predicate", "quasi", "symbasis"}),
    (("hilbert", "--n", "3", "--m", "1", "--D", "4", "--oracle"),
     {"jsonio", "predicate", "quasi", "structure", "young"}),
    (("hilbert", "--n", "3", "--m", "1", "--D", "4"),
     {"jsonio", "structure", "young"}),
    (("basis", "--n", "3", "--m", "1", "--j", "2", "--verify"),
     {"jsonio", "hookbasis"}),
    (("apply", "--op", "gamma", "--in", "{poly}", "--shape", "2,1", "--j", "2"),
     {"brackets", "jsonio", "tableaux", "young"}),
    (("apply", "--op", "lm", "--in", "{poly}", "--m", "1"),
     {"jsonio", "calogero"}),
    (("apply", "--op", "perm", "--in", "{poly}", "--sigma", "(1,2)"),
     {"brackets", "jsonio", "symgroup"}),
    (("apply", "--op", "delta2", "--in", "{poly}", "--m", "0"),
     {"brackets", "jsonio", "predicate"}),
    (("verify", "--suite", "groupalgebra", "--n", "3", "--seed", "1"),
     {"verify", "brackets", "predicate", "quasi", "tableaux", "symgroup", "young"}),
    (("verify", "--suite", "thm-main", "--n", "3", "--m", "1"),
     {"verify", "brackets", "predicate", "quasi", "structure", "tableaux", "young"}),
    (("verify", "--suite", "hook", "--n", "3", "--m", "1"),
     {"verify", "brackets", "hookbasis", "predicate", "tableaux", "young"}),
    (("verify", "--suite", "lm", "--n", "3", "--m", "1"),
     {"verify", "calogero", "hookbasis"}),
    (("verify", "--suite", "chain", "--n", "3", "--m", "1"),
     {"verify", "brackets", "predicate", "quasi", "structure", "symbasis", "young"}),
    (("verify", "--suite", "all", "--n", "3", "--m", "1", "--seed", "1"),
     {"verify", "brackets", "calogero", "hookbasis", "predicate", "quasi",
      "structure", "symbasis", "tableaux", "symgroup", "young"}),
]


@pytest.fixture(scope="module")
def loaded(tmp_path_factory):
    """argv -> sys.modules after the command, each command run once."""
    poly = tmp_path_factory.mktemp("apply") / "p.json"
    poly.write_text(jsonio.dumps(jsonio.poly_to_obj(elementary_symmetric(3, 1))))
    runs = {}

    def modules(argv):
        if argv not in runs:
            runs[argv] = modules_after(*(str(poly) if a == "{poly}" else a
                                         for a in argv))
        return runs[argv]

    return modules


@pytest.mark.parametrize("argv, modules", COMMANDS,
                         ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_command_loads_exactly_its_modules(loaded, argv, modules):
    names = loaded(argv)
    package = {name.removeprefix("quasiinv.") for name in names
               if name.startswith("quasiinv.")}
    assert package == modules | {"cli", "exactalg"}
    assert "dataclasses" not in names
    assert "random" not in names


def rows_loading(loaded, module):
    """The COMMANDS rows whose run loads ``module``, each keyed by its whole
    argv joined by spaces, as in the test ids."""
    return {" ".join(argv) for argv, _ in COMMANDS if module in loaded(argv)}


@pytest.mark.parametrize("module", ["fractions", "decimal", "numbers",
                                    "argparse", "gettext", "locale"])
def test_no_command_loads_fractions(loaded, module):
    # the kernel runs on ints, and JSON input is read on ints too; the CLI
    # reads argv from its own option table
    assert not rows_loading(loaded, module)


def test_verify_loads_no_json(loaded):
    # verify prints plain text
    assert not {row for row in rows_loading(loaded, "json") if row.startswith("verify ")}


def test_only_permutations_and_group_algebra_load_symgroup(loaded):
    # the projector's transposition kernel lives in brackets, so gamma_T
    # acts on polynomials without the group algebra
    assert rows_loading(loaded, "quasiinv.symgroup") == {
        "apply --op perm --in {poly} --sigma (1,2)",
        "verify --suite groupalgebra --n 3 --seed 1",
        "verify --suite all --n 3 --m 1 --seed 1"}


def test_only_elimination_loads_quasi(loaded):
    # the quasiinvariance predicate and the membership test live in
    # predicate and tableaux, so only the commands that run the oracle or
    # its elimination core compile quasi: hilbert only with --oracle
    assert rows_loading(loaded, "quasiinv.quasi") == {
        "oracle --n 3 --m 1 --d 2", "detcheck --m 0",
        "hilbert --n 3 --m 1 --D 4 --oracle",
        "verify --suite groupalgebra --n 3 --seed 1",
        "verify --suite thm-main --n 3 --m 1",
        "verify --suite chain --n 3 --m 1",
        "verify --suite all --n 3 --m 1 --seed 1"}


def test_only_projectors_permutations_and_the_predicate_load_brackets(loaded):
    # the transposition kernel is compiled by the Young projectors, the
    # group algebra and the predicate's fold only: the oracle takes its
    # constraint rows from predicate without the fold, the Hilbert series
    # reads tableau statistics alone, and the hook basis and L_m run on
    # exactalg alone
    assert rows_loading(loaded, "quasiinv.brackets") == {
        "detcheck --m 0",
        "apply --op gamma --in {poly} --shape 2,1 --j 2",
        "apply --op perm --in {poly} --sigma (1,2)",
        "apply --op delta2 --in {poly} --m 0",
        "verify --suite groupalgebra --n 3 --seed 1",
        "verify --suite thm-main --n 3 --m 1",
        "verify --suite hook --n 3 --m 1",
        "verify --suite chain --n 3 --m 1",
        "verify --suite all --n 3 --m 1 --seed 1"}


def test_hilbert_loads_no_projector(loaded):
    # the series is read off the tableau statistics of young, and the
    # oracle check adds only the elimination core
    for argv in (("hilbert", "--n", "3", "--m", "1", "--D", "4"),
                 ("hilbert", "--n", "3", "--m", "1", "--D", "4", "--oracle")):
        assert not loaded(argv) & {"quasiinv.tableaux", "quasiinv.brackets",
                                   "quasiinv.symgroup"}


def test_only_detcheck_and_the_chain_load_symbasis(loaded):
    # the Sym-basis checks build on the oracle but no other command runs them
    assert rows_loading(loaded, "quasiinv.symbasis") == {
        "detcheck --m 0",
        "verify --suite chain --n 3 --m 1",
        "verify --suite all --n 3 --m 1 --seed 1"}


@pytest.mark.parametrize("argv", [argv for argv, _ in COMMANDS],
                         ids=[" ".join(argv) for argv, _ in COMMANDS])
def test_handler_lives_in_a_module_the_command_loads(loaded, argv):
    # the handler adds no module to its command's set; parse_args reads no
    # file, so the "{poly}" placeholder stands as it is
    assert cli.parse_args(list(argv)).func.__module__ in loaded(argv)


def test_cli_holds_no_handler():
    assert not [name for name in vars(cli) if name.startswith("cmd_")]


HANDLER_MODULES = {f"quasiinv.{module}" for _, (module, _), _ in cli.COMMANDS.values()}


@pytest.mark.parametrize("argv, code", [(("--help",), 0), (("verify", "-h"), 0),
                                        (("detcheck",), 2)],
                         ids=["--help", "verify -h", "usage error"])
def test_help_and_usage_errors_load_no_handler(argv, code):
    assert not modules_after(*argv, code=code) & HANDLER_MODULES


def test_table_covers_every_command_op_and_suite():
    assert {argv[0] for argv, _ in COMMANDS} == set(cli.COMMANDS)
    for command, dest in (("apply", "op"), ("verify", "suite")):
        choices = next(option[4] for option in cli.COMMANDS[command][2]
                       if option[1] == dest)
        assert {argv[2] for argv, _ in COMMANDS if argv[0] == command} == set(choices)


@pytest.mark.parametrize("name", quasiinv.__all__)
def test_export_is_its_home_object(name):
    value = getattr(quasiinv, name)
    home = importlib.import_module(value.__module__)
    assert home.__name__.startswith("quasiinv.")
    assert getattr(home, name) is value


# names the benchmark reads from the package by module and name: the
# output checks of perfbench/run.py import the first three, and the
# tracer of perfbench/launcher.py wraps the rest, so a move that drops one
# fails every benchmark run
BENCHMARK_NAMES = [
    ("tableaux", "Tableau"), ("tableaux", "gamma"), ("jsonio", "poly_from_obj"),
    ("structure", "full_hilbert"), ("quasi", "graded_dimension_oracle"),
    ("quasi", "_constraint_rows"), ("quasi", "integer_nullspace"),
    ("quasi", "poly_rank"),
]


@pytest.mark.parametrize("module, name", BENCHMARK_NAMES,
                         ids=[".".join(pair) for pair in BENCHMARK_NAMES])
def test_benchmark_names_resolve(module, name):
    assert callable(getattr(importlib.import_module(f"quasiinv.{module}"), name))


def test_package_namespace():
    assert set(quasiinv.__all__) <= set(dir(quasiinv))
    assert quasiinv.__version__ == "1.0.0"
    namespace = {}
    exec("from quasiinv import *", namespace)
    assert {k for k in namespace if k != "__builtins__"} == set(quasiinv.__all__)
    with pytest.raises(AttributeError, match="no_such_name"):
        quasiinv.no_such_name
