"""The package has no public helper that nothing calls.

Every public module-level function and class in ``src/quasiinv`` is either
named somewhere in the package outside its own definition, named as a
command handler in ``cli.COMMANDS`` (which ``cli.parse_args`` looks up by
module and name), or exported in ``quasiinv.__all__``; every public method
of a public class is named somewhere in the package outside its own
definition.
"""

import ast
from collections import Counter
from pathlib import Path

import quasiinv
from quasiinv import cli

PACKAGE = Path(quasiinv.__file__).parent


def _modules():
    return {path.name: ast.parse(path.read_text(encoding="utf-8"))
            for path in sorted(PACKAGE.glob("*.py"))}


def _public_defs(tree):
    return [node for node in tree.body
            if isinstance(node, (ast.FunctionDef, ast.ClassDef))
            and not node.name.startswith("_")]


def _names(node):
    """Every name and attribute mentioned under ``node``."""
    return [n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))]


def test_every_public_definition_is_used_or_exported():
    modules = _modules()
    everywhere = Counter(name for tree in modules.values() for name in _names(tree))
    everywhere.update(name for _, (_, name), _ in cli.COMMANDS.values())
    unused = [f"{filename}:{node.name}"
              for filename, tree in modules.items()
              for node in _public_defs(tree)
              if node.name not in quasiinv.__all__
              and everywhere[node.name] == _names(node).count(node.name)]
    assert not unused, f"public but unused: {unused}"


def test_every_public_method_is_used():
    modules = _modules()
    everywhere = Counter(name for tree in modules.values() for name in _names(tree))
    unused = [f"{filename}:{cls.name}.{node.name}"
              for filename, tree in modules.items()
              for cls in _public_defs(tree) if isinstance(cls, ast.ClassDef)
              for node in _public_defs(cls)
              if everywhere[node.name] == _names(node).count(node.name)]
    assert not unused, f"public but unused: {unused}"


def test_scan_sees_every_module():
    names = set(_modules())
    assert {"brackets.py", "cli.py", "exactalg.py", "hookbasis.py", "quasi.py",
            "structure.py", "symgroup.py", "tableaux.py", "verify.py"} <= names
