"""The package holds only what a run uses.

Every top-level function, class and method in ``src/managed_tokens`` must be
named somewhere in the program: ``src/``, ``scripts/`` or ``perfbench/``
outside its tests, as a name, an attribute or an import. Otherwise it is on
``ALLOWED`` with the reason it stays. The check is by name, so a definition
that shares its name with some other use passes; dunder methods are called
by Python itself and are not checked.
"""

from __future__ import annotations

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "managed_tokens"

ALLOWED = {
    "cli.main_refresh_uids": "an entry point, named only in pyproject.toml",
    "simkit.FixedClock": "tests/test_acceptance.py drives runs with it",
    "simkit.InvocationLog.canonical": "tests/test_acceptance.py compares logs with it",
    "statestore.Store.lookup_uid": "tests/test_acceptance.py reads UIDs through it",
    "simkit.hang": "part of the fault-schedule vocabulary, beside succeed, fail and delay",
}


def program_files() -> list[Path]:
    perfbench = ROOT / "perfbench"
    return [*PACKAGE.glob("*.py"), *(ROOT / "scripts").glob("*.py"),
            *(path for path in perfbench.rglob("*.py")
              if "tests" not in path.relative_to(perfbench).parts)]


def used_names() -> set[str]:
    names = set()
    for path in program_files():
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Name):
                names.add(node.id)
            elif isinstance(node, ast.Attribute):
                names.add(node.attr)
            elif isinstance(node, ast.alias):
                names.add(node.name.rpartition(".")[2])
    return names


def definitions() -> dict[str, str]:
    """``module.name`` or ``module.Class.method`` -> the defined name."""
    defined = {}
    functions = (ast.FunctionDef, ast.AsyncFunctionDef)
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if not isinstance(node, (*functions, ast.ClassDef)):
                continue
            defined[f"{path.stem}.{node.name}"] = node.name
            for item in node.body if isinstance(node, ast.ClassDef) else ():
                if isinstance(item, functions) and not item.name.startswith("__"):
                    defined[f"{path.stem}.{node.name}.{item.name}"] = item.name
    return defined


def test_every_definition_is_used_or_allowed():
    used = used_names()
    unused = [qualified for qualified, name in definitions().items()
              if name not in used and qualified not in ALLOWED]
    assert unused == []


def test_every_allowed_entry_is_defined_and_otherwise_unused():
    defined, used = definitions(), used_names()
    stale = [qualified for qualified in ALLOWED
             if qualified not in defined or defined[qualified] in used]
    assert stale == []
