"""Every private module-level name in the package is used by the program.

A module-level ``_name`` defined in ``src/rydpol/*.py`` must be loaded, as a
``Name`` or as an ``Attribute``, by code in ``src/rydpol`` or ``scripts/``.
Docstrings and comments are not code, and tests do not count: a helper only
tests call is code that no pipeline, CLI command or study uses.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "rydpol"


def _trees(*directories):
    return {path: ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
            for directory in directories for path in sorted(directory.glob("*.py"))}


def _defined(tree):
    """Private names bound by a module's top-level statements (dunders aside)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(target.id for target in targets if isinstance(target, ast.Name))
    return {name for name in names if name.startswith("_") and not name.endswith("__")}


def _loaded(tree):
    """Names the code of one module reads, bare or as an attribute."""
    names = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            names.add(node.id)
        elif isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load):
            names.add(node.attr)
    return names


def test_every_private_name_is_loaded_by_the_program():
    package = _trees(PACKAGE)
    loaded = set().union(*map(_loaded, _trees(PACKAGE, ROOT / "scripts").values()))
    unused = sorted(f"{path.stem}.{name}" for path, tree in package.items()
                    for name in _defined(tree) - loaded)
    assert not unused, f"private names no program code loads: {unused}"
