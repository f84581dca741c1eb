"""The package holds no public code that only tests reach, and each module
loads only what it imports.

Every public, undecorated top-level function or class of `src/racklab` must be
referenced, as a name or an attribute, by some package module other than
`__init__.py`, which holds only its docstring.  The exceptions are the
independent oracles and the documented export round trip, which the tests
compare the library against or which users call directly.

Importing one module loads the package and the modules that its module-level
relative imports reach, and no other: a name re-exported from `__init__.py`
would load its module with every other.
"""

from __future__ import annotations

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "racklab"

ALLOWED = {
    "partitions.partition_lattice",  # the by-definition oracle of k_equal_lattice
    "lattice.export_lattice_text",  # the export format the README documents
    "lattice.load_lattice_export",  # and its validating loader
}


def unreferenced_public_names(root: Path) -> set[str]:
    """`module.name` of every public, undecorated top-level function or class
    that no module but `__init__` names."""
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in sorted(root.glob("*.py"))}
    used = set()
    for stem, tree in modules.items():
        if stem == "__init__":
            continue
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return {
        f"{stem}.{node.name}"
        for stem, tree in modules.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
        and not node.name.startswith("_")
        and not node.decorator_list
        and node.name not in used
    }


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced_public_names(PACKAGE) - ALLOWED == set()


def test_every_allowed_name_exists_and_has_no_other_caller():
    # an allowed name that gains a caller, or is deleted, leaves the list
    assert unreferenced_public_names(PACKAGE) >= ALLOWED


def test_a_planted_unreferenced_function_is_found(tmp_path):
    for p in PACKAGE.glob("*.py"):
        (tmp_path / p.name).write_text(p.read_text(encoding="utf-8"), encoding="utf-8")
    with open(tmp_path / "lattice.py", "a", encoding="utf-8") as fh:
        fh.write("\n\ndef planted(x):\n    return x\n")
    assert unreferenced_public_names(tmp_path) - ALLOWED == {"lattice.planted"}


def import_closure(root: Path, stem: str) -> set[str]:
    """`stem` and every module of `root` that its module-level relative
    imports reach, transitively, read off the sources."""
    seen, todo = set(), [stem]
    while todo:
        name = todo.pop()
        if name in seen:
            continue
        seen.add(name)
        for node in ast.parse((root / f"{name}.py").read_text(encoding="utf-8")).body:
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                # `from .x import a` imports x; `from . import x, y` imports x and y
                todo += [node.module] if node.module else [a.name for a in node.names]
    return seen


MODULES = sorted(p.stem for p in PACKAGE.glob("*.py") if p.stem != "__init__")


@pytest.mark.parametrize("stem", MODULES)
def test_importing_a_module_loads_exactly_its_imports(stem):
    code = ("import sys, racklab." + stem + "\n"
            "print(*sorted(m for m in sys.modules if m.split('.')[0] == 'racklab'))")
    env = dict(os.environ, PYTHONPATH=str(PACKAGE.parent))
    run = subprocess.run([sys.executable, "-W", "error", "-c", code], env=env,
                         capture_output=True, text=True, check=True)
    want = {"racklab"} | {f"racklab.{m}" for m in import_closure(PACKAGE, stem)}
    assert set(run.stdout.split()) == want

