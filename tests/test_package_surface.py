"""The package holds no public code that only tests reach.

Every public, undecorated top-level function or class of `src/racklab` must be
referenced, as a name or an attribute, by some package module other than
`__init__.py`, which only re-exports.  The exceptions are the independent
oracles and the documented export round trip, which the tests compare the
library against or which users call directly.
"""

from __future__ import annotations

import ast
from pathlib import Path

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
