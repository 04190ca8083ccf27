"""No source file of the package imports a name it does not use, and every
module-level function or class, and every non-dunder method or assigned
class member, is referenced somewhere in the package beyond its own
definition: code that nothing reaches is deleted, not left for its own unit
test.  A public name listed in __all__ but called only by tests counts as
unreached, unless it is one of the named cross-checks and entry points in
KEPT_PUBLIC."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import qcells

SOURCES = sorted(Path(qcells.__file__).parent.glob("*.py"))
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in SOURCES}


def _referenced(tree: ast.AST, *skip: ast.AST | None) -> set[str]:
    """Names read in tree, outside the subtrees skip: bare names, attributes,
    quoted annotations and the strings of __all__."""
    skipped = {id(node) for s in skip if s is not None for node in ast.walk(s)}
    names: set[str] = set()
    for node in ast.walk(tree):
        if id(node) in skipped:
            continue
        if isinstance(node, ast.Name):
            names.add(node.id)
        elif isinstance(node, ast.Attribute):
            names.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            # a quoted annotation such as "RationalFunctions | _Shadow", or an __all__ entry
            try:
                quoted = ast.parse(node.value, mode="eval")
            except SyntaxError:
                continue
            names |= {n.id for n in ast.walk(quoted) if isinstance(n, ast.Name)}
    return names


@pytest.mark.parametrize("name", sorted(TREES))
def test_no_unused_import(name):
    tree = TREES[name]
    used = _referenced(tree)
    unused = []
    for node in tree.body:
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                if bound not in used:
                    unused.append((bound, node.lineno))
    assert not unused, f"{name} imports names it never uses: {unused}"


@pytest.mark.parametrize("name", sorted(TREES))
def test_private_definitions_are_referenced(name):
    unreached = []
    for node in TREES[name].body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            continue
        if not any(
            node.name in _referenced(tree, node if other == name else None)
            for other, tree in TREES.items()
        ):
            unreached.append((node.name, node.lineno))
    assert not unreached, f"{name} defines private names nothing references: {unreached}"


# Public names that nothing in the package calls, kept on purpose: the
# acceptance battery's independent cross-checks and the library's entry
# points.
KEPT_PUBLIC = {
    "build_module",
    "theorem_instance",
    "braid_T",
    "extremal_by_braid",
    "serre_element",
    "minor_representative",
    "ore_commutation_check",
    "gauss_product",
}


def _exports(tree: ast.AST) -> list[ast.AST]:
    """The __all__ assignments of a module, whose strings only list names."""
    return [
        node
        for node in tree.body
        if isinstance(node, ast.Assign)
        and any(isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets)
    ]


@pytest.mark.parametrize("name", sorted(TREES))
def test_public_definitions_are_referenced(name):
    """Every public module-level function or class is referenced somewhere
    in the package beyond its own definition and the __all__ lists, or is
    one of KEPT_PUBLIC."""
    unreached = []
    for node in TREES[name].body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if node.name.startswith("_") or node.name in KEPT_PUBLIC:
            continue
        if not any(
            node.name in _referenced(tree, node if other == name else None, *_exports(tree))
            for other, tree in TREES.items()
        ):
            unreached.append((node.name, node.lineno))
    assert not unreached, f"{name} defines public names only tests reach: {unreached}"


def test_kept_public_names_exist_and_are_unreached():
    """KEPT_PUBLIC names only definitions that exist and that nothing in the
    package references, so the list does not outlive its reasons."""
    defined = {
        node.name: name
        for name, tree in TREES.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.ClassDef))
    }
    assert KEPT_PUBLIC <= set(defined)
    for kept in KEPT_PUBLIC:
        for other, tree in TREES.items():
            skip = _exports(tree) + [
                node for node in tree.body if getattr(node, "name", None) == kept
            ]
            assert kept not in _referenced(tree, *skip), (kept, other)


@pytest.mark.parametrize("name", sorted(TREES))
def test_methods_are_referenced(name):
    """Every non-dunder method of a class in the package, and every member a
    class body assigns, such as plus = staticmethod(ScalarQ.__add__) or
    nonzero = any, is referenced by name somewhere in the package beyond its
    own definition.  Dataclass fields, which are annotated, are left out."""
    unreached = []
    for cls in TREES[name].body:
        if not isinstance(cls, ast.ClassDef):
            continue
        for node in cls.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                members = [node.name]
            elif isinstance(node, ast.Assign):
                members = [t.id for t in node.targets if isinstance(t, ast.Name)]
            else:
                continue
            for member in members:
                if member.startswith("__") and member.endswith("__"):
                    continue
                if not any(
                    member in _referenced(tree, node if other == name else None)
                    for other, tree in TREES.items()
                ):
                    unreached.append((f"{cls.name}.{member}", node.lineno))
    assert not unreached, f"{name} defines members nothing references: {unreached}"
