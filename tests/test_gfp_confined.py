"""The GF(p) arithmetic lives in hwmod alone: every other source file of the
package reaches it only through a shadow module's field, so no file but
hwmod.py names the prime, the evaluation point or a mod-p helper."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import qcells

SOURCES = sorted(
    p for p in Path(qcells.__file__).parent.glob("*.py") if p.name != "hwmod.py"
)
GFP_NAMES = {"_PROFILE_P", "_PROFILE_Q0", "_eval_mod"}


def _gfp_name(name: str) -> bool:
    return name in GFP_NAMES or name.startswith("_mod_")


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_gfp_name_outside_hwmod(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    hits = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            names = [node.id]
        elif isinstance(node, ast.Attribute):
            names = [node.attr]
        elif isinstance(node, ast.alias):
            names = [node.name, node.asname or ""]
        elif isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names = [node.name]
        else:
            continue
        hits += [(name, getattr(node, "lineno", None)) for name in names if _gfp_name(name)]
    assert not hits, f"{path.name} names GF(p) internals of hwmod: {hits}"
