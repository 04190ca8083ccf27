"""No source file of the package uses a bare ``assert``: ``python -O`` strips
them, so every correctness check raises explicitly instead."""

from __future__ import annotations

import ast
from pathlib import Path

import pytest

import qcells

SOURCES = sorted(Path(qcells.__file__).parent.glob("*.py"))


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_bare_assert(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    lines = [node.lineno for node in ast.walk(tree) if isinstance(node, ast.Assert)]
    assert not lines, f"{path.name} has bare assert statements at lines {lines}"
