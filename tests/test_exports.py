"""Every name a module exports through ``__all__`` exists, and README's
library snippet runs as documented."""

from __future__ import annotations

import contextlib
import importlib
import io
import pkgutil
from pathlib import Path

import pytest

import qcells

MODULES = ["qcells"] + [
    f"qcells.{m.name}" for m in pkgutil.iter_modules(qcells.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_all_names_resolve(name):
    mod = importlib.import_module(name)
    names = getattr(mod, "__all__", [])
    missing = [n for n in names if not hasattr(mod, n)]
    assert not missing, f"{name}.__all__ names missing attributes: {missing}"


def test_readme_library_snippet_prints_its_comments():
    """README's "Library use" block runs, and each print writes what the
    comment on its line says, so the documented API stays callable."""
    readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
    block = readme.split("## Library use", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    want = [line.split("# ", 1)[1] for line in block.splitlines() if line.startswith("print(")]
    assert len(want) == 4
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(block, "README.md", "exec"), {})
    assert out.getvalue().splitlines() == want
