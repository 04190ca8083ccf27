"""Every name a module exports through ``__all__`` exists."""

from __future__ import annotations

import importlib
import pkgutil

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
