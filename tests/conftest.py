"""Shared fixtures."""

from __future__ import annotations

import os
from pathlib import Path

import pytest

import qcells


@pytest.fixture
def child_env() -> dict[str, str]:
    """Environment for a child Python that imports the same qcells as this
    process, whether or not the package is installed."""
    src = str(Path(qcells.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return env
