"""Fixtures shared across the test modules."""

import os
from pathlib import Path

import pytest

import eprsim


@pytest.fixture
def subprocess_env():
    """Environment in which a child Python imports the eprsim under test, so
    subprocess tests pass under a plain ``python -m pytest`` too."""
    paths = [str(Path(eprsim.__file__).resolve().parent.parent), os.environ.get("PYTHONPATH")]
    return {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, paths))}
