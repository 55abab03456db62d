import os
from pathlib import Path

import numpy as np
import pytest

import boussinesq


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@pytest.fixture
def package_env():
    """Environment for a subprocess that imports this copy of the package."""
    src = str(Path(boussinesq.__file__).resolve().parent.parent)
    path = os.environ.get("PYTHONPATH")
    return {**os.environ, "PYTHONPATH": src + os.pathsep + path if path else src}
