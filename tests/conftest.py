import importlib.util
from pathlib import Path

import numpy as np
import pytest

from vipair.composite import load_table
from vipair.core import baseline_params
from vipair.returnmap import GridSpec, sweep_surfaces


ROOT = Path(__file__).resolve().parents[1]


@pytest.fixture(scope="session")
def artifact_digest():
    """scripts/artifact_digest.py, loaded as a module."""
    spec = importlib.util.spec_from_file_location(
        "artifact_digest", ROOT / "scripts" / "artifact_digest.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture(scope="session")
def golden_digest():
    """The lines of the committed record that scripts/artifact_digest.py prints."""
    return (ROOT / "tests" / "golden" / "artifact_digest.txt").read_text().splitlines()


@pytest.fixture(scope="session")
def table():
    return load_table("calibrated")


@pytest.fixture(scope="session")
def supplement():
    return load_table("supplement")


@pytest.fixture(scope="session")
def params35():
    return baseline_params(0.35)


@pytest.fixture(scope="session")
def surface35(params35):
    """Moderate sweep at d=0.35 shared by the fitting/projection tests."""
    return sweep_surfaces(GridSpec(n_v=100, n_phi=100), params35)


@pytest.fixture
def rng():
    """A fresh generator per test, so a test's data do not depend on the tests before it."""
    return np.random.default_rng(20240817)
