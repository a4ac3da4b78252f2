import numpy as np
import pytest

from vipair.composite import load_table
from vipair.core import baseline_params
from vipair.returnmap import GridSpec, sweep_surfaces


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
