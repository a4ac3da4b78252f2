import importlib.util
from pathlib import Path

import numpy as np
import pytest

from vipair.auxmap import DomainBox, _rect_range
from vipair.composite import load_table
from vipair.core import baseline_params
from vipair.returnmap import GridSpec, sweep_surfaces


ROOT = Path(__file__).resolve().parents[1]


# Plain helpers shared by several test modules (import them from conftest)

def xi_range(curves, v):
    """(xi_L(v), xi_U(v)) as arrays shaped like v: the min and max of f1 over
    v x the box's phase interval, each a _rect_range as wcs_step takes it."""
    v = np.asarray(v, dtype=float)
    phi_range = (curves.box.phi_min, curves.box.phi_max)
    ranges = [_rect_range(curves._f, (x, x), phi_range)[:2] for x in v.ravel().tolist()]
    lo, hi = np.array(ranges, dtype=float).reshape(-1, 2).T
    return lo.reshape(v.shape), hi.reshape(v.shape)


def grown(box, by=1e-3):
    """box widened by `by` on every side."""
    return DomainBox(box.v_min - by, box.v_max + by, box.phi_min - by, box.phi_max + by)


def term_loop(poly, v, phi):
    """Poly2D evaluation as a plain term loop, each power taken per term."""
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(np.broadcast(v, phi).shape)
    for (i, j), c in zip(poly.exponents, poly.coeffs):
        out += c * phi**i * v**j
    return out


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
