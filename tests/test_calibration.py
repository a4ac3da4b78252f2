"""Calibration regenerates the shipped coefficient table bit for bit, from one
sweep per d that splits into the separate sweeps bit for bit."""

import json
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from vipair.calibration import R1_GRID, _curve_points, _sweep_d, build_calibrated_table
from vipair.core import baseline_params
from vipair.returnmap import _sweep_points, sweep_surfaces


def test_calibration_reproduces_shipped_checksum():
    shipped = json.loads(resources.files("vipair").joinpath(
        "data", "calibrated_coefficients.json").read_text())
    table = build_calibrated_table(log=None)
    assert table.to_dict()["checksum"] == shipped["checksum"]


def _same_rows(part, whole):
    """Every per-row array of two swept point sets, bit for bit."""
    names = [f.name for f in fields(whole) if isinstance(getattr(whole, f.name), np.ndarray)]
    assert names
    for name in names:
        a, b = getattr(part, name), getattr(whole, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert a.tobytes() == b.tobytes(), name


@pytest.mark.parametrize("d", [0.26, 0.35])
def test_one_sweep_per_d_splits_into_the_separate_sweeps(d):
    # rows are independent, so the R1 grid and the six curves swept as one
    # batch give what each gives swept alone
    base = baseline_params(0.30)
    grid, curves = _sweep_d(d, base)
    _same_rows(grid, sweep_surfaces(R1_GRID, base.replace(length=d)))
    _same_rows(curves, _sweep_points(*_curve_points(), base.replace(length=d)))
