"""Calibration regenerates the shipped coefficient table bit for bit, from one
sweep per d that splits into the separate sweeps bit for bit, and from R3
sweeps of the region's own nodes that give the whole grid's R3 samples."""

import json
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from vipair.calibration import (R1_GRID, R3_GRID, _curve_points, _r3_nodes, _sweep_d,
                                build_calibrated_table, region_samples)
from vipair.composite import Region
from vipair.core import baseline_params
from vipair.returnmap import ReturnClass, _sweep_points, sweep_surfaces


def test_calibration_reproduces_shipped_checksum():
    shipped = json.loads(resources.files("vipair").joinpath(
        "data", "calibrated_coefficients.json").read_text())
    table = build_calibrated_table(log=None)
    assert table.to_dict()["checksum"] == shipped["checksum"]


def _same_bytes(a, b, name):
    assert a.dtype == b.dtype and a.shape == b.shape, name
    assert a.tobytes() == b.tobytes(), name


def _same_rows(part, whole):
    """Every per-row array of two swept point sets, bit for bit."""
    names = [f.name for f in fields(whole) if isinstance(getattr(whole, f.name), np.ndarray)]
    assert names
    for name in names:
        _same_bytes(getattr(part, name), getattr(whole, name), name)


@pytest.mark.parametrize("d", [0.26, 0.35])
def test_one_sweep_per_d_splits_into_the_separate_sweeps(d):
    # rows are independent, so the R1 grid and the six curves swept as one
    # batch give what each gives swept alone
    base = baseline_params(0.30)
    grid, curves = _sweep_d(d, base)
    _same_rows(grid, sweep_surfaces(R1_GRID, base.replace(length=d)))
    _same_rows(curves, _sweep_points(*_curve_points(), base.replace(length=d)))


def test_r3_sweep_of_its_region_nodes_gives_the_whole_grids_samples():
    # the region depends on the inputs alone and rows are independent, so
    # sweeping only region 3's nodes gives the region's BB samples of the
    # whole grid, in the same order
    p = baseline_params(0.26)
    v, phi = _r3_nodes()
    assert (v.size, R3_GRID.n_v * R3_GRID.n_phi) == (2610, 8100)
    part = _sweep_points(v, phi, p).class_samples(ReturnClass.BB)
    whole = region_samples(sweep_surfaces(R3_GRID, p), ReturnClass.BB, Region.R3)
    for name, a, b in zip(("v_in", "phi_in", "v_out", "phi_out"), part, whole):
        _same_bytes(a, b, name)
