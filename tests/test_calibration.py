"""Calibration regenerates the shipped coefficient table bit for bit, from one
sweep per d that splits into the separate sweeps of its parts bit for bit;
region 3's part, its own nodes, gives the whole grid's R3 samples."""

import itertools
import json
from dataclasses import fields
from importlib import resources

import numpy as np
import pytest

from vipair import calibration
from vipair.calibration import (CURVE_POINTS, R1_GRID, R3_GRID, R3_POOL_D, SEPARABLE_RECIPE,
                                _in_region, _r3_nodes, _sweep_d, build_calibrated_table,
                                region_samples)
from vipair.composite import PI, R1_BOX, Region, region_of
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


def test_calibration_sweeps_once_per_d(monkeypatch):
    # one batch per d of D_GRID, with region 3's nodes inside the batches at
    # the three R3_POOL_D values
    rows = []

    def counted(v_in, phi_in, p):
        rows.append(len(v_in))
        return _sweep_points(v_in, phi_in, p)

    monkeypatch.setattr(calibration, "_sweep_points", counted)
    build_calibrated_table(log=None)
    assert (len(rows), sum(rows)) == (19, 124_566)


@pytest.mark.parametrize("d", [0.26, 0.30, 0.305, 0.35])
def test_one_sweep_per_d_splits_into_the_separate_sweeps(d):
    # rows are independent, so each named part of one d's batch gives what
    # that part gives swept alone
    base, nodes = baseline_params(0.30), _r3_nodes()
    alone = {Region.R1: R1_GRID.points()}
    for region, rec in SEPARABLE_RECIPE.items():
        v = np.linspace(*rec["v_window"], CURVE_POINTS)
        phi = np.linspace(*rec["phi_window"], CURVE_POINTS)
        alone[region, "row"] = (v, np.full_like(v, rec["phi_row"]))
        alone[region, "col"] = (np.full_like(phi, rec["v_col"]), phi)
    if d in R3_POOL_D:
        alone[Region.R3] = nodes
    parts = _sweep_d(d, base, nodes)
    assert list(parts) == list(alone) and (Region.R3 in parts) == (d != 0.30)
    for key, points in alone.items():
        _same_rows(parts[key], _sweep_points(*points, base.replace(length=d)))


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


def _boundary_points():
    """Every pair of the dispatch chain's edge values, points on the line
    v = 0.63 - 0.53 phi, and NaN and +-inf in each coordinate."""
    special = [np.nan, np.inf, -np.inf]
    vs = [*R1_BOX[:2], 0.55, 0.63, 0.3, 0.0, -0.0, *special]
    phis = [*R1_BOX[2:], 0.0, -0.0, 1.1, 2.5, PI, np.nextafter(PI, 4.0), *special]
    v, phi = (np.array(x) for x in zip(*itertools.product(vs, phis)))
    line = np.linspace(-0.5, 4.0, 451)
    return np.concatenate([v, 0.63 - 0.53 * line]), np.concatenate([phi, line])


def test_region_mask_equals_region_of():
    rng = np.random.default_rng(5)
    point_sets = {"R3_GRID": R3_GRID.points(),
                  "seeded": (rng.uniform(-0.2, 1.2, 10_000), rng.uniform(-0.5, 3.7, 10_000)),
                  "boundaries": _boundary_points()}
    for name, (v, phi) in point_sets.items():
        scalar = [region_of(a, b) for a, b in zip(v, phi)]
        for region in Region:
            expected = np.array([r == region for r in scalar], dtype=bool)
            assert np.array_equal(_in_region(v, phi, region), expected), (name, region)
