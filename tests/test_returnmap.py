from dataclasses import fields

import numpy as np
import pytest

from vipair.core import PI, SIDE_T, NondimParams, baseline_params, event_on_b, next_impact
from vipair.returnmap import (
    EmptyFilterResult,
    GridSpec,
    ReturnClass,
    SurfaceData,
    _sweep_points,
    first_return_B,
    partition_by_class,
    project_phase_planes,
    r1_filter,
    sweep_surfaces,
)


def test_first_return_classes(params35):
    # low-speed, early-phase starts hop on the bottom wall (BB)
    s = first_return_B(0.2, 0.1, params35)
    assert s.klass == ReturnClass.BB
    assert s.intermediate_events == ()
    assert s.v_out == pytest.approx(0.0945, abs=2e-4)
    assert s.phi_out == pytest.approx(0.6394, abs=2e-4)
    # the attracting band returns through one top impact (BTB)
    s = first_return_B(0.7, 0.3, params35)
    assert s.klass == ReturnClass.BTB
    assert len(s.intermediate_events) == 1
    assert s.intermediate_events[0].side == SIDE_T


@pytest.mark.parametrize("v, phi, p, reason, n_events", [
    # a start without upward speed never leaves the bottom wall
    (-0.1, 0.3, baseline_params(0.35), "no_impact_within_horizon", 0),
    # a slow start that finds no wall within the solver horizon
    (0.06666666666666667, 3.1948399867014845, NondimParams(0.9, 2.0, 0.0),
     "no_impact_within_horizon", 0),
    # a third top impact before the return; the first two are kept
    (1.6, 4.898754646275609, baseline_params(0.35), "many_t_impacts", 2),
])
def test_first_return_other_reasons(v, phi, p, reason, n_events):
    s = first_return_B(v, phi, p)
    assert s.klass == ReturnClass.OTHER
    assert s.reason == reason
    assert s.v_out is None and s.phi_out is None
    assert len(s.intermediate_events) == n_events
    assert all(e.side == SIDE_T for e in s.intermediate_events)


def test_first_return_matches_manual_chaining(params35, rng):
    for _ in range(25):
        v = float(rng.uniform(0.05, 1.0))
        phi = float(rng.uniform(0.0, PI))
        s = first_return_B(v, phi, params35)
        e = event_on_b(v, phi, params35)
        inter = 0
        while True:
            e = next_impact(e, params35)
            if e.side == "B":
                break
            inter += 1
        assert s.n_intermediate if hasattr(s, "n_intermediate") else True
        assert len(s.intermediate_events) == inter
        assert s.v_out == pytest.approx(e.velocity_in, abs=1e-12)
        assert s.phi_out == pytest.approx(e.phase, abs=1e-12)


def test_btb_samples_are_ordered(params35):
    s = first_return_B(0.8, 0.4, params35)
    assert s.klass == ReturnClass.BTB
    t_mid = s.intermediate_events[0].time
    assert event_on_b(0.8, 0.4, params35).time < t_mid
    assert s.v_out > 0


def test_sweep_grid_cardinality(params35):
    surf = sweep_surfaces(GridSpec(n_v=2, n_phi=2), params35)
    assert len(surf) == 4


def test_sweep_determinism(params35):
    g = GridSpec(n_v=8, n_phi=8)
    a = sweep_surfaces(g, params35)
    b = sweep_surfaces(g, params35)
    assert np.array_equal(a.v_out, b.v_out, equal_nan=True)
    assert np.array_equal(a.phi_out, b.phi_out, equal_nan=True)
    assert np.array_equal(a.klass, b.klass)
    assert np.array_equal(a.reason, b.reason)


@pytest.mark.parametrize("d", [0.26, 0.30, 0.35])
def test_batched_rows_equal_separate_sweeps(d):
    # set sizes from 1 to 700 rows, each row stopping on its own tests;
    # bytes compare NaN equal to NaN
    rng = np.random.default_rng(round(d * 1000))
    p = baseline_params(d)
    sets = [(rng.uniform(-0.05, 1.8, n), rng.uniform(0.0, 2 * PI, n))
            for n in (1, 5, 8, 9, 160, 700)]
    whole = _sweep_points(np.concatenate([v for v, _ in sets]),
                          np.concatenate([phi for _, phi in sets]), p)
    assert len(np.unique(whole.klass)) == len(ReturnClass)
    start = 0
    for v, phi in sets:
        part = _sweep_points(v, phi, p)
        rows = slice(start, start + len(v))
        start = rows.stop
        for f in fields(SurfaceData):
            a, b = getattr(part, f.name), getattr(whole, f.name)
            if isinstance(a, np.ndarray):
                assert a.dtype == b.dtype and a.tobytes() == b[rows].tobytes(), f.name


def _trajectories(v0, phi0, p, n_returns):
    """Iterate the exact first-return map from each start, as one batch of the
    rows still alive; a row stops at its first OTHER return (NaN after it)."""
    v = np.full((len(v0), n_returns + 1), np.nan)
    phi = np.full_like(v, np.nan)
    v[:, 0], phi[:, 0] = v0, phi0
    live = np.arange(len(v0))
    for k in range(n_returns):
        step = _sweep_points(v[live, k], phi[live, k], p)
        v[live, k + 1], phi[live, k + 1] = step.v_out, step.phi_out
        live = live[step.klass != ReturnClass.OTHER]
    return v, phi


@pytest.mark.parametrize("d", [0.26, 0.35])
def test_batched_trajectories_equal_single_ones(d):
    # 100 returns from 16 starts as one shrinking batch equal each start
    # iterated alone, bit for bit
    rng = np.random.default_rng(round(d * 1000) + 1)
    p = baseline_params(d)
    v0, phi0 = rng.uniform(0.05, 1.6, 16), rng.uniform(0.0, 2 * PI, 16)
    v, phi = _trajectories(v0, phi0, p, 100)
    for i in range(16):
        v_i, phi_i = _trajectories(v0[i:i + 1], phi0[i:i + 1], p, 100)
        assert v_i.tobytes() == v[i:i + 1].tobytes()
        assert phi_i.tobytes() == phi[i:i + 1].tobytes()


def test_classification_total(params35):
    surf = sweep_surfaces(GridSpec(n_v=20, n_phi=20), params35)
    assert surf.klass.dtype == np.int8 and surf.reason.dtype == np.int8
    assert np.isin(surf.klass, list(ReturnClass)).all()
    counts = surf.class_counts()
    assert sum(counts.values()) == len(surf)


def test_grid_nodes_cover_open_interval():
    g = GridSpec(n_v=10, n_phi=5, v_range=(0.0, 1.0), phi_range=(0.0, PI))
    v = g.v_nodes()
    assert v.min() > 0 and v.max() == pytest.approx(1.0)
    p = g.phi_nodes()
    assert p[0] == 0.0 and p[-1] == pytest.approx(PI)
    with pytest.raises(ValueError):
        GridSpec(n_v=1, n_phi=5)


def test_bttb_only_beyond_unit_velocity():
    p = baseline_params(0.35)
    grid = GridSpec(n_v=40, n_phi=40, v_range=(0.0, 1.5), phi_range=(0.0, 2 * PI))
    surf = sweep_surfaces(grid, p)
    vk, _, _, _ = surf.class_samples(ReturnClass.BTTB)
    assert len(vk) > 0
    assert vk.min() > 1.0


def test_partition_raster(params35):
    surf = sweep_surfaces(GridSpec(n_v=12, n_phi=9), params35)
    labels = partition_by_class(surf)
    assert labels.shape == (12, 9)
    valid = {k.name for k in ReturnClass}
    assert set(labels.ravel()) <= valid


def test_r1_filter_monotone_in_delta(params35):
    grid = GridSpec(n_v=30, n_phi=30)
    surf = sweep_surfaces(grid, params35)
    small = r1_filter([surf], 1.2)
    big = r1_filter([surf], 1.4)
    pts_small = {tuple(row) for row in small.points}
    pts_big = {tuple(row) for row in big.points}
    assert pts_small
    assert pts_small < pts_big


def test_r1_filter_delta_one_empty(params35):
    grid = GridSpec(n_v=10, n_phi=10)
    surf = sweep_surfaces(grid, params35)
    with pytest.warns(EmptyFilterResult) as record:
        res = r1_filter([surf], 1.0)
    assert len(res.points) == 0
    assert len(record) == 1


def test_r1_filter_bounding_box(params35):
    # union over the d range pins the region near the published rectangle
    d_values = [round(d, 2) for d in np.arange(0.26, 0.351, 0.01)]
    grid = GridSpec(n_v=40, n_phi=40)
    res = r1_filter((sweep_surfaces(grid, params35.replace(length=d)) for d in d_values), 1.2)
    lo_v, hi_v, lo_p, hi_p = res.bounding_box
    assert lo_v == pytest.approx(0.63, abs=0.05)
    assert hi_v == pytest.approx(0.94, abs=0.05)
    assert lo_p == pytest.approx(0.15, abs=0.05)
    assert hi_p == pytest.approx(0.45, abs=0.05)


def test_phase_plane_strands(surface35):
    strands = project_phase_planes(surface35)
    assert len(strands) == surface35.grid.n_phi
    # small-slope near-diagonal BTB points cluster below pi/2
    small_slope_phis = []
    for s in strands:
        btb = s.klass == ReturnClass.BTB
        pts = s.near_diagonal & btb
        if not pts.any():
            continue
        slope = np.gradient(np.nan_to_num(s.v_out), s.v_in)
        for i in np.flatnonzero(pts):
            if abs(slope[i]) < 1.0:
                small_slope_phis.append(s.phi)
    assert small_slope_phis
    assert max(small_slope_phis) < PI / 2
