from dataclasses import fields

import numpy as np
import pytest

from vipair.core import (PI, STATUS_NO_IMPACT, STATUS_OK, NondimParams, baseline_params,
                         impact_phase, next_impact_batch)
from vipair.returnmap import (
    MANY_T_IMPACTS,
    EmptyFilterResult,
    GridSpec,
    ReturnClass,
    SurfaceData,
    _sweep_points,
    partition_by_class,
    r1_filter,
    sweep_surfaces,
)


def test_first_return_classes(params35):
    s = _sweep_points([0.2, 0.7], [0.1, 0.3], params35)
    # low-speed, early-phase starts hop on the bottom wall (BB)
    assert s.klass[0] == ReturnClass.BB and s.n_intermediate[0] == 0
    assert s.v_out[0] == pytest.approx(0.0945, abs=2e-4)
    assert s.phi_out[0] == pytest.approx(0.6394, abs=2e-4)
    # the attracting band returns through one top impact (BTB)
    assert s.klass[1] == ReturnClass.BTB and s.n_intermediate[1] == 1


REASON_CODES = {"no_impact_within_horizon": STATUS_NO_IMPACT, "many_t_impacts": MANY_T_IMPACTS}


@pytest.mark.parametrize("v, phi, p, reason, n_before", [
    # a start without upward speed never leaves the bottom wall
    (-0.1, 0.3, baseline_params(0.35), "no_impact_within_horizon", 0),
    # a slow start that finds no wall within the solver horizon
    (0.06666666666666667, 3.1948399867014845, NondimParams(0.9, 2.0, 0.0),
     "no_impact_within_horizon", 0),
    # a third top impact before the return, after two
    (1.6, 4.898754646275609, baseline_params(0.35), "many_t_impacts", 2),
])
def test_first_return_other_reasons(v, phi, p, reason, n_before):
    s = _sweep_points([v], [phi], p)
    code = REASON_CODES[reason]
    assert s.klass[0] == ReturnClass.OTHER
    assert s.reason[0] == code
    assert np.isnan(s.v_out[0]) and np.isnan(s.phi_out[0])
    # the count includes the third top impact, at which the row stops
    assert s.n_intermediate[0] == n_before + (code == MANY_T_IMPACTS)


def test_first_return_matches_manual_chaining(params35, rng):
    starts = [(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0.0, PI))) for _ in range(25)]
    v_in, phi_in = np.array(starts).T
    s = _sweep_points(v_in, phi_in, params35)
    for i, (v, phi) in enumerate(starts):
        side, t, vel = [1], [(phi - params35.general_phase) / PI], [v]
        n_top = 0
        while True:
            side, t, vel, status = next_impact_batch(side, t, vel, params35)
            assert status[0] == STATUS_OK
            if side[0] > 0:
                break
            n_top += 1
        assert s.klass[i] == n_top   # BB or BTB below unit speed
        assert s.n_intermediate[i] == n_top
        assert s.v_out[i] == pytest.approx(vel[0], abs=1e-12)
        assert s.phi_out[i] == pytest.approx(impact_phase(t[0]), abs=1e-12)


def test_btb_samples_are_ordered(params35):
    s = _sweep_points([0.8], [0.4], params35)
    assert s.klass[0] == ReturnClass.BTB
    assert s.v_out[0] > 0
    # the top impact comes after the start, and the return after it
    t0 = 0.4 / PI
    side, t_top, v, _ = next_impact_batch([1], [t0], [0.8], params35)
    assert side[0] == -1 and t_top[0] > t0
    side, t_back, v, _ = next_impact_batch(side, t_top, v, params35)
    assert side[0] == 1 and t_back[0] > t_top[0]
    assert v[0] == s.v_out[0]


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
    # too few nodes, and ranges that do not increase
    for bad in ({"n_v": 1}, {"v_range": (0.0, 0.0)}, {"v_range": (0.0, -1.0)},
                {"phi_range": (0.0, 0.0)}, {"phi_range": (1.0, 0.5)}):
        with pytest.raises(ValueError):
            GridSpec(**{"n_v": 10, "n_phi": 5} | bad)


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
    small, _ = r1_filter([surf], 1.2)
    big, _ = r1_filter([surf], 1.4)
    pts_small = {tuple(row) for row in small}
    pts_big = {tuple(row) for row in big}
    assert pts_small
    assert pts_small < pts_big


def test_r1_filter_delta_one_empty(params35):
    grid = GridSpec(n_v=10, n_phi=10)
    surf = sweep_surfaces(grid, params35)
    with pytest.warns(EmptyFilterResult) as record:
        points, box = r1_filter([surf], 1.0)
    assert len(points) == 0
    assert np.isnan(box).all()
    assert len(record) == 1


def test_r1_filter_bounding_box(params35):
    # union over the d range pins the region near the published rectangle
    d_values = [round(d, 2) for d in np.arange(0.26, 0.351, 0.01)]
    grid = GridSpec(n_v=40, n_phi=40)
    _, box = r1_filter((sweep_surfaces(grid, params35.replace(length=d)) for d in d_values), 1.2)
    lo_v, hi_v, lo_p, hi_p = box
    assert lo_v == pytest.approx(0.63, abs=0.05)
    assert hi_v == pytest.approx(0.94, abs=0.05)
    assert lo_p == pytest.approx(0.15, abs=0.05)
    assert hi_p == pytest.approx(0.45, abs=0.05)
