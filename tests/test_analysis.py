import warnings
from functools import partial

import numpy as np
import pytest

from vipair import analysis
from vipair.analysis import (
    DEFAULT_SEED_STATE,
    SCAN_STEPS,
    ExactMap,
    bifurcation_scan,
    compare_exact_vs_composite,
    d_values,
    first_period_doubling,
    hausdorff_distance,
    run_case_preset,
)
from vipair.composite import (CoeffTableError, CompositeMap, ExtrapolationWarning, Region,
                              region_of)
from vipair.auxmap import DomainBox
from vipair.core import DegenerateParamsError, baseline_params
from vipair.returnmap import GridSpec, ReturnClass, _sweep_points

PI = np.pi


def _grown(box, by=1e-3):
    """box widened by `by` on every side."""
    return DomainBox(box.v_min - by, box.v_max + by, box.phi_min - by, box.phi_max + by)


def test_hausdorff():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert hausdorff_distance(a, a) == 0.0
    b = np.array([[0.0, 0.5], [1.0, 0.0]])
    assert hausdorff_distance(a, b) == pytest.approx(0.5)


def _exact_loop(p, v0, phi0, n_steps):
    """ExactMap(p).iterate as a plain loop of one-row _sweep_points calls with
    no revisit stop: it stops at the first OTHER return, keeping its code but
    not its state, and a full orbit's last state has no code."""
    v, phi, codes = [v0], [phi0], []
    for _ in range(n_steps):
        row = _sweep_points(np.array(v[-1:]), np.array(phi[-1:]), p)
        codes.append(ReturnClass(row.klass[0]))
        if codes[-1] == ReturnClass.OTHER:
            return np.array(v), np.array(phi), codes
        v.append(row.v_out[0])
        phi.append(row.phi_out[0])
    return np.array(v), np.array(phi), codes + [None]


def _same_exact_orbit(p, v0, phi0, n_steps=SCAN_STEPS):
    fast, slow = ExactMap(p).iterate(v0, phi0, n_steps), _exact_loop(p, v0, phi0, n_steps)
    return (fast[0].tobytes() == slow[0].tobytes() and fast[1].tobytes() == slow[1].tobytes()
            and list(fast[2]) == slow[2])


def test_exact_iterate_equals_the_plain_loop():
    # the shared orbit loop leaves the exact map's v, phi (bits) and return
    # classes as a plain loop of returns makes them
    rng = np.random.default_rng(31)
    for d in (0.35, 0.30, 0.26):
        p = baseline_params(d)
        starts = zip(rng.uniform(0.05, 1.6, 2).tolist(), rng.uniform(0.0, 2 * PI, 2).tolist())
        for v0, phi0 in starts:
            assert _same_exact_orbit(p, v0, phi0), (d, v0, phi0)
        for n_steps in (0, 1):
            assert _same_exact_orbit(p, *DEFAULT_SEED_STATE, n_steps)


def test_exact_orbit_stops_at_its_first_revisit(monkeypatch):
    # at d = 0.30 the scan's seed reaches an exact 2-cycle: state 40 repeats
    # state 38, so 40 returns are computed and the cycle is copied to the end
    p = baseline_params(0.30)
    calls = []
    sweep = analysis._sweep_points
    monkeypatch.setattr(analysis, "_sweep_points", lambda *args: calls.append(1) or sweep(*args))
    v, phi, codes = ExactMap(p).iterate(*DEFAULT_SEED_STATE, SCAN_STEPS)
    assert len(calls) == 40 and len(v) == SCAN_STEPS + 1
    assert v[40:41].tobytes() + phi[40:41].tobytes() == v[38:39].tobytes() + phi[38:39].tobytes()
    assert codes[-1] is None
    assert _same_exact_orbit(p, *DEFAULT_SEED_STATE)


def test_exact_orbit_stops_at_its_first_other_return(table):
    # the first node of a 20x20 grid chatters down to an OTHER return at its
    # 23rd return: the orbit keeps the 23 states before it and ends on its code
    p = baseline_params(0.35)
    v0, phi0 = (float(x[0]) for x in GridSpec(n_v=20, n_phi=20).points())
    v, phi, codes = ExactMap(p).iterate(v0, phi0, SCAN_STEPS)
    assert len(v) == len(phi) == len(codes) == 23
    assert np.isfinite(v).all() and np.isfinite(phi).all()
    assert codes[-1] is ReturnClass.OTHER and ReturnClass.OTHER not in list(codes[:-1])
    assert _same_exact_orbit(p, v0, phi0)
    # and compare gives such an orbit no tail distance
    record = compare_exact_vs_composite([(v0, phi0)], p, table=table, n_steps=80)[0]
    assert len(record.exact_v) == 23 and np.isnan(record.tail_distance)


def test_zero_length_range_single_sample(table):
    samples = bifurcation_scan(partial(CompositeMap, table), d_values(0.35, 0.35, 0.01))
    assert len(samples) == 1
    assert str(samples[0].classification) == "FP"


def test_scan_warns_once_about_extrapolated_d(table):
    # 0.259 ... 0.250 lie below the calibrated range: one warning with the
    # count, and none from the exact map over the same d values
    ds = d_values(0.26, 0.25, 0.001)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = bifurcation_scan(partial(CompositeMap, table), ds)
    assert len(samples) == 11
    extrapolated = [w for w in caught if issubclass(w.category, ExtrapolationWarning)]
    assert [str(w.message) for w in extrapolated] == [
        "10 of 11 d values outside the calibrated range [0.26, 0.35]; "
        "extrapolating the coefficient polynomials"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert len(bifurcation_scan(lambda d: ExactMap(baseline_params(d)), ds)) == 11
    assert caught == []


def test_scan_determinism(table):
    a = bifurcation_scan(partial(CompositeMap, table), d_values(0.35, 0.33, 0.01))
    b = bifurcation_scan(partial(CompositeMap, table), d_values(0.35, 0.33, 0.01))
    for x, y in zip(a, b):
        assert np.array_equal(x.tail_v, y.tail_v)
        assert str(x.classification) == str(y.classification)


def test_scan_rejects_bad_arguments(table):
    with pytest.raises(ValueError):
        bifurcation_scan(partial(CompositeMap, table), d_values(0.3, 0.2, -0.01))
    # a d <= 0 is refused at the lowest d, before any orbit or warning
    ds = d_values(0.02, -0.02, 0.01)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(CoeffTableError, match=r"d must be positive, got -0\.02"):
            bifurcation_scan(partial(CompositeMap, table), ds)
        with pytest.raises(DegenerateParamsError, match=r"positive, got -0\.02"):
            bifurcation_scan(lambda d: ExactMap(baseline_params(d)), ds)


def test_d_values_stop_at_d_to():
    assert d_values(0.35, 0.35, 0.01) == [0.35]
    assert d_values(0.30, 0.32, 0.01) == [0.30, 0.31, 0.32]
    up = d_values(0.25, 0.36, 0.003)
    assert len(up) == 37 and up[-1] == pytest.approx(0.358)
    # however fine the step, a zero span is one value and a wide one is refused
    assert d_values(0.35, 0.35, 1e-20) == [0.35]
    with pytest.raises(ValueError, match="more than 100000 steps"):
        d_values(0.35, 0.35 + 1e-12, 1e-20)
    assert len(d_values(0.35 - 1e-10, 0.35, 1e-14)) == 10001


def test_scan_stops_at_d_to(table):
    # 0.11 is not a whole number of steps of 0.003: the last d stays above d_to
    with pytest.warns(ExtrapolationWarning):
        samples = bifurcation_scan(partial(CompositeMap, table), d_values(0.36, 0.25, 0.003))
    assert len(samples) == 37
    assert samples[-1].d == pytest.approx(0.252)


def test_first_period_doubling_detection(table):
    samples = bifurcation_scan(partial(CompositeMap, table), d_values(0.34, 0.31, 0.005))
    d_pd = first_period_doubling(samples)
    assert d_pd is not None
    assert 0.31 <= d_pd <= 0.33


def test_fp_branch_direction_independent(table):
    down = bifurcation_scan(partial(CompositeMap, table), d_values(0.36, 0.34, 0.005))
    up = bifurcation_scan(partial(CompositeMap, table), d_values(0.34, 0.36, 0.005))
    v_down = {round(s.d, 4): np.mean(s.tail_v) for s in down}
    v_up = {round(s.d, 4): np.mean(s.tail_v) for s in up}
    assert v_down[0.35] == pytest.approx(v_up[0.35], abs=1e-6)


def test_compare_same_map_is_zero(table):
    records = compare_exact_vs_composite([(0.75, 0.35)], baseline_params(0.35), table=table,
                                         n_steps=80)
    rec = records[0]
    tails_equal = hausdorff_distance(
        np.column_stack([rec.composite_v[-8:], rec.composite_phi[-8:]]),
        np.column_stack([rec.composite_v[-8:], rec.composite_phi[-8:]]))
    assert tails_equal == 0.0


def test_compare_exact_vs_composite_fp(table):
    records = compare_exact_vs_composite([(0.35, PI / 2), (0.2, 0.1)],
                                         baseline_params(0.35), table=table, n_steps=200)
    for rec in records:
        assert rec.tail_distance < 0.02


def test_compare_cd_tails_in_r1_r2(table):
    records = compare_exact_vs_composite([(0.2, 0.1)], baseline_params(0.26), table=table,
                                         n_steps=300)
    rec = records[0]
    n_tail = 30
    for v, p in zip(rec.composite_v[-n_tail:], rec.composite_phi[-n_tail:]):
        assert region_of(v, p) in (Region.R1, Region.R2)
    for v, p in zip(rec.exact_v[-n_tail:], rec.exact_phi[-n_tail:]):
        assert region_of(v, p) in (Region.R1, Region.R2)


def test_run_case_preset_fp(table):
    result = run_case_preset("FP", table=table)
    assert str(result.classification) == "FP"
    box = result.aux_report.boxes[-1]
    assert box.widths[0] <= 1e-2 and box.widths[1] <= 1e-2
    # the trajectory's limit lies inside the final box
    assert _grown(box).contains(result.trajectory_v[-1], result.trajectory_phi[-1])
    assert not result.aux_report.escaped


def test_run_case_preset_cd_statement(table):
    import warnings

    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        result = run_case_preset("CD", table=table)
    assert result.classification.kind == "CD"
    assert result.aux_report.statement_case == "Part2"


def test_run_case_preset_rejects_unknown(table):
    with pytest.raises(ValueError):
        run_case_preset("XY", table=table)


def test_composite_tail_inside_aux_box(table):
    """Scan tails at d=0.35 stay inside the aux-domain box for that d."""
    from vipair.auxmap import iterate_updates

    samples = bifurcation_scan(partial(CompositeMap, table), d_values(0.35, 0.35, 0.01))
    rep = iterate_updates("FP", table=table)
    box = rep.boxes[-1]
    for v, p in zip(samples[0].tail_v, samples[0].tail_phi):
        assert _grown(box).contains(v, p)
