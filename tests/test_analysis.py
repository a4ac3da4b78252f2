import warnings

import numpy as np
import pytest

from vipair.analysis import (
    bifurcation_scan,
    compare_exact_vs_composite,
    d_values,
    first_period_doubling,
    hausdorff_distance,
    run_case_preset,
)
from vipair.composite import ExtrapolationWarning, Region, region_of
from vipair.auxmap import DomainBox
from vipair.core import baseline_params

PI = np.pi


def _grown(box, by=1e-3):
    """box widened by `by` on every side."""
    return DomainBox(box.v_min - by, box.v_max + by, box.phi_min - by, box.phi_max + by)


def test_hausdorff():
    a = np.array([[0.0, 0.0], [1.0, 0.0]])
    assert hausdorff_distance(a, a) == 0.0
    b = np.array([[0.0, 0.5], [1.0, 0.0]])
    assert hausdorff_distance(a, b) == pytest.approx(0.5)


def test_zero_length_range_single_sample(table):
    samples = bifurcation_scan("composite", 0.35, 0.35, 0.01, table=table)
    assert len(samples) == 1
    assert str(samples[0].classification) == "FP"


def test_scan_warns_once_about_extrapolated_d(table):
    # 0.259 ... 0.250 lie below the calibrated range: one warning with the count
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        samples = bifurcation_scan("composite", 0.26, 0.25, 0.001, table=table)
    assert len(samples) == 11
    extrapolated = [w for w in caught if issubclass(w.category, ExtrapolationWarning)]
    assert len(extrapolated) == 1
    assert str(extrapolated[0].message).startswith("10 of 11 d values outside")


def test_scan_determinism(table):
    a = bifurcation_scan("composite", 0.35, 0.33, 0.01, table=table)
    b = bifurcation_scan("composite", 0.35, 0.33, 0.01, table=table)
    for x, y in zip(a, b):
        assert np.array_equal(x.tail_v, y.tail_v)
        assert str(x.classification) == str(y.classification)


def test_scan_rejects_bad_arguments(table):
    with pytest.raises(ValueError):
        bifurcation_scan("wrong", 0.3, 0.2, 0.01)
    with pytest.raises(ValueError, match="needs a coefficient table"):
        bifurcation_scan("composite", 0.35, 0.35, 0.01)
    with pytest.raises(ValueError):
        bifurcation_scan("composite", 0.3, 0.2, -0.01, table=table)


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
        samples = bifurcation_scan("composite", 0.36, 0.25, 0.003, table=table)
    assert len(samples) == 37
    assert samples[-1].d == pytest.approx(0.252)


def test_first_period_doubling_detection(table):
    samples = bifurcation_scan("composite", 0.34, 0.31, 0.005, table=table)
    d_pd = first_period_doubling(samples)
    assert d_pd is not None
    assert 0.31 <= d_pd <= 0.33


def test_fp_branch_direction_independent(table):
    down = bifurcation_scan("composite", 0.36, 0.34, 0.005, table=table)
    up = bifurcation_scan("composite", 0.34, 0.36, 0.005, table=table)
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

    samples = bifurcation_scan("composite", 0.35, 0.35, 0.01, table=table)
    rep = iterate_updates("FP", table=table)
    box = rep.boxes[-1]
    for v, p in zip(samples[0].tail_v, samples[0].tail_phi):
        assert _grown(box).contains(v, p)
