import itertools
import warnings

import numpy as np
import pytest

from vipair.auxmap import (
    BoundCurves,
    CASES,
    _Curve,
    _coeff_grid,
    _rect_range,
    DomainBox,
    EscapedBox,
    STATEMENT_INDETERMINATE,
    STATEMENT_PART1,
    STATEMENT_PART2,
    TwoCycle,
    WcsRecord,
    _clip_to,
    _same_bounds,
    build_bound_curves,
    iterate_updates,
    iterate_wcs,
    r1_plus,
    second_iterate_phase,
    second_iterate_v,
    statement61_case,
    wcs_step,
)
from vipair.composite import Poly2D, Region
from vipair.fitting import poly2d_exponents

from conftest import grown, term_loop, xi_range

PI = np.pi


def test_r1_plus_boxes():
    fp = r1_plus("FP")
    assert fp.as_tuple() == (0.70, 1.0, 0.20, PI / 3)
    pd = r1_plus("PD")
    assert pd.as_tuple() == (0.65, 1.0, 0.13, PI / 3)
    cd = r1_plus("CD")
    assert cd.as_tuple() == (0.64, 1.0, 0.08, PI / 3)
    with pytest.raises(ValueError):
        r1_plus("XX")


def _terms_poly2d(terms):
    """Region-1-shaped Poly2D from {(phi power, v power): coefficient}."""
    exps = tuple(poly2d_exponents(2, 3))
    return Poly2D(exponents=exps, coeffs=np.array([terms.get(e, 0.0) for e in exps]))


def _linear_poly2d(c0, cv, cp):
    return _terms_poly2d({(0, 0): c0, (0, 1): cv, (1, 0): cp})


def test_bound_curves_orientation_and_domination(table):
    box = r1_plus("FP")
    curves = build_bound_curves(box, 0.35, table)
    vs = np.linspace(box.v_min, box.v_max, 40)
    ps = np.linspace(box.phi_min, box.phi_max, 40)
    xi_l, xi_u = xi_range(curves, vs)
    assert np.all(xi_u >= xi_l - 1e-12)
    assert np.all(curves.eta_u(ps) >= curves.eta_l(ps) - 1e-12)
    # envelopes dominate the 2D maps on the box (sampled)
    rng = np.random.default_rng(3)
    rv = rng.uniform(box.v_min, box.v_max, 1000)
    rp = rng.uniform(box.phi_min, box.phi_max, 1000)
    f1, g1 = curves.f1, curves.g1
    xi_l, xi_u = xi_range(curves, rv)
    assert np.all(f1(rv, rp) <= xi_u + 1e-6)
    assert np.all(f1(rv, rp) >= xi_l - 1e-6)
    assert np.all(g1(rv, rp) <= curves.eta_u(rp) + 1e-6)
    assert np.all(g1(rv, rp) >= curves.eta_l(rp) - 1e-6)


def test_degenerate_phase_box_collapses_xi():
    f1 = _linear_poly2d(0.5, 0.3, -0.2)
    g1 = _linear_poly2d(0.3, 0.1, 0.5)
    box = DomainBox(0.7, 1.0, 0.4, 0.4)
    curves = BoundCurves(box=box, f1=f1, g1=g1)
    vs = np.linspace(0.7, 1.0, 9)
    xi_l, xi_u = xi_range(curves, vs)
    assert np.allclose(xi_u, xi_l)


def test_wcs_step_constant_curves():
    # f1 linear in phi only: xi_U and xi_L are distinct constants in v
    f1 = _linear_poly2d(0.5, 0.0, -0.2)
    g1 = _linear_poly2d(0.3, 0.0, 0.4)
    box = DomainBox(0.0, 1.0, 0.0, 1.0)
    curves = BoundCurves(box=box, f1=f1, g1=g1)
    rec = wcs_step(curves, (0.0, 1.0), (0.0, 1.0))
    assert rec.interval_v == (pytest.approx(0.3), pytest.approx(0.5))
    assert rec.interval_phi == (pytest.approx(0.3), pytest.approx(0.7))


def test_one_step_conservativeness(table):
    box = r1_plus("FP")
    curves = build_bound_curves(box, 0.35, table)
    rec = wcs_step(curves, (box.v_min, box.v_max), (box.phi_min, box.phi_max))
    rng = np.random.default_rng(5)
    rv = rng.uniform(box.v_min, box.v_max, 400)
    rp = rng.uniform(box.phi_min, box.phi_max, 400)
    img_v = curves.f1(rv, rp)
    img_p = curves.g1(rv, rp)
    assert np.all(img_v >= rec.interval_v[0] - 1e-9)
    assert np.all(img_v <= rec.interval_v[1] + 1e-9)
    assert np.all(img_p >= rec.interval_phi[0] - 1e-9)
    assert np.all(img_p <= rec.interval_phi[1] + 1e-9)


def test_update_region_contracts_fp(table):
    box = r1_plus("FP")
    curves = build_bound_curves(box, 0.35, table)
    hist = iterate_wcs(curves)
    new_box = DomainBox(*hist.final.as_tuple())
    assert hist.converged
    assert new_box.v_min > box.v_min and new_box.v_max < box.v_max
    assert new_box.phi_min > box.phi_min and new_box.phi_max < box.phi_max
    # the paper's first-update velocity interval is reproduced closely
    assert new_box.v_min == pytest.approx(0.771, abs=0.01)
    assert new_box.v_max == pytest.approx(0.909, abs=0.01)


def test_iterate_updates_fp(table):
    rep = iterate_updates("FP", table=table)
    assert not rep.escaped
    assert rep.statement_case == STATEMENT_PART1
    widths = np.array([box.widths for box in rep.boxes])
    assert np.all(np.diff(widths[:, 0]) <= 1e-12)  # v widths non-increasing
    assert np.all(np.diff(widths[:, 1]) <= 1e-12)
    final = rep.boxes[-1]
    assert final.widths[0] < 1e-2 and final.widths[1] < 1e-2
    # the composite fixed point lies inside every update's box
    from vipair.composite import CompositeMap

    v, phi, _ = CompositeMap(table=table, d=0.35).iterate(0.75, 0.4, 400)
    for box in rep.boxes:
        assert grown(box).contains(v[-1], phi[-1])
    cyc = rep.two_cycle
    assert cyc is not None
    assert cyc.p_v <= cyc.q_v and cyc.p_phi <= cyc.q_phi
    assert abs(cyc.slope_v) < 1 and abs(cyc.slope_phi) < 1


def test_iterate_updates_pd_cd_escape(table):
    """The refitted region-1 maps leave the published trust region on the
    wider period-doubled and chaotic boxes; the pipeline reports the escape
    instead of iterating on extrapolated values."""
    with pytest.warns(EscapedBox):
        pd = iterate_updates("PD", table=table)
    assert pd.escaped
    with pytest.warns(EscapedBox):
        cd = iterate_updates("CD", table=table)
    assert cd.escaped
    assert cd.statement_case == STATEMENT_PART2


def test_iterate_updates_builds_each_curve_once(table, monkeypatch):
    """Every update's bound curves reuse the two _Curves of the case's
    region-1 maps, and the report equals one whose curves are rebuilt on
    every box."""
    built = []

    class Counted(_Curve):
        def __init__(self, poly):
            built.append(poly)
            super().__init__(poly)

    monkeypatch.setattr("vipair.auxmap._Curve", Counted)
    report = iterate_updates("FP", table=table)
    assert len(report.boxes) > 2
    maps = table.coeffs_for(Region.R1, 0.35)
    assert [p.coeffs.tolist() for p in built] == [maps["v"].coeffs.tolist(),
                                                  maps["phi"].coeffs.tolist()]
    monkeypatch.setattr(BoundCurves, "on", lambda self, box: BoundCurves(box, self.f1, self.g1))
    rebuilt = iterate_updates("FP", table=table)
    assert len(built) == 2 + 2 * (len(rebuilt.boxes) - 1)
    assert rebuilt == report


def test_nan_candidate_gives_nan_range_and_wcs_raises():
    # 1e200 v^3 - 1e200 v^2 is inf - inf = NaN at the corner v = 1e60
    f1 = _terms_poly2d({(0, 3): 1e200, (0, 2): -1e200})
    curves = BoundCurves(DomainBox(0.0, 1e60, 0.0, 1.0), f1, _linear_poly2d(0.5, 0.0, 0.0))
    lo, hi, arg_lo, arg_hi = _rect_range(curves._f, (0.0, 1e60), (0.0, 1.0))
    assert np.isnan(lo) and np.isnan(hi)
    assert arg_lo == arg_hi == (1e60, 0.0)       # the first NaN candidate
    with pytest.raises(FloatingPointError):
        iterate_wcs(curves)


def test_second_iterate_composition(table, rng):
    composed, p_v, q_v, slope = second_iterate_v(
        build_bound_curves(DomainBox(0.6, 1.0, 0.2, PI / 3), 0.35, table), window=(0.6, 1.0))
    assert len(composed.coeffs) - 1 == 9
    f1 = table.coeffs_for(Region.R1, 0.35)["v"]
    inner = f1.partial_phi(PI / 3)
    outer = f1.partial_phi(0.2)
    for v in rng.uniform(0.6, 1.0, 1000):
        assert composed(float(v)) == pytest.approx(outer(inner(float(v))), abs=1e-10)
    assert p_v <= q_v
    assert abs(slope) < 1


def test_second_iterate_v_near_composite_fixed_point(table):
    rep = iterate_updates("FP", table=table)
    fb = rep.boxes[-1]
    _, p_v, q_v, _ = second_iterate_v(build_bound_curves(fb, 0.35, table),
                                      window=(fb.v_min - 0.05, fb.v_max + 0.05))
    assert p_v == pytest.approx(fb.v_min, abs=5e-3)
    assert q_v == pytest.approx(fb.v_max, abs=5e-3)


def test_second_iterate_phase_constant_envelopes():
    f1 = _linear_poly2d(0.5, 0.0, -0.2)
    g1 = _linear_poly2d(0.3, 0.4, 0.0)   # eta_U = 0.7, eta_L = 0.3 constants
    box = DomainBox(0.0, 1.0, 0.0, 1.0)
    curves = BoundCurves(box=box, f1=f1, g1=g1)
    p_phi, q_phi, slope = second_iterate_phase(curves, window=(0.0, 1.0))
    assert p_phi == pytest.approx(0.3, abs=1e-6)
    assert q_phi == pytest.approx(0.7, abs=1e-6)
    assert abs(slope) < 1e-6


def test_statement_cases(table):
    rep = iterate_updates("FP", table=table)
    assert statement61_case(rep.histories[-1]) == STATEMENT_PART1
    # decreasing curves contracting into the box interior keep the
    # extremizers excluded at every step
    f1 = _linear_poly2d(0.7, -0.2, -0.1)
    g1 = _linear_poly2d(0.7, -0.1, -0.2)
    curves = BoundCurves(box=DomainBox(0.0, 1.0, 0.0, 1.0), f1=f1, g1=g1)
    hist = iterate_wcs(curves)
    assert statement61_case(hist) == STATEMENT_PART1


def _per_record_statement(history):
    """statement61_case as it was before it read the stop from the history's
    converged flag, kept verbatim as the reference."""
    if len(history.records) < 2:
        return STATEMENT_INDETERMINATE
    exclusion_ok = True
    stabilized = history.converged
    for k, rec in enumerate(history.records):
        if k and _same_bounds(rec.as_tuple(), history.records[k - 1].as_tuple()):
            break
        iv, ip = rec.interval_v, rec.interval_phi
        inside = (iv[0] <= rec.argmax_xi_u <= iv[1]) or (iv[0] <= rec.argmin_xi_l <= iv[1]) \
            or (ip[0] <= rec.argmax_eta_u <= ip[1]) or (ip[0] <= rec.argmin_eta_l <= ip[1])
        if inside:
            exclusion_ok = False
    if exclusion_ok:
        return STATEMENT_PART1
    if stabilized:
        return STATEMENT_PART2
    return STATEMENT_INDETERMINATE


def _seeded_histories(table):
    """iterate_wcs histories on 20 seeded boxes at each of three d."""
    rng = np.random.default_rng(61)
    histories = []
    for d in (0.26, 0.30, 0.35):
        for _ in range(20):
            v_lo, v_hi = np.sort(rng.uniform(0.6, 1.0, 2))
            p_lo, p_hi = np.sort(rng.uniform(0.1, PI / 3, 2))
            box = DomainBox(v_lo, v_hi, p_lo, p_hi)
            histories.append(iterate_wcs(build_bound_curves(box, d, table)))
    return histories


@pytest.mark.filterwarnings("ignore::vipair.auxmap.EscapedBox")
def test_statement_reads_the_stop_from_the_converged_flag(table, monkeypatch):
    histories = [h for case in ("FP", "PD", "CD")
                 for h in iterate_updates(case, table=table).histories]
    histories += _seeded_histories(table)
    seen = set()
    for history in histories:
        assert statement61_case(history) == _per_record_statement(history)
        seen.add(statement61_case(history))
    assert seen == {STATEMENT_PART1, STATEMENT_PART2}
    # cut off before the intervals settle, most histories are indeterminate
    monkeypatch.setattr("vipair.auxmap.WCS_MAX_STEPS", 3)
    seen = set()
    for history in _seeded_histories(table):
        assert statement61_case(history) == _per_record_statement(history)
        seen.add((statement61_case(history), history.converged))
    assert {(STATEMENT_INDETERMINATE, False), (STATEMENT_PART1, False)} <= seen


def test_two_cycle_ordering_enforced():
    with pytest.raises(ValueError):
        TwoCycle(p_v=0.9, q_v=0.8, p_phi=0.3, q_phi=0.4, slope_v=0.1, slope_phi=0.1)


def test_domain_box_validation():
    with pytest.raises(ValueError):
        DomainBox(1.0, 0.9, 0.1, 0.2)
    box = DomainBox(0.5, 0.9, 0.1, 0.4)
    assert box.contains(0.7, 0.2)
    assert not box.contains(0.95, 0.2)
    assert box.widths == (pytest.approx(0.4), pytest.approx(0.3))


# Closed-form ranges and envelopes against dense brute force

BRUTE = 801
UNDER_COVER = 1e-12


def _assert_covers(poly, box):
    """The range and all four envelopes on box never under-cover a BRUTE x
    BRUTE evaluation, and the range's extremes are attained inside the box
    (so it is no wider than the true range); returns their locations."""
    vs = np.linspace(box.v_min, box.v_max, BRUTE)
    ps = np.linspace(box.phi_min, box.phi_max, BRUTE)
    vals = poly(vs[:, None], ps[None, :])
    lo, hi, arg_lo, arg_hi = _rect_range(_Curve(poly), (box.v_min, box.v_max),
                                         (box.phi_min, box.phi_max))
    assert lo <= vals.min() + UNDER_COVER and hi >= vals.max() - UNDER_COVER
    for (v, phi), val in ((arg_lo, lo), (arg_hi, hi)):
        assert box.contains(v, phi) and poly(v, phi) == pytest.approx(val, abs=1e-12)
    curves = BoundCurves(box=box, f1=poly, g1=poly)
    xi_l, xi_u = xi_range(curves, vs)
    assert np.all(xi_u >= vals.max(axis=1) - UNDER_COVER)
    assert np.all(xi_l <= vals.min(axis=1) + UNDER_COVER)
    assert np.all(curves.eta_u(ps) >= vals.max(axis=0) - UNDER_COVER)
    assert np.all(curves.eta_l(ps) <= vals.min(axis=0) + UNDER_COVER)
    return arg_lo, arg_hi


@pytest.mark.parametrize("d", [0.35, 0.30, 0.26])
def test_ranges_never_under_cover_r1_maps(table, d):
    maps = table.coeffs_for(Region.R1, d)
    rng = np.random.default_rng(int(d * 1000))
    for _ in range(20):
        v_lo, v_hi = np.sort(rng.uniform(0.3, 1.3, 2))
        p_lo, p_hi = np.sort(rng.uniform(0.0, 1.8, 2))
        box = DomainBox(v_lo, v_hi, p_lo, p_hi)
        _assert_covers(maps["v"], box)
        _assert_covers(maps["phi"], box)


def test_ranges_never_under_cover_each_candidate_branch():
    # concave bump: interior critical point at (0.5, 0.4), and a phi-vertex
    # inside the box for every v
    bump = _terms_poly2d({(0, 1): 1.0, (0, 2): -1.0, (1, 0): 0.8, (2, 0): -1.0,
                          (1, 1): 0.05, (0, 3): 0.02})
    box = DomainBox(0.0, 1.0, 0.0, 1.0)
    _, arg_hi = _assert_covers(bump, box)
    assert 0.0 < arg_hi[0] < 1.0 and 0.0 < arg_hi[1] < 1.0
    curves = BoundCurves(box=box, f1=bump, g1=bump)
    assert xi_range(curves, 0.5)[1] > max(bump(0.5, 0.0), bump(0.5, 1.0)) + 0.1
    # A == 0: linear in phi, saddle-only interior
    linear_phi = _terms_poly2d({(0, 3): 1.0, (0, 1): -1.0, (1, 1): 0.5, (1, 0): -0.2})
    # convex in v along the phi-edges: edge critical points
    cubic_edges = _terms_poly2d({(0, 3): -2.0, (0, 2): 3.0, (2, 0): 0.7, (2, 1): -0.4,
                                 (1, 2): 0.3})
    rng = np.random.default_rng(11)
    for poly in (bump, linear_phi, cubic_edges):
        for _ in range(5):
            v_lo, v_hi = np.sort(rng.uniform(-0.5, 1.5, 2))
            p_lo, p_hi = np.sort(rng.uniform(-0.5, 1.5, 2))
            _assert_covers(poly, DomainBox(v_lo, v_hi, p_lo, p_hi))
        # zero-width boxes: a phase segment, a velocity segment and a point
        for box in (DomainBox(0.7, 1.0, 0.4, 0.4), DomainBox(0.45, 0.45, 0.0, 1.0),
                    DomainBox(0.3, 0.3, 0.6, 0.6)):
            _assert_covers(poly, box)


def test_rect_range_rejects_other_shapes():
    exps = tuple(poly2d_exponents(3, 3))
    with pytest.raises(ValueError):
        _rect_range(_Curve(Poly2D(exponents=exps, coeffs=np.ones(len(exps)))),
                    (0.0, 1.0), (0.0, 1.0))


# Frozen reference: the sampled envelopes (201 x 1001 grids) that the closed
# forms replaced, on this tree's region-1 maps.  Each envelope value is the
# extreme over INNER_GRID samples of the box; each WCS range the extreme over
# ENVELOPE_GRID nodes of the clipped interval, with argmax/argmin extremizers.
# xi takes the phase-end branch that dominates on the sampled v-interval, and
# samples the phase interval where the branches cross.  Patched into
# iterate_updates, they give the boxes the closed forms differ from by the
# sampling error only, from whichever table is shipped.
INNER_GRID = 1001
ENVELOPE_GRID = 201


def _sampled_extreme(vals, upper):
    """Max (upper) or min over each row; a float for a single row."""
    out = np.max(vals, axis=1) if upper else np.min(vals, axis=1)
    return out if out.shape != (1,) else float(out[0])


def _sampled_xi(curves, v, upper):
    box = curves.box
    at_min, at_max = curves.phase_branches()
    v_src = np.linspace(box.v_min, box.v_max, INNER_GRID)
    if np.all(at_min(v_src) >= at_max(v_src)):
        return (at_min if upper else at_max)(v)
    if np.all(at_max(v_src) >= at_min(v_src)):
        return (at_max if upper else at_min)(v)
    phi_src = np.linspace(box.phi_min, box.phi_max, INNER_GRID)
    v = np.atleast_1d(np.asarray(v, dtype=float))
    return _sampled_extreme(curves.f1(v[:, None], phi_src[None, :]), upper)


def _sampled_eta(curves, phi, upper):
    v_src = np.linspace(curves.box.v_min, curves.box.v_max, INNER_GRID)
    phi = np.atleast_1d(np.asarray(phi, dtype=float))
    return _sampled_extreme(curves.g1(v_src[None, :], phi[:, None]), upper)


def _sampled_wcs_step(curves, interval_v, interval_phi):
    box = curves.box
    iv = _clip_to(interval_v, box.v_min, box.v_max)
    ip = _clip_to(interval_phi, box.phi_min, box.phi_max)
    vv = np.linspace(iv[0], iv[1], ENVELOPE_GRID)
    up, lo = _sampled_xi(curves, vv, True), _sampled_xi(curves, vv, False)
    pp = np.linspace(ip[0], ip[1], ENVELOPE_GRID)
    e_up, e_lo = _sampled_eta(curves, pp, True), _sampled_eta(curves, pp, False)
    return WcsRecord(interval_v=(float(np.min(lo)), float(np.max(up))),
                     interval_phi=(float(np.min(e_lo)), float(np.max(e_up))),
                     argmax_xi_u=float(vv[np.argmax(up)]), argmin_xi_l=float(vv[np.argmin(lo)]),
                     argmax_eta_u=float(pp[np.argmax(e_up)]),
                     argmin_eta_l=float(pp[np.argmin(e_lo)]))


@pytest.fixture(scope="module")
def sampled_reports(table):
    """iterate_updates of each case with the sampled WCS step and phase
    envelopes (the 2-cycle's eta_L(eta_U(.)) scan reads the envelopes)."""
    with pytest.MonkeyPatch.context() as mp, warnings.catch_warnings():
        warnings.simplefilter("ignore", EscapedBox)
        mp.setattr("vipair.auxmap.wcs_step", _sampled_wcs_step)
        mp.setattr(BoundCurves, "eta_u", lambda self, phi: _sampled_eta(self, phi, True))
        mp.setattr(BoundCurves, "eta_l", lambda self, phi: _sampled_eta(self, phi, False))
        return {case: iterate_updates(case, table=table) for case in CASES}


def _cycle(rep):
    c = rep.two_cycle
    return c.p_v, c.q_v, c.p_phi, c.q_phi, c.slope_v, c.slope_phi


@pytest.mark.filterwarnings("ignore::vipair.auxmap.EscapedBox")
@pytest.mark.parametrize("case", ["FP", "PD", "CD"])
def test_update_sequence_matches_sampled_boxes(table, sampled_reports, case):
    rep = iterate_updates(case, table=table)
    old = [box.as_tuple() for box in sampled_reports[case].boxes]
    assert len(rep.boxes) == len(old)
    for k, (box, want) in enumerate(zip(rep.boxes, old)):
        tol = 2e-6 if case == "CD" and k == len(old) - 1 else 5e-7
        assert np.allclose(box.as_tuple(), want, rtol=0.0, atol=tol)
    if case == "FP":
        assert rep.statement_case == STATEMENT_PART1 and not rep.escaped
        cycle = _cycle(rep)
        assert all(type(x) is float for x in cycle)
        assert np.allclose(cycle, _cycle(sampled_reports[case]), rtol=0.0, atol=1e-8)
    else:
        assert rep.statement_case == STATEMENT_PART2 and rep.escaped


# Frozen reference: the numpy.polynomial candidate helpers, range and
# envelopes that preceded the Python-float candidates, kept verbatim apart
# from evaluating the map through term_loop (the Poly2D of that time).  The
# production code must return bit-identical results; xi, whose methods are
# gone, is taken by the ranges (xi_range).


def _old_phi_candidates(grid, v, lo, hi):
    P = np.polynomial.polynomial
    c, b, a = (P.polyval(v, row) for row in grid)
    with np.errstate(divide="ignore", invalid="ignore"):
        vertex = np.clip(np.nan_to_num(-b / (2.0 * a), nan=lo), lo, hi)
    return np.stack(np.broadcast_arrays(lo, hi, vertex))


def _old_v_candidates(grid, phi, lo, hi):
    P = np.polynomial.polynomial
    _, c1, c2, c3 = (P.polyval(phi, col) for col in grid.T)
    qa, qb = 3.0 * c3, 2.0 * c2
    q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(qb * qb - 4.0 * qa * c1, 0.0)), qb))
    with np.errstate(divide="ignore", invalid="ignore"):
        roots = (np.clip(np.nan_to_num(r, nan=lo), lo, hi) for r in (q / qa, c1 / q))
        return np.stack(np.broadcast_arrays(lo, hi, *roots))


def _old_rect_range(poly, v_range, phi_range):
    P = np.polynomial.polynomial
    grid = _coeff_grid(poly)
    (v0, v1), (p0, p1) = v_range, phi_range
    along_v = _old_v_candidates(grid, np.array([p0, p1]), v0, v1)
    along_phi = _old_phi_candidates(grid, np.array([v0, v1]), p0, p1)
    c, b, a = grid
    n = P.polyadd(P.polysub(4.0 * P.polymul(P.polymul(a, a), P.polyder(c)),
                            2.0 * P.polymul(P.polymul(a, b), P.polyder(b))),
                  P.polymul(P.polyder(a), P.polymul(b, b)))
    roots = P.polyroots(n)
    roots = roots.real[np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots))]
    roots = roots[(roots >= v0) & (roots <= v1)]
    a_v = P.polyval(roots, a)
    with np.errstate(divide="ignore", invalid="ignore"):
        phi_star = -P.polyval(roots, b) / (2.0 * a_v)
    inside = (a_v != 0.0) & (phi_star >= p0) & (phi_star <= p1)
    vs = np.concatenate([along_v.ravel(), np.broadcast_to([v0, v1], along_phi.shape).ravel(),
                         roots[inside]])
    ps = np.concatenate([np.broadcast_to([p0, p1], along_v.shape).ravel(), along_phi.ravel(),
                         phi_star[inside]])
    vals = term_loop(poly, vs, ps)
    lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
    return (float(vals[lo]), float(vals[hi]),
            (float(vs[lo]), float(ps[lo])), (float(vs[hi]), float(ps[hi])))


def _old_envelopes(poly, box, vs, ps):
    """(xi_u, xi_l, eta_u, eta_l) at the velocities vs and phases ps."""
    grid = _coeff_grid(poly)
    fx = term_loop(poly, vs, _old_phi_candidates(grid, vs, box.phi_min, box.phi_max))
    gy = term_loop(poly, _old_v_candidates(grid, ps, box.v_min, box.v_max), ps)
    return fx.max(axis=0), fx.min(axis=0), gy.max(axis=0), gy.min(axis=0)


def _bits(values):
    return np.asarray(values, dtype=float).tobytes()


def _assert_same_as_frozen(poly, box, rng):
    v_range, phi_range = (box.v_min, box.v_max), (box.phi_min, box.phi_max)
    # every edge candidate, bit for bit (signed zeros included), at the box's
    # edges, at sampled points and at v = 0 / phi = 0, where linear maps give
    # 0/0 and x/0 divisions
    curve = _Curve(poly)
    vs = np.concatenate([[box.v_min, box.v_max, 0.0], rng.uniform(*v_range, 10)])
    ps = np.concatenate([[box.phi_min, box.phi_max, 0.0], rng.uniform(*phi_range, 10)])
    for v in vs:
        old = _old_phi_candidates(curve.grid, v, *phi_range)[2]
        assert _bits(curve.phi_vertex(float(v), *phi_range)) == _bits(old)
    for phi in ps:
        old = _old_v_candidates(curve.grid, phi, *v_range)[2:]
        assert _bits(curve.v_roots(float(phi), *v_range)) == _bits(old)
    want = _old_rect_range(poly, v_range, phi_range)
    assert _rect_range(_Curve(poly), v_range, phi_range) == want
    # through one curve's invariants, as wcs_step calls it: sub-intervals of
    # one coordinate against the box's full other interval
    assert _rect_range(curve, v_range, phi_range) == want
    sub_v = tuple(np.sort(rng.uniform(*v_range, 2)))
    sub_phi = tuple(np.sort(rng.uniform(*phi_range, 2)))
    assert _rect_range(curve, sub_v, phi_range) == _old_rect_range(poly, sub_v, phi_range)
    assert _rect_range(curve, v_range, sub_phi) == _old_rect_range(poly, v_range, sub_phi)
    curves = BoundCurves(box=box, f1=poly, g1=poly)
    vs = np.concatenate([[box.v_min, box.v_max], rng.uniform(*v_range, 30)])
    ps = np.concatenate([[box.phi_min, box.phi_max], rng.uniform(*phi_range, 30)])
    xi_l, xi_u = xi_range(curves, vs)
    got = (xi_u, xi_l, curves.eta_u(ps), curves.eta_l(ps))
    for new, old in zip(got, _old_envelopes(poly, box, vs, ps)):
        assert np.array_equal(new, old, equal_nan=True)
    for k in (0, 5):   # a scalar eta is a float equal to the array's element
        got = (curves.eta_u(ps[k]), curves.eta_l(ps[k]))
        old = _old_envelopes(poly, box, vs[k:k + 1], ps[k:k + 1])[2:]
        assert all(type(x) is float for x in got)
        assert got == tuple(float(x[0]) for x in old)


def test_ranges_match_frozen_numpy_polynomial_code(table):
    rng = np.random.default_rng(2024)
    polys = []
    for d in (0.26, 0.30, 0.35):
        maps = table.coeffs_for(Region.R1, d)
        polys += [maps["v"], maps["phi"]]
    for poly in polys:
        for _ in range(15):
            v_lo, v_hi = np.sort(rng.uniform(0.3, 1.3, 2))
            p_lo, p_hi = np.sort(rng.uniform(0.0, 1.8, 2))
            _assert_same_as_frozen(poly, DomainBox(v_lo, v_hi, p_lo, p_hi), rng)
    # the synthetic maps of test_ranges_never_under_cover_each_candidate_branch
    # (interior extremum, A == 0, cubic edges), and linear maps, whose zero
    # divisors reach the nan and +-inf branches of the clip
    synthetic = [
        _terms_poly2d({(0, 1): 1.0, (0, 2): -1.0, (1, 0): 0.8, (2, 0): -1.0,
                       (1, 1): 0.05, (0, 3): 0.02}),
        _terms_poly2d({(0, 3): 1.0, (0, 1): -1.0, (1, 1): 0.5, (1, 0): -0.2}),
        _terms_poly2d({(0, 3): -2.0, (0, 2): 3.0, (2, 0): 0.7, (2, 1): -0.4, (1, 2): 0.3}),
        _linear_poly2d(0.5, 0.3, -0.2),
        _linear_poly2d(0.5, 0.0, -0.2),
        _linear_poly2d(0.0, 0.0, 0.0),
    ]
    for poly in synthetic:
        for _ in range(10):
            v_lo, v_hi = np.sort(rng.uniform(-0.5, 1.5, 2))
            p_lo, p_hi = np.sort(rng.uniform(-0.5, 1.5, 2))
            _assert_same_as_frozen(poly, DomainBox(v_lo, v_hi, p_lo, p_hi), rng)
    # zero-width boxes: a phase segment, a velocity segment and a point
    for poly in polys + synthetic:
        for box in (DomainBox(0.7, 1.0, 0.4, 0.4), DomainBox(0.45, 0.45, 0.0, 1.0),
                    DomainBox(0.3, 0.3, 0.6, 0.6)):
            _assert_same_as_frozen(poly, box, rng)


# The phase envelopes and the crossing flag in the forms that preceded the
# candidate lists and phase_branches: the candidates stacked into arrays and
# evaluated through Poly2D's n-d path, and the gap of the two phase-endpoint
# branches taken from the coefficient grid.

def _stacked(lo, hi, per_point, k, shape):
    extra = np.array(per_point, dtype=float).reshape(-1, k).T.reshape((k,) + shape)
    return np.stack(np.broadcast_arrays(lo, hi, *extra))


def _stacked_eta(curves, ps):
    """(eta_u, eta_l) at the phases ps."""
    box = curves.box
    ps = np.asarray(ps, dtype=float)
    roots = [curves._g.v_roots(x, box.v_min, box.v_max) for x in ps.ravel().tolist()]
    gy = curves.g1(_stacked(box.v_min, box.v_max, roots, 2, ps.shape), ps)
    return gy.max(axis=0), gy.min(axis=0)


def _grid_crossing(curves):
    P = np.polynomial.polynomial
    box = curves.box
    gap = P.polysub(P.polyval(box.phi_min, curves._f.grid), P.polyval(box.phi_max, curves._f.grid))
    real = P.polyroots(gap)
    real = real.real[real.imag == 0.0]
    return bool(np.any((real > box.v_min) & (real < box.v_max)))


@pytest.mark.filterwarnings("ignore::vipair.auxmap.EscapedBox")
def test_envelopes_equal_the_stacked_form(table, supplement):
    rng = np.random.default_rng(28)
    special = [np.nan, np.inf, -np.inf, 0.0, -0.0]
    for tbl, case in itertools.product((table, supplement), CASES):
        d = CASES[case][0]
        boxes = iterate_updates(case, table=tbl).boxes
        for box in (boxes[0], boxes[-1]):
            curves = build_bound_curves(box, d, tbl)
            ps = np.concatenate([rng.uniform(box.phi_min - 0.2, box.phi_max + 0.2, 300), special])
            inputs = [ps, ps[:300].reshape(15, 20), np.zeros((0, 3))]
            inputs += list(ps[::29])                                            # np.float64
            inputs += ps[::31].tolist() + special
            for y in inputs:
                got = (curves.eta_u(y), curves.eta_l(y))
                with np.errstate(all="ignore"):
                    want = _stacked_eta(curves, y)
                for new, old in zip(got, want):
                    if old.ndim:
                        assert new.shape == old.shape and new.tobytes() == old.tobytes()
                    else:
                        assert type(new) is float
                        assert np.float64(new).tobytes() == old.tobytes(), (case, y)


@pytest.mark.filterwarnings("ignore::vipair.composite.ExtrapolationWarning")
def test_crossing_flag_equals_the_coefficient_grid_form(table, supplement):
    rng = np.random.default_rng(2808)
    flags = []
    for tbl, d in itertools.product((table, supplement), np.linspace(0.25, 0.36, 23)):
        curves = build_bound_curves(r1_plus("FP"), d, tbl)
        for _ in range(220):
            v_lo, v_hi = np.sort(rng.uniform(0.3, 1.3, 2))
            p_lo, p_hi = np.sort(rng.uniform(0.0, 1.8, 2))
            moved = curves.on(DomainBox(v_lo, v_hi, p_lo, p_hi))
            flags.append(moved.crossing_detected)
            assert moved.crossing_detected == _grid_crossing(moved), (d, moved.box)
    assert len(flags) >= 10_000 and 0 < sum(flags) < len(flags)
