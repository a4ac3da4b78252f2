import numpy as np
import pytest

from vipair.auxmap import (
    BoundCurves,
    _rect_range,
    DomainBox,
    EscapedBox,
    STATEMENT_PART1,
    STATEMENT_PART2,
    TwoCycle,
    build_bound_curves,
    generic_cobweb,
    iterate_updates,
    iterate_wcs,
    r1_plus,
    second_iterate_phase,
    second_iterate_v,
    statement61_case,
    update_region,
    wcs_step,
)
from vipair.composite import Poly2D, Region
from vipair.fitting import poly2d_exponents

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
    assert np.all(curves.xi_u(vs) >= curves.xi_l(vs) - 1e-12)
    assert np.all(curves.eta_u(ps) >= curves.eta_l(ps) - 1e-12)
    # envelopes dominate the 2D maps on the box (sampled)
    rng = np.random.default_rng(3)
    rv = rng.uniform(box.v_min, box.v_max, 1000)
    rp = rng.uniform(box.phi_min, box.phi_max, 1000)
    f1, g1 = curves.f1, curves.g1
    assert np.all(f1(rv, rp) <= curves.xi_u(rv) + 1e-6)
    assert np.all(f1(rv, rp) >= curves.xi_l(rv) - 1e-6)
    assert np.all(g1(rv, rp) <= curves.eta_u(rp) + 1e-6)
    assert np.all(g1(rv, rp) >= curves.eta_l(rp) - 1e-6)


def test_degenerate_phase_box_collapses_xi():
    f1 = _linear_poly2d(0.5, 0.3, -0.2)
    g1 = _linear_poly2d(0.3, 0.1, 0.5)
    box = DomainBox(0.7, 1.0, 0.4, 0.4)
    curves = BoundCurves(box=box, d=0.3, f1=f1, g1=g1)
    vs = np.linspace(0.7, 1.0, 9)
    assert np.allclose(curves.xi_u(vs), curves.xi_l(vs))


def test_wcs_step_constant_curves():
    # f1 linear in phi only: xi_U and xi_L are distinct constants in v
    f1 = _linear_poly2d(0.5, 0.0, -0.2)
    g1 = _linear_poly2d(0.3, 0.0, 0.4)
    box = DomainBox(0.0, 1.0, 0.0, 1.0)
    curves = BoundCurves(box=box, d=0.3, f1=f1, g1=g1)
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


def test_generic_cobweb_matches_wcs_for_decreasing_curves():
    # strictly decreasing branches: the generic tail equals the WCS interval
    f1 = _linear_poly2d(1.2, -0.5, -0.1)
    g1 = _linear_poly2d(1.0, -0.1, -0.5)
    box = DomainBox(0.2, 1.0, 0.2, 1.0)
    curves = BoundCurves(box=box, d=0.3, f1=f1, g1=g1)
    hist = iterate_wcs(curves)
    orbit, extrema = generic_cobweb(curves, (0.5, 0.5), steps=400)
    assert extrema[0] == pytest.approx(hist.final.interval_v[0], abs=1e-6)
    assert extrema[1] == pytest.approx(hist.final.interval_v[1], abs=1e-6)


def test_generic_cobweb_period_two_from_cycle_point():
    f1 = _linear_poly2d(1.2, -0.5, -0.1)
    g1 = _linear_poly2d(1.0, -0.1, -0.5)
    box = DomainBox(0.2, 1.0, 0.2, 1.0)
    curves = BoundCurves(box=box, d=0.3, f1=f1, g1=g1)
    # starting at the fixed point of xi_L(xi_U(.)) (upper branch applied
    # first) makes the orbit exactly period 2
    xi_u, xi_l = curves.xi_u, curves.xi_l
    v = 0.6
    for _ in range(200):
        v = xi_l(xi_u(v))
    phi = 0.5
    for _ in range(200):
        phi = curves.eta_l(curves.eta_u(phi))
    orbit, _ = generic_cobweb(curves, (v, phi), steps=50)
    vs = orbit[:, 0]
    assert np.allclose(vs[::2], vs[0], atol=1e-9)
    assert np.allclose(vs[1::2], xi_u(vs[0]), atol=1e-9)


def test_update_region_contracts_fp(table):
    box = r1_plus("FP")
    curves = build_bound_curves(box, 0.35, table)
    new_box, hist = update_region(curves, box)
    assert hist.converged
    assert new_box.index == 2
    assert new_box.v_min > box.v_min and new_box.v_max < box.v_max
    assert new_box.phi_min > box.phi_min and new_box.phi_max < box.phi_max
    # the paper's first-update velocity interval is reproduced closely
    assert new_box.v_min == pytest.approx(0.771, abs=0.01)
    assert new_box.v_max == pytest.approx(0.909, abs=0.01)


def test_iterate_updates_fp(table):
    rep = iterate_updates("FP", table=table)
    assert not rep.escaped
    assert rep.statement_case == STATEMENT_PART1
    widths = rep.widths_table()
    assert np.all(np.diff(widths[:, 1]) <= 1e-12)  # v widths non-increasing
    assert np.all(np.diff(widths[:, 2]) <= 1e-12)
    final = rep.final_box
    assert final.widths[0] < 1e-2 and final.widths[1] < 1e-2
    # the composite fixed point lies inside every update's box
    from vipair.composite import CompositeMap

    v, phi, _ = CompositeMap(table=table, d=0.35).iterate(0.75, 0.4, 400)
    for box in rep.boxes:
        assert box.contains(v[-1], phi[-1], slack=1e-3)
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


def test_second_iterate_composition(table, rng):
    composed, p_v, q_v, slope = second_iterate_v(0.35, 0.2, PI / 3, table,
                                                 box_v=(0.6, 1.0))
    assert composed.degree == 9
    f1 = table.coeffs_for(Region.R1, 0.35)["v"]
    inner = f1.partial_phi(PI / 3)
    outer = f1.partial_phi(0.2)
    for v in rng.uniform(0.6, 1.0, 1000):
        assert composed(float(v)) == pytest.approx(outer(inner(float(v))), abs=1e-10)
    assert p_v <= q_v
    assert abs(slope) < 1


def test_second_iterate_v_near_composite_fixed_point(table):
    rep = iterate_updates("FP", table=table)
    fb = rep.final_box
    _, p_v, q_v, _ = second_iterate_v(0.35, fb.phi_min, fb.phi_max, table,
                                      box_v=(fb.v_min - 0.05, fb.v_max + 0.05))
    assert p_v == pytest.approx(fb.v_min, abs=5e-3)
    assert q_v == pytest.approx(fb.v_max, abs=5e-3)


def test_second_iterate_phase_constant_envelopes():
    f1 = _linear_poly2d(0.5, 0.0, -0.2)
    g1 = _linear_poly2d(0.3, 0.4, 0.0)   # eta_U = 0.7, eta_L = 0.3 constants
    box = DomainBox(0.0, 1.0, 0.0, 1.0)
    curves = BoundCurves(box=box, d=0.3, f1=f1, g1=g1)
    p_phi, q_phi, slope = second_iterate_phase(curves)
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
    curves = BoundCurves(box=DomainBox(0.0, 1.0, 0.0, 1.0), d=0.3, f1=f1, g1=g1)
    hist = iterate_wcs(curves)
    assert statement61_case(hist) == STATEMENT_PART1


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
    lo, hi, arg_lo, arg_hi = _rect_range(poly, (box.v_min, box.v_max),
                                         (box.phi_min, box.phi_max))
    assert lo <= vals.min() + UNDER_COVER and hi >= vals.max() - UNDER_COVER
    for (v, phi), val in ((arg_lo, lo), (arg_hi, hi)):
        assert box.contains(v, phi) and poly(v, phi) == pytest.approx(val, abs=1e-12)
    curves = BoundCurves(box=box, d=0.3, f1=poly, g1=poly)
    assert np.all(curves.xi_u(vs) >= vals.max(axis=1) - UNDER_COVER)
    assert np.all(curves.xi_l(vs) <= vals.min(axis=1) + UNDER_COVER)
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
    curves = BoundCurves(box=box, d=0.3, f1=bump, g1=bump)
    assert curves.xi_u(0.5) > max(bump(0.5, 0.0), bump(0.5, 1.0)) + 0.1
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
        _rect_range(Poly2D(exponents=exps, coeffs=np.ones(len(exps))),
                    (0.0, 1.0), (0.0, 1.0))


# iterate_updates with the sampled envelopes (201 x 1001 grids) this module
# replaced; the closed-form boxes differ from them by the sampling error only
SAMPLED_BOXES = {
    "FP": [
        (0.70, 1.0, 0.20, PI / 3),
        (0.770697159997028, 0.9018702781812507, 0.32580693210306055, 0.6627194214008811),
        (0.7793960164281102, 0.865077017381017, 0.33083465561055636, 0.4703162632071143),
        (0.8061136879368521, 0.8523111962794097, 0.3334665403785104, 0.45124703370559516),
        (0.8101150420537764, 0.8499643354645058, 0.34216328085601866, 0.403040892899591),
        (0.8214726782528796, 0.8430923346870369, 0.3441491355054853, 0.3966990559360841),
        (0.8231652109297952, 0.8419246431989083, 0.35161812475869025, 0.37972964889430294),
        (0.82805111798101, 0.8382000779965464, 0.35300694593457793, 0.37734009361920506),
        (0.8287899837462958, 0.8375852081267191, 0.35754867467980356, 0.3706372750778808),
        (0.8309506419249357, 0.8356935386403543, 0.3583134787338569, 0.3696486870819413),
        (0.831281778812185, 0.835390377845313, 0.3606894181596396, 0.3667929574772013),
    ],
    "PD": [
        (0.65, 1.0, 0.13, PI / 3),
        (0.6050860418998947, 1.248002193615724, 0.21179528367665812, 1.7315782607337908),
    ],
    "CD": [
        (0.64, 1.0, 0.08, PI / 3),
        (0.3466540867725325, 2.0000468023796962, 0.11743908492815125, 5.0420865388782605),
    ],
}
SAMPLED_FP_CYCLE = (0.8312817788133622, 0.8353903778439946, 0.3606894185925231,
                    0.36679295696346914, 0.16836506134067264, 0.24385855490471897)


@pytest.mark.filterwarnings("ignore::vipair.auxmap.EscapedBox")
@pytest.mark.parametrize("case", ["FP", "PD", "CD"])
def test_update_sequence_matches_sampled_boxes(table, case):
    rep = iterate_updates(case, table=table)
    old = SAMPLED_BOXES[case]
    assert len(rep.boxes) == len(old)
    for k, (box, want) in enumerate(zip(rep.boxes, old)):
        tol = 2e-6 if case == "CD" and k == len(old) - 1 else 5e-7
        assert np.allclose(box.as_tuple(), want, rtol=0.0, atol=tol)
    if case == "FP":
        assert rep.statement_case == STATEMENT_PART1 and not rep.escaped
        cycle = (rep.two_cycle.p_v, rep.two_cycle.q_v, rep.two_cycle.p_phi,
                 rep.two_cycle.q_phi, rep.two_cycle.slope_v, rep.two_cycle.slope_phi)
        assert all(type(x) is float for x in cycle)
        assert np.allclose(cycle, SAMPLED_FP_CYCLE, rtol=0.0, atol=1e-8)
    else:
        assert rep.statement_case == STATEMENT_PART2 and rep.escaped
