import numpy as np
import pytest

from vipair.auxmap import (
    BoundCurves,
    _Curve,
    _coeff_grid,
    _rect_range,
    DomainBox,
    EscapedBox,
    STATEMENT_INDETERMINATE,
    STATEMENT_PART1,
    STATEMENT_PART2,
    TwoCycle,
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

PI = np.pi


def _grown(box, by=1e-3):
    """box widened by `by` on every side."""
    return DomainBox(box.v_min - by, box.v_max + by, box.phi_min - by, box.phi_max + by)


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
    curves = BoundCurves(box=box, f1=f1, g1=g1)
    vs = np.linspace(0.7, 1.0, 9)
    assert np.allclose(curves.xi_u(vs), curves.xi_l(vs))


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
        assert _grown(box).contains(v[-1], phi[-1])
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
    curves = BoundCurves(box=box, f1=bump, g1=bump)
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
        _rect_range(_Curve(Poly2D(exponents=exps, coeffs=np.ones(len(exps)))),
                    (0.0, 1.0), (0.0, 1.0))


# iterate_updates with the sampled envelopes (201 x 1001 grids) this module
# replaced, on the shipped table; the closed-form boxes differ from them by the
# sampling error only.  When the table changes, regenerate them with
# `python scripts/sampled_boxes.py`, which runs the sampled envelopes of the
# last commit that had them on the shipped table.
SAMPLED_BOXES = {
    "FP": [
        (0.70, 1.0, 0.20, PI / 3),
        (0.7706972136675392, 0.9018702763230244, 0.3258074278826508, 0.6627188705145381),
        (0.7793961313552666, 0.865076877020679, 0.3308351811943431, 0.4703159880729455),
        (0.806113821540372, 0.8523110439545041, 0.3334670792279524, 0.4512466990717092),
        (0.8101151925939778, 0.8499641741067032, 0.34216381268242557, 0.40304076002961553),
        (0.8214727909219862, 0.8430921961022718, 0.3441496808299864, 0.39669892793052464),
        (0.8231653241250546, 0.8419245023454135, 0.35161864132453546, 0.37972968103241955),
        (0.828051188805659, 0.8381999648202614, 0.3530074607392861, 0.37734014089381507),
        (0.8287900503378114, 0.8375850976825819, 0.357549138713253, 0.3706374262388281),
        (0.830950675890732, 0.8356934545794976, 0.3583139360168448, 0.3696488506169988),
        (0.8312818086986952, 0.835390297200889, 0.3606898310793367, 0.3667931831293525),
    ],
    "PD": [
        (0.65, 1.0, 0.13, PI / 3),
        (0.6050861120812976, 1.2480022991645097, 0.21179536984425917, 1.7315782958246366),
    ],
    "CD": [
        (0.64, 1.0, 0.08, PI / 3),
        (0.3466541411946966, 2.0000468869195807, 0.11743926357296575, 5.042086842911877),
    ],
}
SAMPLED_FP_CYCLE = (0.8312818086996121, 0.8353902972002103, 0.3606898315117102,
                    0.3667931826159019, 0.16836496790623912, 0.2438574246976799)


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


# Frozen reference: the numpy.polynomial candidate helpers, range and
# envelopes that preceded the Python-float candidates, kept verbatim apart
# from evaluating the map through _old_poly2d (the term loop of that time).
# The production code must return bit-identical results.

def _old_poly2d(poly, v, phi):
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(np.broadcast(v, phi).shape)
    for (i, j), c in zip(poly.exponents, poly.coeffs):
        out += c * phi**i * v**j
    return out


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
    vals = _old_poly2d(poly, vs, ps)
    lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
    return (float(vals[lo]), float(vals[hi]),
            (float(vs[lo]), float(ps[lo])), (float(vs[hi]), float(ps[hi])))


def _old_envelopes(poly, box, vs, ps):
    """(xi_u, xi_l, eta_u, eta_l) at the velocities vs and phases ps."""
    grid = _coeff_grid(poly)
    fx = _old_poly2d(poly, vs, _old_phi_candidates(grid, vs, box.phi_min, box.phi_max))
    gy = _old_poly2d(poly, _old_v_candidates(grid, ps, box.v_min, box.v_max), ps)
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
    got = (curves.xi_u(vs), curves.xi_l(vs), curves.eta_u(ps), curves.eta_l(ps))
    for new, old in zip(got, _old_envelopes(poly, box, vs, ps)):
        assert np.array_equal(new, old, equal_nan=True)
    for k in (0, 5):   # a scalar is a float equal to the array's element
        got = (curves.xi_u(vs[k]), curves.xi_l(vs[k]), curves.eta_u(ps[k]), curves.eta_l(ps[k]))
        old = _old_envelopes(poly, box, vs[k:k + 1], ps[k:k + 1])
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
