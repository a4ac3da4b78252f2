"""Auxiliary 1D bound maps and worst-case-scenario interval iteration.

The 2D region-1 map (f1, g1) is bracketed by four 1D curves on a rectangular
box: xi_U/xi_L bound the velocity map over the box's phase interval, and
eta_U/eta_L bound the phase map over the box's velocity interval.  Iterating
the interval images of these curves (the worst-case-scenario step) bounds
every trajectory of the composite map that stays in the box; re-building the
curves on the converged interval and repeating contracts the box onto the
attracting domain, whose final size is set by a stable 2-cycle of the bound
curves.

Region 1's maps have phase degree <= 2 and velocity degree <= 3, so the
envelopes and the WCS ranges are exact closed forms: each extremum is the
best of a short list of candidate points (box corners, edge critical points
and interior critical points; Garloff 1986, Moore, Kearfott & Cloud 2009).
They enclose the fitted polynomial maps up to floating-point rounding, not
the exact dynamics.  The per-map invariants (coefficient grid and interior
critical points) do not depend on the box and are computed once per case.
Each WCS range and each envelope value is a list of candidate points, built
in Python floats with the operations of numpy.polynomial and evaluated by
Poly2D.at_points.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import InitVar, dataclass, field

import numpy as np

# load_table is not called here, but bench/tracing.py patches it on this module
from .composite import CoeffTable, Poly1D, Poly2D, Region, horner, load_table
from .fitting import compose

PI = np.pi

ENVELOPE_GRID = 201          # 2-cycle scan points of the phase envelopes
WCS_MAX_STEPS = 400
WCS_TOL = 1e-9
BISECT_TOL = 1e-12
ROOT_SCAN = 1e-3


class NoStableRoot(RuntimeError):
    pass


class EscapedBox(Warning):
    """An updated box left the map's trust region."""


@dataclass(frozen=True)
class DomainBox:
    """Rectangular state-space region [v_min, v_max] x [phi_min, phi_max]."""

    v_min: float
    v_max: float
    phi_min: float
    phi_max: float

    def __post_init__(self):
        if self.v_min > self.v_max or self.phi_min > self.phi_max:
            raise ValueError(f"empty box {self}")

    @property
    def widths(self) -> tuple[float, float]:
        return self.v_max - self.v_min, self.phi_max - self.phi_min

    def contains(self, v: float, phi: float) -> bool:
        return self.v_min <= v <= self.v_max and self.phi_min <= phi <= self.phi_max

    def as_tuple(self):
        return self.v_min, self.v_max, self.phi_min, self.phi_max


# case -> (d, number of updates, enlarged region-1 box R1+)
CASES = {
    "FP": (0.35, 11, (0.70, 1.0, 0.20, PI / 3)),
    "PD": (0.30, 11, (0.65, 1.0, 0.13, PI / 3)),
    "CD": (0.26, 6, (0.64, 1.0, 0.08, PI / 3)),
}


def r1_plus(case: str) -> DomainBox:
    """The enlarged region-1 box anchoring the auxiliary construction."""
    if case not in CASES:
        raise ValueError(f"case must be one of {sorted(CASES)}, got {case!r}")
    return DomainBox(*CASES[case][2])


def _coeff_grid(poly: Poly2D) -> np.ndarray:
    """Coefficients of a region-1-shaped map as C[i, j] for phi**i * v**j."""
    grid = np.zeros((3, 4))
    for (i, j), c in zip(poly.exponents, poly.coeffs):
        if i > 2 or j > 3:
            raise ValueError("closed-form ranges need phi-degree <= 2 and v-degree <= 3, "
                             f"got a phi^{i} v^{j} term")
        grid[i, j] += c
    return grid


def _clipped_ratio(num: float, den: float, lo: float, hi: float) -> float:
    """np.clip(np.nan_to_num(num / den, nan=lo), lo, hi) for floats and a
    finite [lo, hi]: a zero divisor gives +-inf or nan as in numpy, nan
    becomes lo and +-inf clips to an end."""
    if den == 0.0:
        x = math.nan if num == 0.0 or num != num else \
            math.copysign(math.inf, num) * math.copysign(1.0, den)
    else:
        x = num / den
    return lo if x != x else min(max(x, lo), hi)


class _Curve:
    """Invariants of one region-1-shaped map for exact ranges and envelopes.

    Holds the coefficient grid and the interior critical points (v, phi*)
    with N(v) = 0 and A(v) != 0 (see _rect_range).  Per point everything is
    Python-float arithmetic in the operations and order of
    numpy.polynomial.polyval, np.clip and np.nan_to_num, so each candidate
    equals its vectorised counterpart.
    """

    def __init__(self, poly: Poly2D):
        P = np.polynomial.polynomial
        self.poly = poly
        self.grid = _coeff_grid(poly)
        self._rows = self.grid.tolist()        # coefficients in v of phi^0, phi^1, phi^2
        self._cols = self.grid.T.tolist()      # coefficients in phi of v^0 .. v^3
        c, b, a = self.grid
        n = P.polyadd(P.polysub(4.0 * P.polymul(P.polymul(a, a), P.polyder(c)),
                                2.0 * P.polymul(P.polymul(a, b), P.polyder(b))),
                      P.polymul(P.polyder(a), P.polymul(b, b)))
        # nearly real complex pairs count as real: an extra candidate cannot
        # widen the range, a missed one could shrink it
        roots = P.polyroots(n)
        roots = roots.real[np.abs(roots.imag) <= 1e-7 * (1.0 + np.abs(roots))]
        a_v = P.polyval(roots, a)
        with np.errstate(divide="ignore", invalid="ignore"):
            phi_star = -P.polyval(roots, b) / (2.0 * a_v)
        keep = a_v != 0.0
        self.interior = list(zip(roots[keep].tolist(), phi_star[keep].tolist()))

    def phi_vertex(self, v: float, lo: float, hi: float) -> float:
        """The vertex -B/2A of f(v, .) = A phi^2 + B phi + C, clipped into
        [lo, hi]; where there is none it gives some point of [lo, hi], which
        cannot widen a range."""
        b, a = (horner(row, v) for row in self._rows[1:])
        return _clipped_ratio(-b, 2.0 * a, lo, hi)

    def v_roots(self, phi: float, lo: float, hi: float) -> tuple[float, float]:
        """Both critical points of the cubic f(., phi), the roots of its
        quadratic derivative in the cancellation-free form, clipped into
        [lo, hi]; complex pairs and degenerate cases give some point of
        [lo, hi]."""
        c1, c2, c3 = (horner(col, phi) for col in self._cols[1:])
        qa, qb = 3.0 * c3, 2.0 * c2
        q = -0.5 * (qb + math.copysign(math.sqrt(max(qb * qb - 4.0 * qa * c1, 0.0)), qb))
        return _clipped_ratio(q, qa, lo, hi), _clipped_ratio(c1, q, lo, hi)


def _rect_range(curve: _Curve, v_range, phi_range):
    """Exact range of a region-1-shaped map (held by its _Curve) over a
    rectangle.

    Returns (min, max, (v, phi) at the min, (v, phi) at the max).  The
    extremes are taken over the 4 corners, the critical points of the four
    edges (cubic in v along phi = const, quadratic in phi along v = const)
    and the interior critical points.  Writing f = A(v) phi^2 + B(v) phi + C(v),
    those lie at phi* = -B/(2A) with N(v) = 4A^2 C' - 2ABB' + A'B^2 = 0.
    Where A(v) = 0 an interior extremum extends along the whole line v = const
    and so also lies on a phi-edge.  Ties go to the earliest candidate, the
    corners first and the (v_min, phi_min) corner before all others.  The
    candidates are built and evaluated in Python floats (Poly2D.at_points).
    """
    (v0, v1), (p0, p1) = map(float, v_range), map(float, phi_range)
    # along phi = p0, p1: both ends, then the two edge critical points
    (a0, b0), (a1, b1) = curve.v_roots(p0, v0, v1), curve.v_roots(p1, v0, v1)
    vs = [v0, v0, v1, v1, a0, a1, b0, b1]
    ps = [p0, p1] * 4
    # along v = v0, v1: the vertex (the ends are the corners above)
    vs += [v0, v1]
    ps += [curve.phi_vertex(v0, p0, p1), curve.phi_vertex(v1, p0, p1)]
    for v, phi in curve.interior:
        if v0 <= v <= v1 and p0 <= phi <= p1:
            vs.append(v)
            ps.append(phi)
    vals = np.array(curve.poly.at_points(vs, ps))
    lo, hi = int(np.argmin(vals)), int(np.argmax(vals))
    return float(vals[lo]), float(vals[hi]), (vs[lo], ps[lo]), (vs[hi], ps[hi])


def _envelope(vals: list, k: int, shape, upper: bool):
    """Max (upper) or min over each point's k candidates; vals lists every
    point's first candidate (points in C order over shape), then every point's
    second, and so on.  A float for a scalar."""
    vals = np.array(vals, dtype=float).reshape((k,) + shape)
    out = np.max(vals, axis=0) if upper else np.min(vals, axis=0)
    return float(out) if out.ndim == 0 else out


@dataclass
class BoundCurves:
    """Upper/lower bound curves of (f1, g1) on a source box.

    Exact closed-form envelopes of the polynomial maps: xi_U/xi_L are the
    extremes of f1 over the box's phase interval at a given v (f1 is quadratic
    in phi), eta_U/eta_L those of g1 over the box's velocity interval at a
    given phi (g1 is cubic in v); each is the best of a few candidate points,
    the interval ends first.  crossing_detected records whether the
    phase-endpoint branches (phase_branches) cross inside the v-interval.  The
    per-map invariants (_Curve) do not depend on the box; ``on`` moves the
    curves to another box and keeps them.
    """

    box: DomainBox
    f1: Poly2D
    g1: Poly2D
    crossing_detected: bool = field(init=False)
    curves: InitVar[tuple[_Curve, _Curve] | None] = None   # the _Curves of f1 and g1

    def __post_init__(self, curves):
        self._f, self._g = curves or (_Curve(self.f1), _Curve(self.g1))
        at_min, at_max = self.phase_branches()
        real = np.polynomial.polynomial.polyroots(at_min.coeffs - at_max.coeffs)
        real = real.real[real.imag == 0.0]
        self.crossing_detected = bool(np.any((real > self.box.v_min) & (real < self.box.v_max)))

    def phase_branches(self) -> tuple[Poly1D, Poly1D]:
        """f1(., phi_min) and f1(., phi_max), exact polynomials in v."""
        return self.f1.partial_phi(self.box.phi_min), self.f1.partial_phi(self.box.phi_max)

    def on(self, box: DomainBox) -> "BoundCurves":
        """The bound curves of the same maps on another box."""
        return BoundCurves(box, self.f1, self.g1, curves=(self._f, self._g))

    def xi_u(self, v):
        return self._xi(v, upper=True)

    def xi_l(self, v):
        return self._xi(v, upper=False)

    def _xi(self, v, upper: bool):
        v = np.asarray(v, dtype=float)
        xs = v.ravel().tolist()
        lo, hi = float(self.box.phi_min), float(self.box.phi_max)
        ps = [lo] * len(xs) + [hi] * len(xs) + [self._f.phi_vertex(x, lo, hi) for x in xs]
        return _envelope(self.f1.at_points(xs * 3, ps), 3, v.shape, upper)

    def eta_u(self, phi):
        return self._eta(phi, upper=True)

    def eta_l(self, phi):
        return self._eta(phi, upper=False)

    def _eta(self, phi, upper: bool):
        phi = np.asarray(phi, dtype=float)
        xs = phi.ravel().tolist()
        lo, hi = float(self.box.v_min), float(self.box.v_max)
        roots = [self._g.v_roots(x, lo, hi) for x in xs]
        vs = [lo] * len(xs) + [hi] * len(xs) + [a for a, _ in roots] + [b for _, b in roots]
        return _envelope(self.g1.at_points(vs, xs * 4), 4, phi.shape, upper)


def build_bound_curves(box: DomainBox, d: float, table: CoeffTable) -> BoundCurves:
    """Bound curves of the region-1 maps on a box at dimensionless length d."""
    maps = table.coeffs_for(Region.R1, d)
    return BoundCurves(box=box, f1=maps["v"], g1=maps["phi"])


@dataclass(frozen=True)
class WcsRecord:
    """One interval-iteration step with the extremizer locations."""

    interval_v: tuple[float, float]
    interval_phi: tuple[float, float]
    argmax_xi_u: float
    argmin_xi_l: float
    argmax_eta_u: float
    argmin_eta_l: float

    def as_tuple(self):
        return (*self.interval_v, *self.interval_phi)


def _clip_to(interval, lo, hi):
    """Intersect an interval with [lo, hi]; collapse to the closer edge if disjoint."""
    a, b = max(interval[0], lo), min(interval[1], hi)
    if a > b:
        edge = lo if interval[1] < lo else hi
        return edge, edge
    return a, b


def wcs_step(curves: BoundCurves, interval_v, interval_phi) -> WcsRecord:
    """One worst-case-scenario step: exact extremal images of the current
    intervals.

    The new v-interval is the range of f1 over interval_v x the box's phase
    interval, the new phase interval the range of g1 over the box's velocity
    interval x interval_phi.  The bound curves exist on the source box only,
    so the intervals are first intersected with the box; the image values
    themselves may leave the box (the next update rebuilds the curves there).
    """
    box = curves.box
    iv = _clip_to(interval_v, box.v_min, box.v_max)
    ip = _clip_to(interval_phi, box.phi_min, box.phi_max)
    v_lo, v_hi, arg_l, arg_u = _rect_range(curves._f, iv, (box.phi_min, box.phi_max))
    p_lo, p_hi, parg_l, parg_u = _rect_range(curves._g, (box.v_min, box.v_max), ip)
    return WcsRecord(interval_v=(v_lo, v_hi), interval_phi=(p_lo, p_hi),
                     argmax_xi_u=arg_u[0], argmin_xi_l=arg_l[0],
                     argmax_eta_u=parg_u[1], argmin_eta_l=parg_l[1])


@dataclass
class WcsHistory:
    records: list[WcsRecord] = field(default_factory=list)
    converged: bool = False

    @property
    def final(self) -> WcsRecord:
        return self.records[-1]


def iterate_wcs(curves: BoundCurves) -> WcsHistory:
    """Iterate the WCS step from the full source box until the interval pair
    settles (change below WCS_TOL) or WCS_MAX_STEPS steps have run."""
    bounds = curves.box.as_tuple()
    history = WcsHistory()
    for _ in range(WCS_MAX_STEPS):
        rec = wcs_step(curves, bounds[:2], bounds[2:])
        history.records.append(rec)
        if not np.isfinite(rec.as_tuple()).all():
            raise FloatingPointError("WCS iteration diverged (non-finite interval)")
        if _same_bounds(rec.as_tuple(), bounds):
            history.converged = True
            break
        bounds = rec.as_tuple()
    return history


def _same_bounds(a, b) -> bool:
    """Whether two (v_min, v_max, phi_min, phi_max) tuples agree within WCS_TOL."""
    return all(abs(x - y) < WCS_TOL for x, y in zip(a, b))


@dataclass(frozen=True)
class TwoCycle:
    """Alternating 2-cycle of the bound maps: p <= q per coordinate, with the
    second-iterate slopes at the lower fixed values."""

    p_v: float
    q_v: float
    p_phi: float
    q_phi: float
    slope_v: float
    slope_phi: float

    def __post_init__(self):
        if self.p_v > self.q_v or self.p_phi > self.q_phi:
            raise ValueError(f"cycle values out of order: {self}")


def second_iterate_v(curves: BoundCurves, window: tuple[float, float]):
    """Closed-form second-iterate velocity map and its stable 2-cycle.

    Composes f1 at the box's two phase endpoints into a degree-9 polynomial
    by exact coefficient arithmetic, locates the stable fixed point inside
    the velocity window, and returns (polynomial, p_v, q_v, slope at the
    fixed point).
    """
    outer, inner = curves.phase_branches()      # the phi_max branch applied first
    composed = Poly1D(compose(outer.coeffs, inner.coeffs))
    lo, hi = window
    deriv = composed.derivative()
    root, slope = _stable_root(lambda x: composed(x) - x,
                               np.arange(lo, hi + ROOT_SCAN, ROOT_SCAN),
                               lambda x: float(deriv(x)), 0.5 * (lo + hi),
                               f"no stable fixed point in [{lo}, {hi}]")
    partner = float(inner(root))
    p_v, q_v = min(root, partner), max(root, partner)
    return composed, p_v, q_v, slope


def second_iterate_phase(curves: BoundCurves, window: tuple[float, float]):
    """Stable 2-cycle of the exact closed-form phase envelopes: p_phi from
    the composition eta_L(eta_U(.)), scanned on ENVELOPE_GRID nodes of the
    phase window; q_phi = eta_U(p_phi); slope by central difference."""
    lo, hi = window
    comp = lambda x: curves.eta_l(curves.eta_u(np.asarray(x, dtype=float)))
    h = 1e-6 * max(hi - lo, 1.0)
    p_phi, slope = _stable_root(lambda x: comp(x) - np.asarray(x, dtype=float),
                                np.linspace(lo, hi, ENVELOPE_GRID),
                                lambda x: float((comp(x + h) - comp(x - h)) / (2 * h)),
                                0.5 * (lo + hi),
                                "no stable fixed point of eta_L(eta_U(.)) in the window")
    q_phi = float(curves.eta_u(p_phi))
    return min(p_phi, q_phi), max(p_phi, q_phi), slope


def _stable_root(g, nodes, slope, centre: float, error: str):
    """Root of g with |slope| < 1 nearest centre, as (root, slope).

    Every sign change of g between adjacent scan nodes is bisected down to
    BISECT_TOL; NoStableRoot (message error) is raised if no root is stable.
    """
    vals = g(nodes)
    roots = []
    for i in np.flatnonzero(np.sign(vals[:-1]) * np.sign(vals[1:]) <= 0):
        a, b = nodes[i], nodes[i + 1]
        ga = float(g(a))
        for _ in range(60):
            m = 0.5 * (a + b)
            gm = float(g(m))
            if ga * gm <= 0:
                b = m
            else:
                a, ga = m, gm
            if b - a < BISECT_TOL:
                break
        x = 0.5 * (a + b)
        roots.append((x, slope(x)))
    stable = [(x, s) for x, s in roots if abs(s) < 1.0]
    if not stable:
        raise NoStableRoot(f"{error} (found {[round(x, 4) for x, _ in roots]})")
    return min(stable, key=lambda root: abs(root[0] - centre))


STATEMENT_PART1 = "Part1"
STATEMENT_PART2 = "Part2"
STATEMENT_INDETERMINATE = "Indeterminate"


def statement61_case(history: WcsHistory) -> str:
    """Which part of the attracting-domain statement the iteration satisfied.

    Part1: at every step that still moved the intervals, the extremizers of
    the bound curves fell outside the step's output intervals (so generic and
    WCS cobwebbing coincide).  Part2: the intervals stabilized while the
    exclusion property failed.  Anything else is indeterminate.  Whether the
    intervals stabilized is iterate_wcs's converged flag; its last record
    then repeats the one before, so it is the one step left unchecked.
    """
    if len(history.records) < 2:
        return STATEMENT_INDETERMINATE
    for rec in history.records[:-1] if history.converged else history.records:
        (v0, v1), (p0, p1) = rec.interval_v, rec.interval_phi
        if (v0 <= rec.argmax_xi_u <= v1 or v0 <= rec.argmin_xi_l <= v1
                or p0 <= rec.argmax_eta_u <= p1 or p0 <= rec.argmin_eta_l <= p1):
            return STATEMENT_PART2 if history.converged else STATEMENT_INDETERMINATE
    return STATEMENT_PART1


@dataclass
class UpdateReport:
    """Full record of the iterated auxiliary-map updates for one case."""

    case: str
    d: float
    boxes: list[DomainBox]
    histories: list[WcsHistory]
    statement_case: str
    two_cycle: TwoCycle | None
    crossing_detected: bool
    escaped: bool = False        # an update left the map's trust region


# Updated boxes may exceed the case box somewhat (the chaotic case does), but
# far outside it the fitted region-1 maps carry no information; an update
# whose box leaves this inflated trust region stops the sequence.
TRUST_MARGIN = 0.35


def _trust_region(case: str) -> DomainBox:
    box = r1_plus(case)
    dv, dp = (TRUST_MARGIN * w for w in box.widths)
    return DomainBox(box.v_min - dv, box.v_max + dv, box.phi_min - dp, box.phi_max + dp)


def iterate_updates(case: str, d: float | None = None, n_updates: int | None = None, *,
                    table: CoeffTable) -> UpdateReport:
    """Repeated bound-curve construction and WCS convergence for one case.

    Starts from the case's enlarged region-1 box, moves the curves to each
    converged box, and stops after n_updates or when an update no longer
    moves the box.  The region-1 maps and their _Curves are built once, by
    the first build_bound_curves.  The final box's 2-cycle is extracted from
    the last curves.
    """
    current = r1_plus(case)
    case_d, case_updates, _ = CASES[case]
    d = case_d if d is None else d
    n_updates = case_updates if n_updates is None else n_updates

    boxes = [current]
    histories: list[WcsHistory] = []
    crossing = False
    escaped = False
    curves = None
    trust = _trust_region(case)
    for _ in range(n_updates - 1):
        curves = curves.on(current) if curves else build_bound_curves(current, d, table)
        crossing = crossing or curves.crossing_detected
        history = iterate_wcs(curves)
        new_box = DomainBox(*history.final.as_tuple())
        histories.append(history)
        boxes.append(new_box)
        if not (trust.contains(new_box.v_min, new_box.phi_min)
                and trust.contains(new_box.v_max, new_box.phi_max)):
            escaped = True
            warnings.warn(f"update {len(boxes)} left the map's trust region; "
                          "stopping the update sequence", EscapedBox, stacklevel=2)
            break
        if _same_bounds(new_box.as_tuple(), current.as_tuple()):
            break
        current = new_box

    statement = statement61_case(histories[-1]) if histories else STATEMENT_INDETERMINATE
    cycle = None
    if curves is not None and not escaped:
        try:
            fb = boxes[-1]
            _, p_v, q_v, slope_v = second_iterate_v(
                curves, window=(fb.v_min - 0.05, fb.v_max + 0.05))
            p_phi, q_phi, slope_p = second_iterate_phase(
                curves, window=(fb.phi_min - 0.05, fb.phi_max + 0.05))
            cycle = TwoCycle(p_v=float(p_v), q_v=float(q_v), p_phi=float(p_phi),
                             q_phi=float(q_phi), slope_v=float(slope_v),
                             slope_phi=float(slope_p))
        except (NoStableRoot, ValueError):
            cycle = None
    return UpdateReport(case=case, d=d, boxes=boxes, histories=histories,
                        statement_case=statement, two_cycle=cycle,
                        crossing_detected=crossing, escaped=escaped)

