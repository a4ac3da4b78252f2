"""Regeneration of the region-map coefficient tables from the exact dynamics.

The published coefficient listings round their d-polynomials hard enough that
several region maps lose one to seven digits at evaluation time (the printed
representations suffer catastrophic cancellation), so the package ships a
table refitted from the event-driven exact map with the same structure:

* R1: per-d least squares of the bottom-return surfaces over the R1 box,
  restricted by the diagonal-proximity ratio filter, with every coefficient
  then represented as a polynomial in d.
* R3: one d-independent fit pooled across the d range (the surface does not
  move with d), trimmed once to shed the steep transition sheet.
* R2/R4/R5: separable single-variable fits along fixed representative rows
  and columns of the surfaces, per d, then d-polynomials.

Each d of D_GRID is swept as one batch of named parts: the R1 grid, a row and
a column per separable region and, at the three R3_POOL_D values, the 2,610
of the 8,100 R3_GRID nodes inside region 3.  Each part splits off exactly, as
each row of a sweep depends on that row alone (tests/test_calibration.py).

Each region's maps are fitted to one return class (FIT_CLASS).  Every fit is
ordinary least squares through an orthogonal decomposition; the recipe
parameters are recorded in the table metadata.  ``fit_region_maps`` refits
R1 or R3 from a single sweep (``vipair fit``), outside the table recipe.
"""

from __future__ import annotations

import numpy as np

from .composite import PI, R1_BOX, REGION_SHAPES, TABLE_PARAMS, CoeffTable, Poly2D, Region
from .core import NondimParams, baseline_params
from .fitting import (cheb_fit_1d, cheb_to_monomial_matrix, fit_poly2d, fit_poly2d_scaled,
                      scaled_fit_2d, scaled_to_monomial_matrix_2d, design_matrix,
                      poly2d_exponents)
# sweep_surfaces is not called here, but bench/workloads.py counts swept points
# at this module's sweep_surfaces and _sweep_points, so it stays importable
from .returnmap import (R1_DELTA, GridSpec, ReturnClass, near_diagonal, sweep_surfaces,
                        _sweep_points)

# The return class each region's maps are fitted to
FIT_CLASS = {Region.R1: ReturnClass.BTB, Region.R2: ReturnClass.BTB,
             Region.R3: ReturnClass.BB, Region.R4: ReturnClass.BTB,
             Region.R5: ReturnClass.BB}

D_GRID = np.round(np.arange(0.26, 0.35001, 0.005), 4)
R1_FIT_GRID = 72
R1_MIN_SAMPLES = 160
R1_GRID = GridSpec(n_v=R1_FIT_GRID, n_phi=R1_FIT_GRID,
                   v_range=(R1_BOX[0], R1_BOX[1]), phi_range=(R1_BOX[2], R1_BOX[3]))
D_POLY_DEGREE = 8

# The R1 fits are solved in coordinates scaled to this window, the enlarged
# region-1 box (phase up to pi/3) over which the auxiliary-map construction
# evaluates the region-1 maps, far beyond the diagonal-proximity sample
# support.  Anchor samples from that enlarged region (restricted to the
# smooth attracting sheet) can pin that extrapolation, but any anchor mass
# heavy enough to control the box corners also perturbs the map near the
# attractor by ~1e-2, which destroys the period-doubled cycle at d = 0.30
# (the cycle is marginal there).  Dynamics fidelity wins: the fits use no
# anchors, and the auxiliary pipeline reports an escape when an updated box
# leaves the map's trust region instead.
R1_FIT_WINDOW = (0.63, 1.0, 0.08, np.pi / 3)

# Representative curves for the separable regions (fixed phase for the
# velocity map, fixed velocity for the phase map) and fit windows.  Rows and
# columns sit where the region's motion class covers the whole window for
# every d in range, so the fitted curves never extrapolate inside their
# dispatch region.
SEPARABLE_RECIPE = {
    Region.R2: {"phi_row": 0.50, "v_col": 0.85, "v_window": (0.50, 1.05),
                "phi_window": (0.02, np.pi), "unwrap": True},
    Region.R4: {"phi_row": 1.90, "v_col": 0.20, "v_window": (0.005, 0.58),
                "phi_window": (1.05, 2.55), "unwrap": False},
    Region.R5: {"phi_row": 3.05, "v_col": 0.12, "v_window": (0.005, 0.50),
                "phi_window": (2.45, np.pi - 1e-3), "unwrap": False},
}
CURVE_POINTS = 160

R3_POOL_D = (0.26, 0.305, 0.35)
R3_GRID = GridSpec(n_v=90, n_phi=90, v_range=(0.0, 0.63), phi_range=(0.0, np.pi))
R3_TRIM_SIGMA = 3.0


def _in_region(v, phi, region: Region) -> np.ndarray:
    """Mask of the states (v, phi) that region_of dispatches to region: its
    if-chain as array comparisons, each branch taking what no earlier one
    took (so NaN goes to R3, as there)."""
    v, phi = np.asarray(v, dtype=float), np.asarray(phi, dtype=float)
    above = v > 0.63 - 0.53 * phi
    left = np.ones(np.broadcast(v, phi).shape, dtype=bool)   # not yet dispatched
    for branch, test in (
            (Region.RESET, (phi > PI) | (phi < 0.0)),
            (Region.R1, (R1_BOX[0] <= v) & (v <= R1_BOX[1])
             & (R1_BOX[2] <= phi) & (phi <= R1_BOX[3])),
            (Region.R2, above & (v > 0.55)),
            (Region.R4, above & (1.1 < phi) & (phi < 2.5) & (v < 0.55)),
            (Region.R5, (2.5 < phi) & (phi < PI) & (v < 0.55))):
        if branch == region:
            return left & test
        left &= ~test
    return left


def region_samples(surface, klass, region: Region):
    """Arrays (v_in, phi_in, v_out, phi_out) of one return class inside one region."""
    vk, pk, vn, pn = surface.class_samples(klass)
    inside = _in_region(vk, pk, region)
    return vk[inside], pk[inside], vn[inside], pn[inside]


def fit_region_maps(surface, region: Region, *, delta: float | None = None):
    """Refit one 2D region's maps (R1, R3) from a swept surface (see
    returnmap.sweep_surfaces).

    The fit takes every sample of the region's FIT_CLASS inside the region,
    optionally restricted by the diagonal-proximity ratio filter ``delta``.
    The separable regions R2, R4 and R5 are fitted along representative
    curves that one sweep does not provide; ``vipair calibrate`` refits them.

    Returns {"v": map, "phi": map, "reports": {...}}.
    """
    if region in SEPARABLE_RECIPE:
        raise ValueError(f"separable region {region.value} is fitted along representative "
                         "curves that one sweep does not provide; `vipair calibrate` "
                         "refits it")
    vk, pk, vn, pn = region_samples(surface, FIT_CLASS[region], region)
    if delta is not None:
        keep = near_diagonal(vk, pk, vn, pn, delta)
        vk, pk, vn, pn = vk[keep], pk[keep], vn[keep], pn[keep]
    shape = REGION_SHAPES[region]
    cv, ev, rep_v = fit_poly2d(vk, pk, vn, *shape["v"][:2])
    cp, ep, rep_p = fit_poly2d(vk, pk, pn, *shape["phi"][:2])
    return {"v": Poly2D(tuple(ev), cv), "phi": Poly2D(tuple(ep), cp),
            "reports": {"v": rep_v, "phi": rep_p}}


def _sweep_d(d: float, base: NondimParams, r3_nodes):
    """One d's named point sets, split from one sweep of all of them: the R1
    grid (Region.R1), each separable region's fixed-phase row and
    fixed-velocity column ((region, "row"), (region, "col"), CURVE_POINTS
    each) and, at the R3_POOL_D values, region 3's nodes (Region.R3)."""
    parts = {Region.R1: R1_GRID.points()}
    for region, rec in SEPARABLE_RECIPE.items():
        v_nodes = np.linspace(*rec["v_window"], CURVE_POINTS)
        phi_nodes = np.linspace(*rec["phi_window"], CURVE_POINTS)
        parts[region, "row"] = (v_nodes, np.full_like(v_nodes, rec["phi_row"]))
        parts[region, "col"] = (np.full_like(phi_nodes, rec["v_col"]), phi_nodes)
    if d in R3_POOL_D:
        parts[Region.R3] = r3_nodes
    v_in, phi_in = map(np.concatenate, zip(*parts.values()))
    s = _sweep_points(v_in, phi_in, base.replace(length=d))
    ends = np.cumsum([v.size for v, _ in parts.values()])
    return {key: s.rows(slice(end - v.size, end))
            for (key, (v, _)), end in zip(parts.items(), ends)}


def _r1_samples(surface, delta: float):
    """Filtered BTB samples of the return surface over the R1 box."""
    vk, pk, vn, pn = surface.class_samples(FIT_CLASS[Region.R1])
    while True:
        keep = near_diagonal(vk, pk, vn, pn, delta)
        if keep.sum() >= R1_MIN_SAMPLES or delta > 3.0:
            return vk[keep], pk[keep], vn[keep], pn[keep], delta
        delta *= 1.1


def calibrate_r1(d_grid, samples, log=None):
    """Per-d poly23 fits of the R1 surfaces to the diagonal-proximity samples;
    ``samples`` holds one _r1_samples result per d of ``d_grid``.

    Returns ({target: (scaled-basis coefficient rows, basis-change matrix,
    exponents)}, recipe metadata with the relaxed-delta record)."""
    rows_b, rows_a, deltas = [], [], {}
    v_win = (R1_FIT_WINDOW[0], R1_FIT_WINDOW[1])
    p_win = (R1_FIT_WINDOW[2], R1_FIT_WINDOW[3])
    # both region-1 maps have this shape, so one basis change serves both
    deg_phi, deg_v, _ = REGION_SHAPES[Region.R1]["v"]
    for d, (vk, pk, vn, pn, used) in zip(d_grid, samples):
        b, rep_b = scaled_fit_2d(vk, pk, vn, deg_phi, deg_v, v_win, p_win)
        a, rep_a = scaled_fit_2d(vk, pk, pn, deg_phi, deg_v, v_win, p_win)
        rows_b.append(b)
        rows_a.append(a)
        deltas[float(d)] = used
        if log:
            log(f"R1 d={d}: n={len(vk)} delta={used:.2f} "
                f"delta-set rmse=({rep_b.rmse:.2e},{rep_a.rmse:.2e})")
    basis = (scaled_to_monomial_matrix_2d(deg_phi, deg_v, v_win, p_win),
             poly2d_exponents(deg_phi, deg_v))
    return ({"v": (np.array(rows_b), *basis), "phi": (np.array(rows_a), *basis)},
            {"delta": R1_DELTA, "relaxed_deltas": deltas, "grid": R1_FIT_GRID})


def _curve_samples(parts):
    """{region: ((v_in, v_out), (phi_in, phi_out))} of every separable region,
    the FIT_CLASS returns on its row and column of one d's _sweep_d."""
    samples = {}
    for region, rec in SEPARABLE_RECIPE.items():
        v_in, _, v_out, _ = parts[region, "row"].class_samples(FIT_CLASS[region])
        _, p_in, _, p_out = parts[region, "col"].class_samples(FIT_CLASS[region])
        if rec["unwrap"]:
            p_out = unwrap_phase(p_out)
        samples[region] = ((v_in, v_out), (p_in, p_out))
    return samples


def unwrap_phase(phi):
    """Map return phases to (-pi, pi] so a curve crossing phase 0 stays smooth.

    Used where the representative curve runs along the forcing-period seam
    (region 2): returns just below a full period read as slightly negative,
    and the composite map's reset handles them exactly like their [0, 2pi)
    twins.  Curves that legitimately cross pi must stay in [0, 2pi).
    """
    phi = np.asarray(phi, dtype=float)
    return np.where(phi > np.pi, phi - 2.0 * np.pi, phi)


def calibrate_separable(region: Region, d_grid, curves, log=None):
    """Per-d curve fits of a separable region; ``curves`` holds one _curve_samples
    result per d of ``d_grid``.  Returns ({target: (coefficient rows (ascending),
    basis-change matrix, exponents)}, recipe metadata)."""
    _, deg_v, _ = REGION_SHAPES[region]["v"]
    deg_p, _, _ = REGION_SHAPES[region]["phi"]
    rec = SEPARABLE_RECIPE[region]
    rows_b, rows_a = [], []
    for d, samples in zip(d_grid, curves):
        (v_in, v_out), (p_in, p_out) = samples[region]
        cb, rep_b = cheb_fit_1d(v_in, v_out, deg_v, rec["v_window"])
        ca, rep_a = cheb_fit_1d(p_in, p_out, deg_p, rec["phi_window"])
        rows_b.append(cb)
        rows_a.append(ca)
        if log:
            log(f"{region.value} d={d}: n=({len(v_in)},{len(p_in)}) "
                f"rmse=({rep_b.rmse:.2e},{rep_a.rmse:.2e})")
    return ({"v": (np.array(rows_b), cheb_to_monomial_matrix(deg_v, rec["v_window"]),
                   poly2d_exponents(0, deg_v)),
             "phi": (np.array(rows_a), cheb_to_monomial_matrix(deg_p, rec["phi_window"]),
                     poly2d_exponents(deg_p, 0))},
            {"phi_row": rec["phi_row"], "v_col": rec["v_col"]})


def _r3_nodes():
    """(v, phi) of the R3_GRID nodes inside region 3, in grid order.  The
    region depends on (v, phi) alone, so every R3_POOL_D sweeps these nodes."""
    v, phi = R3_GRID.points()
    inside = _in_region(v, phi, Region.R3)
    return v[inside], phi[inside]


def calibrate_r3(samples, log=None):
    """Pooled, once-trimmed fit of the low-velocity BB surfaces (d-independent);
    ``samples`` holds the BB class_samples of region 3's nodes swept at each
    R3_POOL_D (_sweep_d), which are the region_samples of the whole R3_GRID."""
    vk, pk, vn, pn = map(np.concatenate, zip(*samples))

    v_win, p_win = R3_GRID.v_range, R3_GRID.phi_range

    def trimmed(target, tname):
        deg_phi, deg_v, _ = REGION_SHAPES[Region.R3][tname]
        c, exps, rep = fit_poly2d_scaled(vk, pk, target, deg_phi, deg_v, v_win, p_win)
        resid = design_matrix(vk, pk, exps) @ c - target
        keep = np.abs(resid) < R3_TRIM_SIGMA * resid.std()
        c, _, rep = fit_poly2d_scaled(vk[keep], pk[keep], target[keep],
                                      deg_phi, deg_v, v_win, p_win)
        return c, exps, rep, keep.sum()

    cb, exps_f, rep_b, nb = trimmed(vn, "v")
    ca, exps_g, rep_a, na = trimmed(pn, "phi")
    if log:
        log(f"R3 pooled: n=({nb},{na}) of {len(vk)} rmse=({rep_b.rmse:.2e},{rep_a.rmse:.2e})")
    return cb, exps_f, ca, exps_g


def _d_poly_terms(d_grid, stable_rows, transform, exps, degree):
    """Raw-monomial terms [(exponents, d-poly)] from stable-basis coefficient
    rows: d-polynomials are fitted on the well-scaled stable coefficients and
    pushed through the constant basis-change matrix exactly.

    The returned error is the stable-basis representation error (same scale
    as the fitted functions)."""
    stable_dpolys = np.column_stack([
        np.polynomial.polynomial.polyfit(d_grid, stable_rows[:, k], degree)
        for k in range(stable_rows.shape[1])
    ])  # shape (degree+1, n_basis)
    err = float(np.max(np.abs(
        np.polynomial.polynomial.polyval(d_grid, stable_dpolys) - stable_rows.T)))
    raw_dpolys = transform @ stable_dpolys.T  # (n_raw, degree+1)
    terms = [(tuple(exp), raw_dpolys[i]) for i, exp in enumerate(exps)]
    return terms, err


def build_calibrated_table(base: NondimParams | None = None, log=print) -> CoeffTable:
    """Run the full calibration over D_GRID and assemble the coefficient table."""
    base = base if base is not None else baseline_params(0.30)

    entries: dict = {}
    meta_fit: dict = {}

    r1, curves, r3 = [], [], []
    r3_nodes = _r3_nodes()
    for d in D_GRID:   # keep one d's samples, not its surfaces
        parts = _sweep_d(d, base, r3_nodes)
        r1.append(_r1_samples(parts[Region.R1], R1_DELTA))
        curves.append(_curve_samples(parts))
        if Region.R3 in parts:
            r3.append(parts[Region.R3].class_samples(FIT_CLASS[Region.R3]))
        del parts

    for region in (Region.R1, *SEPARABLE_RECIPE):
        maps, meta = (calibrate_r1(D_GRID, r1, log) if region is Region.R1
                      else calibrate_separable(region, D_GRID, curves, log))
        fits = {target: _d_poly_terms(D_GRID, *fit, D_POLY_DEGREE) for target, fit in maps.items()}
        entries[region] = {target: terms for target, (terms, _) in fits.items()}
        err = max(err for _, err in fits.values())
        meta_fit[region.value] = {**meta, "d_poly_max_err": err}
        if log:
            log(f"{region.value} d-poly representation error: {err:.2e}")

    cb, exps_f, ca, exps_g = calibrate_r3(r3, log)
    entries[Region.R3] = {
        "v": [(tuple(e), np.array([c])) for e, c in zip(exps_f, cb)],
        "phi": [(tuple(e), np.array([c])) for e, c in zip(exps_g, ca)],
    }
    meta_fit["R3"] = {"pool_d": list(R3_POOL_D), "trim_sigma": R3_TRIM_SIGMA}

    return CoeffTable(
        name="calibrated",
        d_range=(float(D_GRID.min()), float(D_GRID.max())),
        entries=entries,
        metadata={
            "source": "refit of the event-driven exact map",
            "d_grid": [float(d) for d in D_GRID],
            "d_poly_degree": D_POLY_DEGREE,
            "recipe": meta_fit,
            "base_params": {key: getattr(base, key) for key in TABLE_PARAMS},
        },
    )
