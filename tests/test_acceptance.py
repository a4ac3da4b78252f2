"""Acceptance gate: every criterion at its stated tolerance, one line each.

Criteria 1-5 compare against values whose reproduction requires the original
authors' internal fitted polynomials (see "Coefficient tables" in
README.md); the shipped refit makes the dynamics criteria (6-9) pass
and reports the remaining gaps honestly rather than loosening tolerances.
"""

import functools
import time
import warnings

import numpy as np
import pytest

from vipair import analysis, auxmap
from vipair.calibration import fit_region_maps
from vipair.composite import (
    CompositeMap,
    Region,
    detect_attractor,
    region_of,
)
from vipair.core import (PI, STATUS_OK, _flow, apply_impact_law, baseline_params,
                         next_impact_batch)
from vipair.returnmap import GridSpec, ReturnClass, partition_by_class, sweep_surfaces

RESULTS = []


def _report(criterion: int, ok: bool, detail: str):
    line = f"ACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}"
    RESULTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="session", autouse=True)
def _write_report(tmp_path_factory):
    yield
    out = tmp_path_factory.getbasetemp() / "acceptance_report.txt"
    out.write_text("\n".join(RESULTS) + "\n")
    print("\n".join(["", "acceptance summary:"] + RESULTS))


@pytest.fixture(scope="module")
def sweep35():
    return sweep_surfaces(GridSpec(n_v=200, n_phi=200), baseline_params(0.35))


def test_criterion_1_golden_trajectory(table):
    """Composite-map steps from (0.2, 0.1) at d=0.35 vs the published
    navigation, +-0.01 componentwise, under 1 s."""
    targets = [(0.093, 2.116), (0.799, 1.150), (0.843, 0.298), (0.844, 0.396)]
    t0 = time.perf_counter()
    cm = CompositeMap(table=table, d=0.35)
    v, phi = 0.2, 0.1
    steps = []
    for _ in range(4):
        v, phi, _ = cm.step(v, phi)
        steps.append((v, phi))
    elapsed = time.perf_counter() - t0
    errs = [max(abs(s[0] - t[0]), abs(s[1] - t[1])) for s, t in zip(steps, targets)]
    ok = all(e <= 0.01 for e in errs) and elapsed < 1.0
    detail = (f"steps {[(round(a, 3), round(b, 3)) for a, b in steps]} vs {targets}, "
              f"max err {max(errs):.3f}, {elapsed:.2f}s")
    _report(1, ok, detail)


def test_criterion_2_fp_attracting_domain(table):
    t0 = time.perf_counter()
    rep = auxmap.iterate_updates("FP", d=0.35, n_updates=11, table=table)
    elapsed = time.perf_counter() - t0
    box = rep.boxes[-1]
    contains = (box.v_min <= 0.8488 and box.v_max >= 0.8490
                and box.phi_min <= 0.3804 and box.phi_max >= 0.3811)
    widths_ok = box.widths[0] <= 5e-4 and box.widths[1] <= 5e-4
    ok = contains and widths_ok and elapsed < 30.0
    detail = (f"box [{box.v_min:.4f},{box.v_max:.4f}]x[{box.phi_min:.4f},{box.phi_max:.4f}] "
              f"widths ({box.widths[0]:.2e},{box.widths[1]:.2e}), {elapsed:.1f}s")
    _report(2, ok, detail)


def test_criterion_3_pd_attracting_domain(table):
    target = (0.684, 0.832, 0.156, 0.758)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = auxmap.iterate_updates("PD", d=0.30, n_updates=11, table=table)
    elapsed = time.perf_counter() - t0
    box = rep.boxes[-1]
    ends = (box.v_min, box.v_max, box.phi_min, box.phi_max)
    ends_ok = all(abs(a - b) <= 0.02 for a, b in zip(ends, target))
    widths_ok = (abs(box.widths[0] - 0.1472) <= 0.02
                 and abs(box.widths[1] - 0.5991) <= 0.02)
    ok = ends_ok and widths_ok and not rep.escaped and elapsed < 30.0
    detail = (f"box {tuple(round(e, 4) for e in ends)} vs {target}, "
              f"widths ({box.widths[0]:.4f},{box.widths[1]:.4f}), "
              f"escaped={rep.escaped}, {elapsed:.1f}s")
    _report(3, ok, detail)


def test_criterion_4_cd_attracting_domain(table):
    target = (0.638, 0.803, 0.088, 0.868)
    t0 = time.perf_counter()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        rep = auxmap.iterate_updates("CD", d=0.26, n_updates=6, table=table)
    elapsed = time.perf_counter() - t0
    box = rep.boxes[-1]
    ends = (box.v_min, box.v_max, box.phi_min, box.phi_max)
    ends_ok = all(abs(a - b) <= 0.03 for a, b in zip(ends, target))
    widths_ok = (abs(box.widths[0] - 0.166) <= 0.03
                 and abs(box.widths[1] - 0.780) <= 0.03)
    part2 = rep.statement_case == auxmap.STATEMENT_PART2
    ok = ends_ok and widths_ok and part2 and not rep.escaped and elapsed < 60.0
    detail = (f"box {tuple(round(e, 4) for e in ends)} vs {target}, "
              f"statement {rep.statement_case}, escaped={rep.escaped}, {elapsed:.1f}s")
    _report(4, ok, detail)


def test_criterion_5_first_wcs_update(table):
    t0 = time.perf_counter()
    curves = auxmap.build_bound_curves(auxmap.r1_plus("FP"), 0.35, table)
    hist = auxmap.iterate_wcs(curves)
    elapsed = time.perf_counter() - t0
    iv = hist.final.interval_v
    ip = hist.final.interval_phi
    ok = (abs(iv[0] - 0.771) <= 0.01 and abs(iv[1] - 0.909) <= 0.01
          and abs(ip[0] - 0.297) <= 0.01 and abs(ip[1] - 0.791) <= 0.01
          and elapsed < 5.0)
    detail = (f"v [{iv[0]:.4f},{iv[1]:.4f}] vs [0.771,0.909]; "
              f"phi [{ip[0]:.4f},{ip[1]:.4f}] vs [0.297,0.791]; {elapsed:.1f}s")
    _report(5, ok, detail)


def test_criterion_6_fit_quality(sweep35):
    t0 = time.perf_counter()
    fit = fit_region_maps(sweep35, Region.R1, delta=1.2)
    elapsed = time.perf_counter() - t0  # the shared sweep itself takes ~7 s
    r2v = fit["reports"]["v"].r_squared
    r2p = fit["reports"]["phi"].r_squared
    ok = r2v >= 0.999 and r2p >= 0.999 and elapsed < 10.0
    _report(6, ok, f"R2(v)={r2v:.5f}, R2(phi)={r2p:.5f}, fit {elapsed:.1f}s + sweep")


def test_criterion_7_bifurcation_fidelity(table):
    t0 = time.perf_counter()
    ds = analysis.d_values(0.36, 0.25, 0.001)
    exact = analysis.bifurcation_scan(lambda d: analysis.ExactMap(baseline_params(d)), ds)
    comp = analysis.bifurcation_scan(functools.partial(CompositeMap, table), ds)
    elapsed = time.perf_counter() - t0

    def at(samples, d):
        return min(samples, key=lambda s: abs(s.d - d))

    checks = []
    for scan, name in ((exact, "exact"), (comp, "composite")):
        fp = at(scan, 0.35)
        checks.append(str(fp.classification) == "FP"
                      and abs(np.mean(fp.tail_v) - 0.849) <= 0.02)
        checks.append(str(at(scan, 0.30).classification) == "PD(2)")
        checks.append(at(scan, 0.26).classification.kind == "CD")
    d_exact = analysis.first_period_doubling(exact)
    d_comp = analysis.first_period_doubling(comp)
    agree = d_exact is not None and d_comp is not None and abs(d_exact - d_comp) <= 0.01
    ok = all(checks) and agree and elapsed < 600.0
    detail = (f"FP/PD/CD checks {checks}, first PD d exact={d_exact} "
              f"composite={d_comp}, {elapsed:.0f}s")
    _report(7, ok, detail)


def test_criterion_8_property_suites(table, sweep35, rng):
    t0 = time.perf_counter()
    p35 = baseline_params(0.35)
    failures = []

    def legs_from_b(starts, **kw):
        """Start times and next_impact_batch outputs of bottom-wall impacts at
        the (speed, phase) starts; a row that is not STATUS_OK fails the suite."""
        v_in, phase = np.array(starts).T
        t_start = (phase - p35.general_phase) / PI
        side, t, v, status = next_impact_batch(np.ones(len(starts), dtype=np.int8), t_start,
                                               v_in, p35, **kw)
        if (status != STATUS_OK).any():
            failures.append(f"{np.count_nonzero(status != STATUS_OK)} events without "
                            f"a clean impact ({kw or 'forced'})")
        return v_in, t_start, side, t, v

    # event-solver residuals on 1e3 random events
    v_in, t_start, side, t, _ = legs_from_b(
        [(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0, PI))) for _ in range(1000)])
    z, _ = _flow(0.5 * p35.length, apply_impact_law(v_in, p35.restitution), t_start,
                 t - t_start, p35, 1.0)
    res_max = np.max(np.abs(z - side * 0.5 * p35.length))
    if not res_max <= 1e-10:
        failures.append(f"event residual {res_max:.1e}")

    # zero-forcing oracle equivalence on 1e3 random events
    v_in, t_start, _, t, v = legs_from_b(
        [(float(rng.uniform(0.05, 2.0)), float(rng.uniform(0, 2 * PI))) for _ in range(1000)],
        amplitude=0.0)
    r, d, g = p35.restitution, p35.length, p35.gravity_term
    w = r * v_in
    disc = w * w - 2 * g * d
    tau = np.where(disc > 0, (w - np.sqrt(np.maximum(disc, 0.0))) / g, 2 * w / g)
    vel = np.where(disc > 0, -(w - g * tau), w)
    err = max(np.max(np.abs(t - t_start - tau)), np.max(np.abs(v - vel)))
    if not err <= 1e-10:
        failures.append(f"zero-forcing oracle err {err:.1e}")

    # classification totality on the 200x200 grid
    if not np.isin(sweep35.klass, list(ReturnClass)).all():
        failures.append("unclassified sweep nodes")

    # dispatch totality incl. post-reset states
    cm = CompositeMap(table=table, d=0.30)
    for v in np.linspace(0, 1, 21):
        for ph in np.linspace(-1, 4, 26):
            vn, pn, region = cm.step(float(v), float(ph))
            if region not in Region:
                failures.append(f"dispatch hole at {(v, ph)}")
            if region == Region.RESET and not 0 <= pn <= PI:
                failures.append("reset left phase outside [0, pi]")

    # degree-9 composition vs nested evaluation
    composed, *_ = auxmap.second_iterate_v(
        auxmap.build_bound_curves(auxmap.DomainBox(0.6, 1.0, 0.2, PI / 3), 0.35, table),
        window=(0.6, 1.0))
    f1 = table.coeffs_for(Region.R1, 0.35)["v"]
    inner = f1.partial_phi(PI / 3)
    outer = f1.partial_phi(0.2)
    comp_err = max(abs(composed(float(v)) - outer(inner(float(v))))
                   for v in rng.uniform(0.5, 1.1, 1000))
    if comp_err > 1e-10:
        failures.append(f"composition err {comp_err:.1e}")

    # envelope domination on 1e4 samples
    curves = auxmap.build_bound_curves(auxmap.r1_plus("FP"), 0.35, table)
    rv = rng.uniform(0.70, 1.0, 10000)
    rp = rng.uniform(0.20, PI / 3, 10000)
    fv = curves.f1(rv, rp)
    gp = curves.g1(rv, rp)
    if not (np.all(fv <= curves.xi_u(rv) + 1e-6) and np.all(fv >= curves.xi_l(rv) - 1e-6)):
        failures.append("xi envelope violated")
    if not (np.all(gp <= curves.eta_u(rp) + 1e-6) and np.all(gp >= curves.eta_l(rp) - 1e-6)):
        failures.append("eta envelope violated")

    elapsed = time.perf_counter() - t0
    ok = not failures and elapsed < 120.0
    _report(8, ok, f"{failures or 'all property suites green'}, {elapsed:.0f}s")


def test_criterion_9_partition_raster():
    surf = sweep_surfaces(GridSpec(n_v=100, n_phi=100), baseline_params(0.26))
    labels = partition_by_class(surf)
    V, P = np.meshgrid(surf.grid.v_nodes(), surf.grid.phi_nodes(), indexing="ij")
    band = (V > 0.55) & (P > 0.5) & (P < 2.0)
    btb_frac = np.mean(labels[band] == "BTB")
    small = (V < 0.25) & (P < 1.0)
    bb_frac = np.mean(labels[small] == "BB")
    ok = btb_frac >= 0.95 and bb_frac >= 0.90
    _report(9, ok, f"BTB band fraction {btb_frac:.3f}, small-v BB fraction {bb_frac:.3f}")
