import ast
import itertools
import json
import os
import shutil
import struct
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import vipair.composite
from vipair.analysis import CASE_START, SCAN_STEPS
from vipair.auxmap import CASES
from vipair.calibration import D_GRID, fit_region_maps, region_samples
from vipair.cli import run_command
from vipair.composite import (
    CoeffTable,
    CoeffTableError,
    CompositeMap,
    ExtrapolationWarning,
    InsufficientData,
    Poly2D,
    REGION_SHAPES,
    Region,
    _data_path,
    detect_attractor,
    load_table,
    region_of,
    table_checksum,
)
from vipair.returnmap import GridSpec, ReturnClass, sweep_surfaces


def test_composite_imports_no_other_vipair_module():
    # the reduced map stands alone; fitting it from the exact map is calibration's job
    tree = ast.parse(Path(vipair.composite.__file__).read_text())
    modules = [alias.name for node in ast.walk(tree) if isinstance(node, ast.Import)
               for alias in node.names]
    modules += [("." * node.level) + (node.module or "") for node in ast.walk(tree)
                if isinstance(node, ast.ImportFrom)]
    assert not [m for m in modules if m.startswith((".", "vipair"))]
    # and at runtime, in a fresh interpreter, importing a module loads only
    # the package modules it imports itself
    src = str(Path(vipair.composite.__file__).parents[1])
    probe = ("import importlib, sys; importlib.import_module(sys.argv[1]); "
             "print(' '.join(sorted(m for m in sys.modules if m.split('.')[0] == 'vipair')))")
    expected = {
        "vipair.composite": "vipair vipair.composite",
        "vipair.core": "vipair vipair.core",
        "vipair.returnmap": "vipair vipair.core vipair.returnmap",
        "vipair.auxmap": "vipair vipair.auxmap vipair.composite vipair.fitting",
    }
    for module, loaded in expected.items():
        out = subprocess.run([sys.executable, "-c", probe, module], check=True, text=True,
                             capture_output=True, env=os.environ | {"PYTHONPATH": src})
        assert out.stdout.split() == loaded.split(), module


def test_region_dispatch_examples():
    assert region_of(0.2, 0.1) == Region.R3
    assert region_of(0.093, 2.116) == Region.R4
    assert region_of(0.843, 0.298) == Region.R1
    assert region_of(0.5, 3.5) == Region.RESET
    assert region_of(0.5, -0.1) == Region.RESET
    assert region_of(0.7, 0.8) == Region.R2
    assert region_of(0.3, 2.8) == Region.R5


def test_region_dispatch_total():
    vs = np.linspace(0.0, 1.0, 41)
    ps = np.linspace(-1.0, 4.0, 101)
    for v in vs:
        for p in ps:
            assert region_of(float(v), float(p)) in Region


def test_dispatch_chain_order_edge_cases():
    # R1 wins inside its box even though the R2 predicate also holds there
    assert region_of(0.8, 0.3) == Region.R1
    # states matching no explicit predicate fall through to R3
    assert region_of(0.55, 1.0) == Region.R3


def test_supplement_r1_constant_matches_printed_polynomial(supplement):
    maps = supplement.coeffs_for(Region.R1, 0.35)
    a0 = maps["phi"].coeffs[0]
    assert a0 == pytest.approx(-1.499 * 0.35**2 + 18.39 * 0.35 + 10.21, rel=1e-12)
    assert a0 == pytest.approx(16.463, abs=5e-4)


def test_r3_is_d_independent(table):
    lo = table.coeffs_for(Region.R3, 0.26)
    hi = table.coeffs_for(Region.R3, 0.35)
    assert np.allclose(lo["v"].coeffs, hi["v"].coeffs)
    assert np.allclose(lo["phi"].coeffs, hi["phi"].coeffs)


def test_out_of_range_d_warns(table):
    with pytest.warns(UserWarning, match="outside the calibrated range"):
        table.coeffs_for(Region.R1, 0.40)


def test_checksum_guards_against_drift(table):
    payload = table.to_dict()
    payload["regions"]["R1"]["v"]["terms"][0]["d_poly"][0] += 1e-3
    with pytest.raises(CoeffTableError, match="checksum"):
        CoeffTable.from_dict(payload)
    # round-trip of the untouched payload is fine
    clean = CoeffTable.from_dict(table.to_dict())
    assert clean.name == table.name


def test_absolute_flag_must_match_region_shape(table):
    # the |.| wrapper belongs to R5's v-map only; a file that claims it
    # elsewhere is refused even when its checksum is consistent
    payload = table.to_dict()
    payload["regions"]["R2"]["v"]["absolute"] = True
    payload["checksum"] = table_checksum(payload["regions"])
    with pytest.raises(CoeffTableError, match="absolute"):
        CoeffTable.from_dict(payload)


@pytest.mark.parametrize("name", ["calibrated", "supplement"])
def test_to_dict_reproduces_shipped_checksum(name):
    payload = json.loads(_data_path(name).read_text())
    assert CoeffTable.from_dict(payload).to_dict()["checksum"] == payload["checksum"]


def test_reset_rule(table):
    for d in (0.26, 0.30, 0.35):
        v, phi, _ = CompositeMap(table=table, d=d).step(0.5, 3.5)
        assert (v, phi) == (0.5, 1.2)
    # a reset lands back inside [0, pi]
    cm = CompositeMap(table=table, d=0.35)
    v, phi, region = cm.step(0.9, -2.0)
    assert region == Region.RESET
    assert 0.0 <= phi <= np.pi


def test_composite_route_and_fixed_point(table):
    """From (0.2, 0.1) at d=0.35 the map chatters in R3, is lifted by R4,
    crosses R2 into R1 and settles on the fixed point of the exact map."""
    v, phi, regions = CompositeMap(table=table, d=0.35).iterate(0.2, 0.1, 400)
    names = [r.value for r in regions[:-1]]
    route = [n for i, n in enumerate(names) if i == 0 or n != names[i - 1]]
    assert route[0] == "R3"
    assert "R4" in route and "R2" in route and "R1" in route
    assert route.index("R4") < route.index("R2") < route.index("R1")
    assert v[-1] == pytest.approx(0.8334, abs=2e-3)
    assert phi[-1] == pytest.approx(0.3636, abs=3e-3)


def test_composite_attractor_classes(table):
    v, phi, _ = CompositeMap(table=table, d=0.35).iterate(0.2, 0.1, 400)
    assert str(detect_attractor(v, phi)) == "FP"
    v, phi, _ = CompositeMap(table=table, d=0.30).iterate(0.2, 0.1, 400)
    cls = detect_attractor(v, phi)
    assert (cls.kind, cls.period) == ("PD", 2)
    v, phi, _ = CompositeMap(table=table, d=0.26).iterate(0.2, 0.1, 400)
    assert detect_attractor(v, phi).kind == "CD"


def test_detect_attractor_synthetic():
    const = np.full(200, 0.7)
    assert str(detect_attractor(const, const)) == "FP"
    alt = np.tile([0.6, 0.8], 100)
    cls = detect_attractor(alt, alt)
    assert (cls.kind, cls.period) == ("PD", 2)
    rng = np.random.default_rng(1)
    noise = rng.uniform(0, 1, 200)
    assert detect_attractor(noise, noise).kind == "CD"
    with pytest.raises(InsufficientData):
        detect_attractor(np.ones(10), np.ones(10))


def test_detect_attractor_judges_no_diverged_orbit():
    # a non-finite state anywhere, not only in the tail, leaves no class
    v, phi = np.full(200, 0.7), np.full(200, 0.7)
    phi[5] = np.nan
    assert detect_attractor(v, phi) is None
    v[-1] = np.inf
    assert detect_attractor(v, np.full(200, 0.7)) is None
    with pytest.raises(InsufficientData):
        detect_attractor(np.full(10, np.nan), np.ones(10))


def test_fit_region_r1_quality(surface35):
    fit = fit_region_maps(surface35, Region.R1, delta=1.2)
    assert fit["reports"]["v"].r_squared >= 0.999
    assert fit["reports"]["phi"].r_squared >= 0.999


def test_refit_agrees_with_shipped_table(surface35, table):
    """Both approximate the same surface, so they agree over the R1 box."""
    fit = fit_region_maps(surface35, Region.R1, delta=1.2)
    shipped = table.coeffs_for(Region.R1, 0.35)
    vs = np.linspace(0.63, 0.94, 25)
    ps = np.linspace(0.15, 0.45, 25)
    V, P = np.meshgrid(vs, ps)
    for target in ("v", "phi"):
        diff = fit[target](V, P) - shipped[target](V, P)
        assert np.sqrt(np.mean(diff**2)) <= 0.02


@pytest.mark.parametrize("region", ["R2", "R4", "R5"])
def test_fit_region_separable_requires_curves(surface35, region):
    with pytest.raises(ValueError, match="representative"):
        fit_region_maps(surface35, Region(region))


def test_region_samples_of_an_empty_class(params35):
    # no start in this corner returns without a top impact
    surface = sweep_surfaces(GridSpec(2, 2, (1.2, 1.3), (0.1, 0.2)), params35)
    assert surface.class_counts()[ReturnClass.BB] == 0
    assert [len(a) for a in region_samples(surface, ReturnClass.BB, Region.R3)] == [0] * 4


def test_poly_partial_evaluation(table):
    f1 = table.coeffs_for(Region.R1, 0.35)["v"]
    poly_v = f1.partial_phi(0.3)
    assert len(poly_v.coeffs) - 1 == 3
    for v in (0.7, 0.85):
        assert poly_v(v) == pytest.approx(f1(v, 0.3), abs=1e-12)


def _term_loop(poly, v, phi):
    """Poly2D evaluation as a plain term loop, each power taken per term."""
    v = np.asarray(v, dtype=float)
    phi = np.asarray(phi, dtype=float)
    out = np.zeros(np.broadcast(v, phi).shape)
    for (i, j), c in zip(poly.exponents, poly.coeffs):
        out += c * phi**i * v**j
    return out


def _same_floats(a, b) -> bool:
    """Equal as floats, with -0.0 apart from 0.0 and any NaN equal to any NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan], b[~nan])
            and np.array_equal(np.signbit(a[~nan]), np.signbit(b[~nan])))


_EDGE_VALUES = [0.0, -0.0, 1.0, -1.0, 1e3, -1e3, 1e300, -1e300, 1e-300,
                np.inf, -np.inf, np.nan]


def test_scalar_call_equals_array_call(table, supplement):
    # a 0-d call (Python float or np.float64) and a point-list call take the
    # Python-float path and must equal the array path bit for bit, for every
    # region shape (R5's v-map carries |.|), also where the values overflow
    rng = np.random.default_rng(77)
    edge_v, edge_phi = (np.array(x) for x in zip(*itertools.product(_EDGE_VALUES, repeat=2)))
    v = np.concatenate([rng.uniform(-0.5, 2.0, 300), edge_v])
    phi = np.concatenate([rng.uniform(-0.5, 3.5, 300), edge_phi])
    for tbl, d in itertools.product((table, supplement), (0.26, 0.30, 0.35)):
        for region in REGION_SHAPES:
            for tname, fmap in tbl.coeffs_for(region, d).items():
                with np.errstate(all="ignore"):
                    if isinstance(fmap, Poly2D):
                        array = fmap(v, phi)
                        assert _same_floats(array, _term_loop(fmap, v, phi))
                        scalar = [fmap(a, b) for a, b in zip(v.tolist(), phi.tolist())]
                        assert _same_floats([fmap(a, b) for a, b in zip(v, phi)], array)
                        points = fmap.at_points(v.tolist(), phi.tolist())
                        assert all(type(s) is float for s in points)
                        assert _same_floats(points, array)
                        for k in (0, 7, 300, -1):
                            assert _same_floats(fmap(v[k], phi[k]),
                                                fmap(np.array([v[k]]), np.array([phi[k]]))[0])
                    else:
                        x = v if tname == "v" else phi
                        array = fmap(x)
                        old = np.polynomial.polynomial.polyval(x, fmap.coeffs)
                        assert _same_floats(array, np.abs(old) if fmap.absolute else old)
                        scalar = [fmap(a) for a in x.tolist()]
                        assert fmap(x[3]) == fmap(np.array([x[3]]))[0]
                assert all(type(s) is float for s in scalar)
                assert _same_floats(scalar, array)
    assert table.coeffs_for(Region.R5, 0.35)["v"].absolute


def test_table_serialization_roundtrip(table, tmp_path):
    path = tmp_path / "table.json"
    path.write_text(json.dumps(table.to_dict()))
    from vipair.composite import load_table

    again = load_table(str(path))
    maps_a = table.coeffs_for(Region.R1, 0.3)
    maps_b = again.coeffs_for(Region.R1, 0.3)
    assert np.allclose(maps_a["v"].coeffs, maps_b["v"].coeffs)


def test_coeffs_for_equals_polyval(table, supplement):
    # coeffs_for evaluates each d-polynomial with horner; the map coefficients
    # equal the polyval form bit for bit, on the grid nodes and extrapolated
    ds = [float(d) for d in D_GRID] + np.linspace(0.20, 0.40, 41).tolist()
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", ExtrapolationWarning)
        for tbl, d, region in itertools.product((table, supplement), ds, REGION_SHAPES):
            maps = tbl.coeffs_for(region, d)
            for tname, terms in tbl.entries[region].items():
                vals = [np.polynomial.polynomial.polyval(d, poly) for _, poly in terms]
                deg_phi, deg_v, _ = REGION_SHAPES[region][tname]
                if deg_phi and deg_v:
                    expected = vals
                else:
                    expected = np.zeros(deg_phi + deg_v + 1)
                    for (i, j), val in zip((exp for exp, _ in terms), vals):
                        expected[i + j] += val
                assert _same_floats(maps[tname].coeffs, expected), (tbl.name, d, region)


def _step_loop(cmap, v0, phi0, n_steps):
    """CompositeMap.iterate as a plain loop of n_steps steps."""
    v, phi = np.empty(n_steps + 1), np.empty(n_steps + 1)
    regions = np.empty(n_steps + 1, dtype=object)
    v[0], phi[0] = v0, phi0
    for k in range(n_steps):
        v[k + 1], phi[k + 1], regions[k] = cmap.step(v[k], phi[k])
    regions[n_steps] = region_of(v[n_steps], phi[n_steps])
    return v, phi, regions


def _same_orbit(cmap, v0, phi0, n_steps=SCAN_STEPS):
    fast, slow = cmap.iterate(v0, phi0, n_steps), _step_loop(cmap, v0, phi0, n_steps)
    return (fast[0].tobytes() == slow[0].tobytes() and fast[1].tobytes() == slow[1].tobytes()
            and list(fast[2]) == list(slow[2]))


def test_iterate_equals_the_step_loop(table, supplement):
    # the stop at the first exact revisit leaves v, phi (bits) and the
    # region codes as the plain loop makes them
    rng = np.random.default_rng(29)
    diverging = (1.6, 4.898754646275609)
    with np.errstate(all="ignore"):
        for case, (d, _, _) in CASES.items():
            assert _same_orbit(CompositeMap(table=table, d=d), *CASE_START), case
        for tbl, d in itertools.product((table, supplement), (0.35, 0.30, 0.26)):
            cmap = CompositeMap(table=tbl, d=d)
            starts = zip(rng.uniform(0.01, 1.6, 12).tolist(),
                         rng.uniform(0.0, 2 * np.pi, 12).tolist())
            for v0, phi0 in [*starts, diverging, (np.nan, 0.3), (np.inf, 0.3)]:
                assert _same_orbit(cmap, v0, phi0), (tbl.name, d, v0, phi0)
            for n_steps in (0, 1):
                assert _same_orbit(cmap, *CASE_START, n_steps)
        # a diverged orbit is carried over as it is: non-finite to the end
        v, phi, _ = CompositeMap(table=table, d=0.26).iterate(np.inf, 0.3, SCAN_STEPS)
        assert not np.isfinite(v[-1]) and not np.isfinite(phi[-1])


class _CountingMap(CompositeMap):
    calls = 0

    def step(self, v, phi):
        _CountingMap.calls += 1
        return super().step(v, phi)


def test_iterate_stops_at_an_exact_fixed_point(table):
    fixed = (0.8333784829028135, 0.36364270881315885)
    cmap = _CountingMap(table=table, d=0.35)
    assert cmap.step(*fixed) == (*fixed, Region.R1)
    _CountingMap.calls = 0
    v, phi, regions = cmap.iterate(*fixed, SCAN_STEPS)
    assert _CountingMap.calls == 1
    assert (v == fixed[0]).all() and (phi == fixed[1]).all()
    assert set(regions) == {Region.R1}
    assert _same_orbit(cmap, *fixed)


class _SignedZeroMap(CompositeMap):
    """Sends (0.5, 0.0) to (0.5, -0.0), a state a float-tuple key takes for it."""

    def step(self, v, phi):
        if struct.pack("2d", v, phi) == struct.pack("2d", 0.5, 0.0):
            return 0.5, -0.0, Region.R3
        return super().step(v, phi)


def test_iterate_keys_are_exact_bits(table):
    cmap = _SignedZeroMap(table=table, d=0.35)
    v, phi, _ = cmap.iterate(0.5, 0.0, 5)
    assert np.signbit(phi[:2]).tolist() == [False, True]
    assert phi[2] != 0.0
    assert _same_orbit(cmap, 0.5, 0.0)


def test_case_steps_until_the_first_exact_revisit(monkeypatch, tmp_path):
    # FP revisits at step 203 (period 36), PD at step 40 (period 2); CD never
    calls = []
    step = CompositeMap.step
    monkeypatch.setattr(CompositeMap, "step", lambda self, v, phi: calls.append(1)
                        or step(self, v, phi))
    for case, n_steps in {"FP": 203, "PD": 40, "CD": 400}.items():
        calls.clear()
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")   # PD and CD escape the trust region
            assert run_command(["case", "--name", case, "--out", str(tmp_path)]) == 0
        assert len(calls) == n_steps, case


def test_shipped_tables_load_once(table, supplement):
    assert load_table("calibrated") is table and load_table() is table
    assert load_table("supplement") is supplement


def test_a_table_path_is_read_on_every_call(tmp_path):
    path = tmp_path / "table.json"
    shutil.copy(_data_path("calibrated"), path)
    first = load_table(str(path))
    payload = json.loads(path.read_text())
    payload["name"] = "edited"   # the checksum covers the regions only
    path.write_text(json.dumps(payload))
    second = load_table(str(path))
    assert (first.name, second.name) == ("calibrated", "edited")
    payload["regions"]["R1"]["v"]["terms"][0]["d_poly"][0] += 1e-3
    path.write_text(json.dumps(payload))
    with pytest.raises(CoeffTableError, match="checksum"):
        load_table(str(path))


def test_commands_leave_the_shared_table_unchanged(tmp_path):
    shipped = load_table("calibrated")
    checksum = shipped.to_dict()["checksum"]
    polys = [poly.copy() for targets in shipped.entries.values()
             for terms in targets.values() for _, poly in terms]
    for argv in (["case", "--name", "FP"],
                 ["composite", "--v0", "0.2", "--phi0", "0.1", "--steps", "50"],
                 ["bifurcation", "--kind", "composite", "--d-from", "0.35",
                  "--d-to", "0.33", "--step", "0.01"]):
        assert run_command(argv + ["--out", str(tmp_path / argv[0])]) == 0
    assert load_table("calibrated") is shipped
    assert shipped.to_dict()["checksum"] == checksum
    after = [poly for targets in shipped.entries.values()
             for terms in targets.values() for _, poly in terms]
    assert all(np.array_equal(a, b) for a, b in zip(polys, after, strict=True))
