import hashlib
import math

import numpy as np
import pytest

from vipair.core import (
    GRAZING_TOL,
    HORIZON,
    PI,
    SIDE_B,
    SIDE_T,
    START_OFFSET,
    STATUS_GRAZING,
    STATUS_NO_IMPACT,
    STATUS_OK,
    TIME_TOL,
    DegenerateParamsError,
    GrazingImpact,
    ImpactEvent,
    NoImpactWithinHorizon,
    NondimParams,
    PhysicalParams,
    _flow,
    apply_impact_law,
    baseline_params,
    event_on_b,
    flow_between_impacts,
    forcing_antiderivatives,
    impact_phase,
    next_impact,
    next_impact_batch,
    nondimensionalize,
)

REMARK_PHYSICAL = dict(capsule_mass=0.1245, capsule_length=0.5622,
                       forcing_frequency=5 * PI, forcing_norm=5.0,
                       incline=PI / 3, restitution=0.5, gravity=9.8)


def test_nondimensionalize_baseline_parameters():
    p = nondimensionalize(PhysicalParams(**REMARK_PHYSICAL))
    # direct evaluation of d = s M w^2/(F pi^2) and gbar = M g sin(beta)/F
    assert p.restitution == 0.5
    assert p.length == pytest.approx(0.5622 * 0.1245 * 25 / 5, rel=1e-12)
    assert p.length == pytest.approx(0.3500, abs=5e-5)
    assert p.gravity_term == pytest.approx(0.1245 * 9.8 * math.sin(PI / 3) / 5, rel=1e-12)
    assert p.gravity_term == pytest.approx(0.2113, abs=5e-5)


def test_nondimensionalize_zero_incline():
    p = nondimensionalize(PhysicalParams(**{**REMARK_PHYSICAL, "incline": 0.0}))
    assert p.gravity_term == 0.0


def test_nondimensionalize_degenerate_length():
    with pytest.raises(DegenerateParamsError):
        PhysicalParams(**{**REMARK_PHYSICAL, "capsule_length": 0.0})


@pytest.mark.parametrize("field,value", [("restitution", 1.5), ("incline", 2.0)])
def test_physical_params_invariants(field, value):
    with pytest.raises(ValueError):
        PhysicalParams(**{**REMARK_PHYSICAL, field: value})


def test_forcing_antiderivatives_at_zero():
    f, f1, f2 = forcing_antiderivatives(0.0, 0.0)
    assert f == pytest.approx(1.0)
    assert f1 == pytest.approx(0.0, abs=1e-15)
    assert f2 == pytest.approx(-1.0 / PI**2)


def test_forcing_antiderivatives_at_quarter_period():
    t = 0.5  # pi*t + psi = pi/2
    f, f1, f2 = forcing_antiderivatives(t, 0.0)
    assert f == pytest.approx(0.0, abs=1e-15)
    assert f1 == pytest.approx(1.0 / PI)
    assert f2 == pytest.approx(0.0, abs=1e-15)


def test_second_antiderivative_differentiates_back(rng):
    # central finite differences of F2 reproduce F
    ts = rng.uniform(-5, 5, 100)
    h = 1e-4
    for t in ts:
        f, _, _ = forcing_antiderivatives(t, 0.3)
        f2p = forcing_antiderivatives(t + h, 0.3)[2]
        f2m = forcing_antiderivatives(t - h, 0.3)[2]
        f2c = forcing_antiderivatives(t, 0.3)[2]
        assert (f2p - 2 * f2c + f2m) / h**2 == pytest.approx(f, abs=1e-6)


def test_impact_law():
    assert apply_impact_law(0.4, 0.5) == pytest.approx(-0.2)
    assert apply_impact_law(0.0, 0.7) == 0.0
    assert apply_impact_law(0.3, 1.0) == pytest.approx(-0.3)


def test_impact_law_contracts(rng):
    vs = rng.uniform(-1, 1, 50)
    rs = rng.uniform(0, 1, 50)
    out = apply_impact_law(vs, rs)
    assert np.all(np.abs(out) <= np.abs(vs) + 1e-15)


def test_impact_phase():
    assert impact_phase(2.5, 0.0) == pytest.approx(PI / 2)
    assert impact_phase(0.0, 0.26) == pytest.approx(0.26)
    assert impact_phase(2.0, 0.26) == pytest.approx(0.26)  # period 2 in t
    assert 0.0 <= impact_phase(-7.3, 1.0) < 2 * PI


def test_flow_initial_condition(params35):
    e = event_on_b(0.4, 0.26, params35)
    s = flow_between_impacts(e, 0.0, params35)
    assert s.displacement == pytest.approx(0.5 * params35.length)
    assert s.velocity == pytest.approx(-0.5 * 0.4)
    e_top = ImpactEvent(side=SIDE_T, time=0.0, velocity_in=-0.3, phase=0.0)
    s = flow_between_impacts(e_top, 0.0, params35)
    assert s.displacement == pytest.approx(-0.5 * params35.length)
    assert s.velocity == pytest.approx(0.15)


def test_flow_zero_forcing_closed_form():
    # with the forcing off the flight is a plain quadratic in elapsed time
    p = NondimParams(restitution=0.5, length=0.35, gravity_term=0.2113)
    e = event_on_b(0.4, 0.0, p)
    s = flow_between_impacts(e, 0.5, p, amplitude=0.0)
    assert s.velocity == pytest.approx(-0.2 + 0.2113 * 0.5)
    assert s.displacement == pytest.approx(0.175 - 0.1 + 0.5 * 0.2113 * 0.25)


def test_flow_matches_rk4_integrator(params35):
    # fixed-step 4th-order integration of Zdd = cos(pi t + psi) + gbar
    e = event_on_b(0.43, 0.26, params35)
    z = 0.5 * params35.length
    zdot = -params35.restitution * 0.43
    t = e.time
    h = 1e-4
    acc = lambda tt: math.cos(PI * tt) + params35.gravity_term
    n = int(2.0 / h)
    for _ in range(n):
        k1z, k1v = zdot, acc(t)
        k2z, k2v = zdot + 0.5 * h * k1v, acc(t + 0.5 * h)
        k3z, k3v = zdot + 0.5 * h * k2v, acc(t + 0.5 * h)
        k4z, k4v = zdot + h * k3v, acc(t + h)
        z += h / 6 * (k1z + 2 * k2z + 2 * k3z + k4z)
        zdot += h / 6 * (k1v + 2 * k2v + 2 * k3v + k4v)
        t += h
    s = flow_between_impacts(e, n * h, params35)
    assert s.displacement == pytest.approx(z, abs=1e-8)
    assert s.velocity == pytest.approx(zdot, abs=1e-8)


def _zero_forcing_oracle(v_in, p):
    """Closed-form next impact from side B with the forcing off."""
    r, d, g = p.restitution, p.length, p.gravity_term
    w = r * v_in
    disc = w * w - 2 * g * d
    if disc > 0:  # reaches the top wall at the smaller quadratic root
        tau = (w - math.sqrt(disc)) / g
        return SIDE_T, tau, -(w - g * tau)
    return SIDE_B, 2 * w / g, w  # falls back to the bottom wall


def test_next_impact_zero_forcing_reaches_top():
    p = NondimParams(restitution=0.5, length=0.35, gravity_term=0.2113)
    v_in = 1.5  # (r v)^2/(2 gbar) = 1.33 > d
    assert (0.5 * v_in) ** 2 / (2 * p.gravity_term) > p.length
    e = event_on_b(v_in, 0.2, p)
    nxt = next_impact(e, p, amplitude=0.0)
    side, tau, vel = _zero_forcing_oracle(v_in, p)
    assert nxt.side == SIDE_T == side
    assert nxt.time - e.time == pytest.approx(tau, abs=1e-10)
    assert nxt.velocity_in == pytest.approx(vel, abs=1e-10)


def test_next_impact_zero_forcing_oracle_random(rng):
    p = NondimParams(restitution=0.5, length=0.35, gravity_term=0.2113)
    for v_in in rng.uniform(0.05, 2.0, 200):
        e = event_on_b(float(v_in), float(rng.uniform(0, 2 * PI)), p)
        nxt = next_impact(e, p, amplitude=0.0)
        side, tau, vel = _zero_forcing_oracle(float(v_in), p)
        assert nxt.side == side
        assert nxt.time - e.time == pytest.approx(tau, abs=1e-10)
        assert nxt.velocity_in == pytest.approx(vel, abs=1e-10)


def test_next_impact_residual_and_sign(params35, rng):
    for _ in range(50):
        e = event_on_b(float(rng.uniform(0.05, 1.0)), float(rng.uniform(0, PI)), params35)
        nxt = next_impact(e, params35)
        s = flow_between_impacts(e, nxt.time - e.time, params35)
        wall = 0.5 * params35.length if nxt.side == SIDE_B else -0.5 * params35.length
        assert abs(s.displacement - wall) <= 1e-10
        assert s.velocity == pytest.approx(nxt.velocity_in, abs=1e-10)
        if nxt.side == SIDE_B:
            assert nxt.velocity_in > 0
        else:
            assert nxt.velocity_in < 0


# Zero forcing, from side B at t = 0.6, with just enough speed to pass the top
# wall: the parabola crosses it at the smaller quadratic root, at a speed far
# above the grazing tolerance, and falls back to the bottom wall later.
SHALLOW_PARAMS = NondimParams(restitution=0.5, length=0.35, gravity_term=0.2113)
SHALLOW_V_IN = math.sqrt(2 * 0.2113 * 0.35) / 0.5 * (1 + 1e-12)


def test_shallow_top_crossing_oracle():
    side, tau, vel = _zero_forcing_oracle(SHALLOW_V_IN, SHALLOW_PARAMS)
    assert side == SIDE_T
    assert tau == pytest.approx(1.82011, abs=1e-5)
    assert abs(vel) == pytest.approx(5.4e-7, rel=0.01)
    assert abs(vel) > GRAZING_TOL


def test_next_impact_finds_shallow_top_crossing():
    e = ImpactEvent(side=SIDE_B, time=0.6, velocity_in=SHALLOW_V_IN,
                    phase=float(impact_phase(0.6)))
    nxt = next_impact(e, SHALLOW_PARAMS, amplitude=0.0)
    _, tau, vel = _zero_forcing_oracle(SHALLOW_V_IN, SHALLOW_PARAMS)
    assert nxt.side == SIDE_T
    assert nxt.time - e.time == pytest.approx(tau, abs=1e-10)
    assert nxt.velocity_in == pytest.approx(vel, rel=1e-3)


def test_no_wall_penetration(params35, rng):
    for _ in range(10):
        e = event_on_b(float(rng.uniform(0.1, 1.0)), float(rng.uniform(0, PI)), params35)
        nxt = next_impact(e, params35)
        taus = np.linspace(1e-9, nxt.time - e.time, 1000)
        s = flow_between_impacts(e, taus, params35)
        half = 0.5 * params35.length
        assert np.all(s.displacement >= -half - 1e-8)
        assert np.all(s.displacement <= half + 1e-8)


def test_chain_from_figure_start_reaches_alternating_motion(params35):
    # from (0.43, 0.26) the motion settles into sustained 1:1 B/T alternation
    e = event_on_b(0.43, 0.26, params35)
    sides = []
    for _ in range(40):
        e = next_impact(e, params35)
        sides.append(e.side)
    assert all(a != b for a, b in zip(sides[-12:], sides[-11:]))  # alternating tail
    assert e.phase == pytest.approx(impact_phase(e.time, 0.0))


def test_no_impact_within_horizon():
    # no forcing, no gravity: the coast to the far wall outlasts the horizon
    p = NondimParams(restitution=0.5, length=0.35, gravity_term=0.0)
    e = event_on_b(1e-3, 0.0, p)  # crossing due at tau = 700 > HORIZON
    with pytest.raises(NoImpactWithinHorizon):
        next_impact(e, p, amplitude=0.0)


def test_grazing_detection():
    # a near-rest start from the first fuzz case of the frozen-march test:
    # the forcing pushes the ball back into the bottom wall at |Zdot| ~ 7.5e-9
    e = ImpactEvent(side=SIDE_B, time=1.7048851055613437,
                    velocity_in=1.1848686624457046e-08,
                    phase=float(impact_phase(1.7048851055613437)))
    with pytest.raises(GrazingImpact):
        next_impact(e, baseline_params(0.35))


def test_event_requires_positive_velocity(params35):
    with pytest.raises(ValueError):
        event_on_b(-0.1, 0.2, params35)
    with pytest.raises(ValueError):
        ImpactEvent(side="X", time=0.0, velocity_in=0.1, phase=0.0)


def test_baseline_params():
    p = baseline_params(0.3)
    assert p.length == 0.3
    assert p.restitution == 0.5
    assert p.gravity_term == pytest.approx(0.2113, abs=5e-5)


def _march_next_impact_batch(sides, times, velocities, p, *, amplitude=1.0,
                             scan_step=1e-3, horizon=40.0, grazing_tol=1e-8):
    """Frozen reference: the event solver that evaluates Z on every grid sample.

    Kept verbatim from the grid march that preceded the grid-free solver; the
    production solver must agree with it wherever a leg starts faster than
    1e-3 (see test_next_impact_batch_matches_full_march).
    """
    sides = np.asarray(sides, dtype=np.int8)
    t0 = np.asarray(times, dtype=float)
    vin = np.asarray(velocities, dtype=float)
    n = t0.shape[0]
    half = 0.5 * p.length
    gbar = p.gravity_term
    psi = p.general_phase

    z0 = np.where(sides > 0, half, -half)
    vplus = -p.restitution * vin
    arg0 = PI * t0 + psi
    f1_0 = amplitude * np.sin(arg0) / PI
    f2_0 = -amplitude * np.cos(arg0) / PI**2
    c0 = z0 - f2_0
    c1 = vplus - f1_0

    def z_at(rows, tau):
        return (c0[rows] + c1[rows] * tau + 0.5 * gbar * tau**2
                - amplitude * np.cos(arg0[rows] + PI * tau) / PI**2)

    def zdot_at(rows, tau):
        return (vplus[rows] + gbar * tau
                + amplitude * np.sin(arg0[rows] + PI * tau) / PI - f1_0[rows])

    out_side = np.zeros(n, dtype=np.int8)
    out_t = np.full(n, np.nan)
    out_v = np.full(n, np.nan)
    status = np.ones(n, dtype=np.int8)

    active = np.arange(n)
    base = 0.0
    prev_z = None
    n_steps = int(math.ceil(horizon / scan_step))
    done_steps = 0
    chunk = 256
    while active.size and done_steps < n_steps:
        m = min(chunk, n_steps - done_steps)
        chunk = min(2 * chunk, 2048)
        offs = 1e-9 + (base + scan_step * np.arange(m + 1))
        z = z_at(active[:, None], offs[None, :])
        if prev_z is not None:
            z = np.concatenate([prev_z[:, None], z], axis=1)
            taus = np.concatenate([[offs[0] - scan_step], offs])
        else:
            taus = offs

        up_b = (z[:, :-1] < half) & (z[:, 1:] >= half)
        down_t = (z[:, :-1] > -half) & (z[:, 1:] <= -half)
        hit = up_b | down_t
        rows = hit.any(axis=1)
        if rows.any():
            ridx = np.flatnonzero(rows)
            cols = hit[ridx].argmax(axis=1)
            ev_rows = active[ridx]
            is_b = up_b[ridx, cols]
            lo = taus[cols]
            hi = taus[cols + 1]
            target = np.where(is_b, half, -half)
            g_lo = z_at(ev_rows, lo) - target
            for _ in range(45):
                mid = 0.5 * (lo + hi)
                g_mid = z_at(ev_rows, mid) - target
                bracket_lo = g_lo * g_mid <= 0
                hi = np.where(bracket_lo, mid, hi)
                lo = np.where(bracket_lo, lo, mid)
                g_lo = np.where(bracket_lo, g_lo, g_mid)
            t_star = 0.5 * (lo + hi)
            zdot = zdot_at(ev_rows, t_star)
            out_side[ev_rows] = np.where(is_b, 1, -1)
            out_t[ev_rows] = t0[ev_rows] + t_star
            out_v[ev_rows] = zdot
            graze = np.abs(zdot) < grazing_tol
            status[ev_rows] = np.where(graze, 2, 0).astype(np.int8)
            keep = ~rows
            active = active[keep]
            prev_z = z[keep, -1] if active.size else None
        else:
            prev_z = z[:, -1]
        base += scan_step * m
        done_steps += m

    return out_side, out_t, out_v, status


def _fuzz_rows(rng, n):
    """Random B/T starts with velocities log-uniform in [1e-9, 1.5]."""
    sides = rng.choice(np.array([1, -1], dtype=np.int8), n)
    speed = np.exp(rng.uniform(math.log(1e-9), math.log(1.5), n))
    return sides, rng.uniform(-3.0, 3.0, n), sides * speed


def test_next_impact_batch_matches_full_march():
    # Wherever a leg starts faster than 1e-3 the grid-free solver returns the
    # march's side and status, and a time within TIME_TOL.  Slower starts are
    # in the chattering band: there Z - wall sits at the rounding floor for
    # both solvers, and the rows that differ are counted.
    rng = np.random.default_rng(4047)
    forced = NondimParams(restitution=0.5, length=0.3, gravity_term=0.2113,
                          general_phase=0.7)
    cases = [  # (params, solver keywords, batch sizes)
        (baseline_params(0.35), {}, [1] * 40 + [7] * 20 + [1200]),
        (forced, {}, [1] * 20 + [7] * 10 + [400]),
        (forced, {"amplitude": 0.0}, [7] * 10 + [300]),
        (NondimParams(restitution=0.5, length=0.35, gravity_term=0.0),
         {"amplitude": 0.0}, [1] * 5 + [40]),   # coasting: mostly no impact in 40
    ]
    seen_status = set()
    speeds, differ = [], []
    for p, kw, sizes in cases:
        for size in sizes:
            sides, times, vels = _fuzz_rows(rng, size)
            got = next_impact_batch(sides, times, vels, p, **kw)
            want = _march_next_impact_batch(sides, times, vels, p, **kw)
            # no-impact rows have NaN times on both sides, which count as close
            close = ((got[0] == want[0]) & (got[3] == want[3])
                     & ~(np.abs(got[1] - want[1]) > TIME_TOL))
            speeds.append(np.abs(vels))
            differ.append(~close)
            seen_status.update(want[3].tolist())
    speeds, differ = np.concatenate(speeds), np.concatenate(differ)
    assert speeds.size >= 2000
    assert seen_status == {0, 1, 2}
    assert not differ[speeds >= 1e-3].any()
    assert np.count_nonzero(differ & (speeds >= 1e-4)) == 0
    assert np.count_nonzero(differ & (speeds < 1e-4)) == 409


def test_next_impact_batch_top_wall_tangency():
    # Forcing off, apex at -d/2 to rounding: the march steps over all three
    # contacts and reports the later bottom-wall impact.  The grid-free solver
    # finds the top-wall contact the closed form predicts: grazing at the
    # apex, and a true crossing just past it.
    p = NondimParams(restitution=0.5, length=0.35, gravity_term=0.2113)
    v_apex = math.sqrt(2 * p.gravity_term * p.length) / p.restitution
    times = np.array([0.0, 0.3, 0.6])
    vels = [v_apex, math.nextafter(v_apex, 2.0), v_apex * (1 + 1e-12)]
    side, t, v, status = next_impact_batch([1, 1, 1], times, vels, p, amplitude=0.0)
    assert status.tolist() == [STATUS_GRAZING, STATUS_GRAZING, STATUS_OK]
    for i, v_in in enumerate(vels):
        want_side, tau, vel = _zero_forcing_oracle(v_in, p)
        assert want_side == SIDE_T and side[i] == -1
        assert t[i] - times[i] == pytest.approx(tau, abs=1e-7)
        assert v[i] == pytest.approx(vel, abs=GRAZING_TOL)


def _dense_first_crossing(side, t0, v_in, p, tau_max, amplitude=1.0, n=2**20):
    """(side, lo, hi): the first wall crossing on n uniform samples of
    (START_OFFSET, tau_max], as the sample interval (lo, hi] that holds it;
    side 0 when there is none."""
    event = ImpactEvent(side=SIDE_B if side > 0 else SIDE_T, time=t0, velocity_in=v_in,
                        phase=float(impact_phase(t0, p.general_phase)))
    taus = np.linspace(START_OFFSET, tau_max, n)
    z = flow_between_impacts(event, taus, p, amplitude=amplitude).displacement
    half = 0.5 * p.length
    up = (z[:-1] < half) & (z[1:] >= half)
    down = (z[:-1] > -half) & (z[1:] <= -half)
    hit = up | down
    if not hit.any():
        return 0, math.nan, math.nan
    i = int(hit.argmax())
    return (1 if up[i] else -1), taus[i], taus[i + 1]


def _assert_matches_dense(sides, times, vels, p, amplitude=1.0, tau_max=6.0):
    got_side, got_t, _, status = next_impact_batch(sides, times, vels, p, amplitude=amplitude)
    for i in range(len(sides)):
        side, lo, hi = _dense_first_crossing(sides[i], times[i], vels[i], p, tau_max,
                                             amplitude=amplitude)
        assert side != 0, "each case needs a crossing within tau_max"
        assert got_side[i] == side and status[i] != STATUS_NO_IMPACT
        assert lo - TIME_TOL <= got_t[i] - times[i] <= hi + TIME_TOL


@pytest.mark.parametrize("amplitude", [0.1, 0.2113])
def test_next_impact_without_zdd_breakpoints(amplitude):
    # |A| <= gbar: Zdd never changes sign, so the whole flight is one piece
    p = baseline_params(0.3)
    _assert_matches_dense([1, -1, 1, -1], [0.0, 0.4, 1.1, 1.7], [0.3, -0.5, 1.2, -0.05],
                          p, amplitude=amplitude)


def test_next_impact_coasts_past_horizon():
    # A = 0 and gbar = 0: a straight coast to the far wall, d / (r v) later
    p = NondimParams(restitution=0.5, length=0.35, gravity_term=0.0)
    taus = np.array([HORIZON - 0.1, HORIZON + 0.1])
    side, t, v, status = next_impact_batch([1, 1], [0.0, 0.0], p.length / (0.5 * taus), p,
                                           amplitude=0.0)
    assert status.tolist() == [STATUS_OK, STATUS_NO_IMPACT]
    assert side[0] == -1 and t[0] == pytest.approx(taus[0], abs=1e-9)
    assert side[1] == 0 and np.isnan(t[1]) and np.isnan(v[1])


@pytest.mark.parametrize("psi", [0.7, -2.5])
def test_next_impact_with_general_phase(psi, rng):
    p = NondimParams(restitution=0.5, length=0.3, gravity_term=0.2113, general_phase=psi)
    sides = rng.choice(np.array([1, -1], dtype=np.int8), 6)
    _assert_matches_dense(sides, rng.uniform(0.0, 2.0, 6), sides * rng.uniform(0.2, 1.4, 6), p)


def test_next_impact_breakpoint_at_the_start():
    # Starts whose first Zdd breakpoint falls before START_OFFSET or just
    # after it: the solver still ends a piece one ulp after its start and
    # walks on
    p = NondimParams(restitution=0.5, length=0.35, gravity_term=0.2113, general_phase=0.4)
    alpha = math.acos(-p.gravity_term)
    at_alpha = (alpha - p.general_phase) / PI
    times = np.array([at_alpha - dt for dt in (0.0, 0.5e-9, 1e-9, 1.5e-9)])
    first = (alpha - np.mod(PI * times + p.general_phase, 2 * PI)) / PI
    assert (first <= START_OFFSET).any() and (first > START_OFFSET).any()
    for side, v in ((1, 0.4), (-1, -0.4), (1, 1.3), (-1, -1e-2)):
        _assert_matches_dense([side] * 4, times, [v] * 4, p)


def _bisected_first_crossing(side, t0, v_in, p, amplitude, tau_max=4.0, n=2**16):
    """(side, tau, Zdot) of the first wall crossing of core._flow: the dense
    sample interval that holds it, bisected down to adjacent floats."""
    first, lo, hi = _dense_first_crossing(side, t0, v_in, p, tau_max, amplitude, n)
    if first == 0:
        return 0, math.nan, math.nan
    half = 0.5 * p.length
    z0, vplus = side * half, apply_impact_law(v_in, p.restitution)
    while lo < 0.5 * (lo + hi) < hi:
        mid = 0.5 * (lo + hi)
        z, _ = _flow(z0, vplus, t0, mid, p, amplitude)
        lo, hi = (lo, mid) if first * z >= half else (mid, hi)
    return first, hi, _flow(z0, vplus, t0, hi, p, amplitude)[1]


@pytest.mark.parametrize("amplitude", [1.0, -0.7])
@pytest.mark.parametrize("psi", [0.0, 0.7])
def test_crossings_on_zdd_breakpoints_match_bisection(amplitude, psi):
    # Z is linear in the post-impact velocity, so each leg's velocity puts Z
    # on a wall exactly at one of the first Zdd breakpoints after its start.
    # Legs whose first crossing is that one keep their side, status and time.
    p = baseline_params(0.35).replace(general_phase=psi)
    half = 0.5 * p.length
    alpha = math.acos(-p.gravity_term / amplitude)
    on_breakpoint = 0
    for t0 in np.linspace(0.0, 2.0, 9):
        ph0 = float(np.mod(PI * t0 + psi, 2 * PI))
        phases = np.sort(np.concatenate([np.array([alpha, 2 * PI - alpha]) + 2 * PI * m
                                         for m in range(3)]))
        for tau in ((phases[phases > ph0 + PI * START_OFFSET] - ph0) / PI)[:3]:
            for side, wall in ((1, half), (1, -half), (-1, half), (-1, -half)):
                z_still, _ = _flow(side * half, 0.0, t0, tau, p, amplitude)
                vplus = (wall - z_still) / tau
                if side * vplus >= 0:   # the ball must leave its wall
                    continue
                v_in = -vplus / p.restitution
                want_side, want_tau, zdot = _bisected_first_crossing(side, t0, v_in, p,
                                                                      amplitude)
                if want_side == 0 or abs(want_tau - tau) > 1e-9:
                    continue   # another crossing comes first
                on_breakpoint += 1
                got_side, t, _, status = next_impact_batch([side], [t0], [v_in], p,
                                                           amplitude=amplitude)
                assert got_side[0] == want_side == (1 if wall > 0 else -1)
                assert abs(zdot) > GRAZING_TOL and status[0] == STATUS_OK
                assert abs(t[0] - t0 - want_tau) <= TIME_TOL
    assert on_breakpoint >= 40


# (params, amplitude) of the bit-pinned leg sets: calibrate's own forcing at
# two d, and branches calibrate never takes: no Zdd breakpoints (A = 0 and
# 0 < A < gbar), a negative amplitude and a general phase.
PINNED_LEG_SETS = [
    (baseline_params(0.35), 1.0),
    (baseline_params(0.26), 1.0),
    (baseline_params(0.30), 0.0),
    (baseline_params(0.30), 0.1),
    (baseline_params(0.30), -0.7),
    (baseline_params(0.30).replace(general_phase=0.7), 1.0),
]
# sha256 of next_impact_batch's four outputs on those legs, computed at the
# grid-free solver's first version (e2e3ba6)
PINNED_LEGS_SHA256 = "b547db61c280b328a87e989e313e4a58d5d55d2971e4a415219548dbca568766"


def _pinned_legs(i, n=250):
    """n seeded legs from either wall: every fifth log-uniform in [1e-10, 1e-3]
    (chattering and grazing), the rest uniform in [1e-3, 1.6], and row 1 NaN."""
    rng = np.random.default_rng([1717, i])
    sides = rng.choice(np.array([1, -1], dtype=np.int8), n)
    slow = np.arange(n) % 5 == 0
    speed = np.where(slow, np.exp(rng.uniform(np.log(1e-10), np.log(1e-3), n)),
                     rng.uniform(1e-3, 1.6, n))
    times = rng.uniform(0.0, 2.0, n)
    vels = sides * speed
    vels[1] = np.nan
    return sides, times, vels


def test_next_impact_batch_outputs_are_pinned():
    # Speed-ups of the event solver keep its every output bit
    digest = hashlib.sha256()
    statuses = set()
    for i, (p, amplitude) in enumerate(PINNED_LEG_SETS):
        out = next_impact_batch(*_pinned_legs(i), p, amplitude=amplitude)
        statuses.update(out[3].tolist())
        for column in out:
            digest.update(np.ascontiguousarray(column).tobytes())
    assert statuses == {STATUS_OK, STATUS_NO_IMPACT, STATUS_GRAZING}
    assert digest.hexdigest() == PINNED_LEGS_SHA256
