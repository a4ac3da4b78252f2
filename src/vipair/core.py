"""Exact nondimensional dynamics of a harmonically forced vibro-impact pair.

A ball moves freely inside a forced capsule and impacts the capsule ends
instantaneously with restitution r.  In relative coordinates the state between
impacts follows

    Zdd = A*cos(pi*t + psi) + gbar,      -d/2 <= Z <= d/2,

with closed-form quadrature between impacts.  The bottom wall is at
Z = +d/2 (side "B", hit with Zdot > 0), the top wall at Z = -d/2
(side "T", hit with Zdot < 0).  Impact-to-impact propagation has no closed
form, so `next_impact_batch` locates wall crossings numerically.  The next
impact lies in the first interval of a fixed sample grid (step SCAN_STEP,
from START_OFFSET to HORIZON after the impact) in which Z rises through +d/2
or falls through -d/2; 45 bisection steps on that interval give its time.
SCAN_STEP, HORIZON and GRAZING_TOL are module constants: the solver is the
oracle for every comparison, so it runs in one configuration.

Most grid samples cannot start that interval, and certified skip-ahead avoids
evaluating them.  Since gbar - |A| <= Zdd <= gbar + |A| between impacts, the
state (Z, Zdot) at one sample bounds how soon either wall can come within
SKIP_MARGIN of Z; every sample before that time is strictly inside the
capsule and is skipped.  The bound only selects which samples are evaluated,
so results are bit-identical to evaluating Z on every grid sample.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np

PI = math.pi

SIDE_B = "B"
SIDE_T = "T"

# Event-solver constants: fixed march step, bracketing offset after an impact,
# search horizon (20 forcing periods), bisection time tolerance, and the
# velocity magnitude below which a crossing is treated as grazing.
SCAN_STEP = 1e-3
START_OFFSET = 1e-9
HORIZON = 40.0
TIME_TOL = 1e-12
GRAZING_TOL = 1e-8

# next_impact_batch row statuses.
STATUS_OK = 0
STATUS_NO_IMPACT = 1
STATUS_GRAZING = 2

# Largest chunk of the sample grid's construction (it fixes the grid's floats)
# and largest scan window, in grid intervals.
_SCAN_CHUNK = 2048

# Certified skip-ahead (see next_impact_batch): the distance kept from either
# wall when skipping samples, far above the ~1e-13 evaluation error of Z at
# tau <= 40; certified steps per round; first window of grid intervals; and
# the batch size up to which the certificate runs in scalar arithmetic.
SKIP_MARGIN = 1e-9
_SKIP_STEPS = 6
_FIRST_WINDOW = 8
_SCALAR_ROWS = 8


class DegenerateParamsError(ValueError):
    """Physical parameters that collapse the nondimensionalization."""


class NoImpactWithinHorizon(RuntimeError):
    """No wall crossing found in (t_j, t_j + HORIZON]."""


class GrazingImpact(RuntimeError):
    """A wall crossing with |Zdot| below GRAZING_TOL."""


def _check_finite(params):
    if not all(map(math.isfinite, vars(params).values())):
        raise ValueError(f"parameters must be finite, got {params}")


@dataclass(frozen=True)
class PhysicalParams:
    """Dimensional parameters of the pair.

    ball_mass is carried for documentation only; the dynamics assume the
    capsule mass dominates (M >> m).
    """

    capsule_mass: float           # M, kg
    capsule_length: float         # s, m
    forcing_frequency: float      # omega, rad/s
    forcing_norm: float           # ||F||, N
    incline: float                # beta, rad
    restitution: float            # r
    gravity: float = 9.8          # m/s^2
    ball_mass: float = 0.0        # m, kg (unused by the reduced model)

    def __post_init__(self):
        _check_finite(self)
        if self.capsule_mass <= 0 or self.capsule_length <= 0:
            raise DegenerateParamsError("capsule mass and length must be positive")
        if self.forcing_frequency <= 0 or self.forcing_norm <= 0:
            raise DegenerateParamsError("forcing frequency and norm must be positive")
        if not 0.0 <= self.restitution <= 1.0:
            raise ValueError(f"restitution must be in [0, 1], got {self.restitution}")
        if not 0.0 <= self.incline <= PI / 2:
            raise ValueError(f"incline must be in [0, pi/2], got {self.incline}")


@dataclass(frozen=True)
class NondimParams:
    """Nondimensional parameter set: restitution, length, gravity term, phase."""

    restitution: float            # r
    length: float                 # d
    gravity_term: float           # gbar
    general_phase: float = 0.0    # psi, rad

    def __post_init__(self):
        _check_finite(self)
        if self.length <= 0:
            raise DegenerateParamsError(f"dimensionless length must be positive, got {self.length}")
        if not 0.0 <= self.restitution <= 1.0:
            raise ValueError(f"restitution must be in [0, 1], got {self.restitution}")
        if self.gravity_term < 0:
            raise ValueError(f"gravity term must be nonnegative, got {self.gravity_term}")

    def replace(self, **kw) -> "NondimParams":
        return replace(self, **kw)


# Baseline parameterization used throughout the study: r = 0.5, ||F|| = 5 N,
# M = 124.5 g, omega = 5*pi, beta = pi/3, g = 9.8; d is set directly.
BASE_GRAVITY_TERM = 0.1245 * 9.8 * math.sin(PI / 3) / 5.0


def baseline_params(d: float, psi: float = 0.0) -> NondimParams:
    """Nondimensional parameters of the baseline setup at dimensionless length d."""
    return NondimParams(restitution=0.5, length=d, gravity_term=BASE_GRAVITY_TERM,
                        general_phase=psi)


def nondimensionalize(p: PhysicalParams, psi: float = 0.0) -> NondimParams:
    """Map physical parameters to the nondimensional set.

    d = s*M*omega^2 / (||F||*pi^2),  gbar = M*g*sin(beta) / ||F||.
    """
    d = p.capsule_length * p.capsule_mass * p.forcing_frequency**2 / (p.forcing_norm * PI**2)
    gbar = p.capsule_mass * p.gravity * math.sin(p.incline) / p.forcing_norm
    return NondimParams(restitution=p.restitution, length=d, gravity_term=gbar,
                        general_phase=psi)


def forcing_antiderivatives(t, psi: float = 0.0, amplitude: float = 1.0):
    """Forcing and its first/second antiderivatives at dimensionless time t.

    F  = A*cos(pi*t + psi)
    F1 = A*sin(pi*t + psi)/pi
    F2 = -A*cos(pi*t + psi)/pi^2

    `amplitude` exists so tests can switch the forcing off (A = 0).
    """
    arg = PI * np.asarray(t, dtype=float) + psi
    f = amplitude * np.cos(arg)
    f1 = amplitude * np.sin(arg) / PI
    f2 = -amplitude * np.cos(arg) / PI**2
    return f, f1, f2


def apply_impact_law(velocity_in, restitution: float):
    """Instantaneous impact law: Zdot_plus = -r * Zdot_minus."""
    return -restitution * velocity_in


def impact_phase(t, psi: float = 0.0):
    """Forcing phase mod(pi*t + psi, 2*pi) at time t; result in [0, 2*pi)."""
    return np.mod(PI * np.asarray(t, dtype=float) + psi, 2.0 * PI)


@dataclass(frozen=True)
class ImpactEvent:
    """One impact: wall side, absolute time, signed pre-impact velocity, phase.

    Sign convention: side "B" events have velocity_in > 0, side "T" events
    velocity_in < 0.
    """

    side: str
    time: float
    velocity_in: float
    phase: float

    def __post_init__(self):
        if self.side not in (SIDE_B, SIDE_T):
            raise ValueError(f"side must be 'B' or 'T', got {self.side!r}")


@dataclass(frozen=True)
class FlowSample:
    """Relative displacement/velocity at one time along the between-impact flow."""

    displacement: float
    velocity: float
    time: float


def event_on_b(v: float, phase: float, p: NondimParams) -> ImpactEvent:
    """A bottom-wall event with pre-impact velocity v at the given forcing phase.

    The representative absolute time is (phase - psi)/pi; the dynamics depend
    on time only through the phase, so any representative is equivalent.
    """
    if v <= 0:
        raise ValueError(f"a B-side event needs velocity_in > 0, got {v}")
    t0 = (phase - p.general_phase) / PI
    return ImpactEvent(side=SIDE_B, time=t0, velocity_in=v,
                       phase=float(impact_phase(t0, p.general_phase)))


def _flow(z0, vplus, t0, tau, p: NondimParams, amplitude: float):
    """Closed-form Z and Zdot at t0 + tau given post-impact state (z0, vplus)."""
    t = t0 + tau
    _, f1_t, f2_t = forcing_antiderivatives(t, p.general_phase, amplitude)
    _, f1_0, f2_0 = forcing_antiderivatives(t0, p.general_phase, amplitude)
    zdot = vplus + p.gravity_term * tau + f1_t - f1_0
    z = (z0 + vplus * tau + 0.5 * p.gravity_term * tau**2
         + f2_t - f2_0 - f1_0 * tau)
    return z, zdot


def flow_between_impacts(event: ImpactEvent, tau, p: NondimParams,
                         amplitude: float = 1.0) -> FlowSample:
    """Evaluate the between-impact flow a time tau >= 0 after an impact.

    Applies the impact law to event.velocity_in and integrates the forced
    free flight from Z = +d/2 (side B) or -d/2 (side T).  Validity past the
    next impact is the caller's concern.  tau may be an array.
    """
    z0 = 0.5 * p.length if event.side == SIDE_B else -0.5 * p.length
    vplus = apply_impact_law(event.velocity_in, p.restitution)
    z, zdot = _flow(z0, vplus, event.time, np.asarray(tau, dtype=float), p, amplitude)
    if np.ndim(tau) == 0:
        return FlowSample(displacement=float(z), velocity=float(zdot),
                          time=event.time + float(tau))
    return FlowSample(displacement=z, velocity=zdot, time=event.time + np.asarray(tau))


@functools.cache
def _scan_grid() -> np.ndarray:
    """Sample times tau of the fixed march over (0, HORIZON], read-only.

    Built in chunks of 256 doubling to _SCAN_CHUNK samples with the
    arithmetic the march has always used, so the floats never change;
    adjacent chunks share their end point, which appears once.
    """
    n_steps = int(math.ceil(HORIZON / SCAN_STEP))
    parts = []
    base, done, chunk = 0.0, 0, 256
    while done < n_steps:
        m = min(chunk, n_steps - done)
        chunk = min(2 * chunk, _SCAN_CHUNK)
        offs = START_OFFSET + (base + SCAN_STEP * np.arange(m + 1))
        parts.append(offs[1:] if parts else offs)
        base += SCAN_STEP * m
        done += m
    grid = np.concatenate(parts)
    grid.flags.writeable = False
    return grid


def _safe_time(dist, speed, accel):
    """Smallest s > 0 with speed*s + accel*s^2/2 = dist (dist > 0); inf if none.

    The root is taken in the form without cancellation for either sign of
    speed, so its rounding error stays far below SKIP_MARGIN.
    """
    with np.errstate(invalid="ignore", divide="ignore"):
        root = np.sqrt(speed * speed + 2.0 * accel * dist)
        s = np.where(speed >= 0, 2.0 * dist / (speed + root), (root - speed) / accel)
    return np.where(s >= 0, s, np.inf)


def _safe_time_scalar(dist: float, speed: float, accel: float) -> float:
    """_safe_time for Python floats."""
    disc = speed * speed + 2.0 * accel * dist
    if disc < 0.0:
        return math.inf
    root = math.sqrt(disc)
    if speed >= 0.0:
        return 2.0 * dist / (speed + root) if speed + root > 0.0 else math.inf
    return (root - speed) / accel if accel > 0.0 else math.inf


def next_impact_batch(sides, times, velocities, p: NondimParams, *,
                      amplitude: float = 1.0):
    """Vectorized impact-to-impact step for a batch of events.

    Each row's next impact lies in the first interval of the fixed sample
    grid `_scan_grid()` (step SCAN_STEP up to HORIZON) in which Z rises
    through +d/2 (side B) or falls through -d/2 (side T); 45 bisection steps
    on that interval give the impact time.  Certified skip-ahead decides which grid
    samples are evaluated at all: from a sample's (Z, Zdot) and the bound
    gbar - |A| <= Zdd <= gbar + |A|, every later sample before the first time
    either wall could come within SKIP_MARGIN of Z is strictly inside the
    capsule, so no interval ending there can be a crossing and those samples
    are skipped.  The rest are scanned in windows of _FIRST_WINDOW intervals
    that double each round up to _SCAN_CHUNK.  The certificate only decides
    what to skip, never a returned value: the results are bit-identical to
    evaluating Z on every grid sample.

    Args:
        sides: int array, +1 for side B, -1 for side T.
        times, velocities: impact times and signed pre-impact velocities.

    Returns:
        (new_sides, new_times, new_velocities, status) with status
        STATUS_OK, STATUS_NO_IMPACT (none within the horizon) or
        STATUS_GRAZING (a crossing with |Zdot| < GRAZING_TOL).
    """
    sides = np.asarray(sides, dtype=np.int8)
    t0 = np.asarray(times, dtype=float)
    vin = np.asarray(velocities, dtype=float)
    n = t0.shape[0]
    half = 0.5 * p.length
    gbar = p.gravity_term
    psi = p.general_phase

    z0 = np.where(sides > 0, half, -half)
    vplus = apply_impact_law(vin, p.restitution)
    arg0 = PI * t0 + psi
    f1_0 = amplitude * np.sin(arg0) / PI
    f2_0 = -amplitude * np.cos(arg0) / PI**2
    # Z(t0 + tau) = c0 + c1*tau + (gbar/2)*tau^2 - A*cos(pi*(t0+tau)+psi)/pi^2
    c0 = z0 - f2_0
    c1 = vplus - f1_0

    def z_of(c0r, c1r, arg0r, tau):
        return (c0r + c1r * tau + 0.5 * gbar * tau**2
                - amplitude * np.cos(arg0r + PI * tau) / PI**2)

    def z_at(rows, tau):
        return z_of(c0[rows], c1[rows], arg0[rows], tau)

    def zdot_at(rows, tau):
        return (vplus[rows] + gbar * tau
                + amplitude * np.sin(arg0[rows] + PI * tau) / PI - f1_0[rows])

    grid = _scan_grid()
    last = grid.size - 1
    lim = half - SKIP_MARGIN
    accel_b = gbar + abs(amplitude)   # bounds on Zdd towards +d/2 and towards -d/2
    accel_t = abs(amplitude) - gbar

    def skip_rows(rows, first):
        """Advance each row's first uncleared interval by certified steps."""
        for _ in range(_SKIP_STEPS):
            i = np.minimum(first + 1, last)
            tau = grid[i]
            z = z_at(rows, tau)
            zd = zdot_at(rows, tau)
            inside = (lim - z > 0) & (lim + z > 0) & np.isfinite(zd)
            s = np.minimum(_safe_time(lim - z, zd, accel_b),
                           _safe_time(lim + z, -zd, accel_t))
            reach = np.searchsorted(grid, tau + s) - 1
            first = np.where(inside, np.maximum(i, reach), first)
        return first

    def skip_row(r, first):
        """skip_rows for one row in scalar arithmetic (cheaper for small batches)."""
        c0r, c1r, arg0r = float(c0[r]), float(c1[r]), float(arg0[r])
        vr, f1r = float(vplus[r]), float(f1_0[r])
        for _ in range(_SKIP_STEPS):
            i = min(first + 1, last)
            tau = float(grid[i])
            arg = arg0r + PI * tau
            z = c0r + c1r * tau + 0.5 * gbar * tau * tau - amplitude * math.cos(arg) / PI**2
            zd = vr + gbar * tau + amplitude * math.sin(arg) / PI - f1r
            if not (lim - z > 0 and lim + z > 0 and math.isfinite(zd)):
                break
            s = min(_safe_time_scalar(lim - z, zd, accel_b),
                    _safe_time_scalar(lim + z, -zd, accel_t))
            first = max(i, int(np.searchsorted(grid, tau + s)) - 1)
        return first

    first = np.zeros(n, dtype=np.intp)    # first grid interval not yet cleared
    hit_at = np.full(n, -1, dtype=np.intp)
    hit_b = np.zeros(n, dtype=bool)
    active = np.arange(n)
    window = _FIRST_WINDOW
    while active.size:
        if active.size <= _SCALAR_ROWS:
            first[active] = [skip_row(r, first[r]) for r in active]
        else:
            first[active] = skip_rows(active, first[active])
        cols = np.minimum(first[active, None] + np.arange(window + 1), last)
        z = z_at(active[:, None], grid[cols])
        up_b = (z[:, :-1] < half) & (z[:, 1:] >= half)
        down_t = (z[:, :-1] > -half) & (z[:, 1:] <= -half)
        hit = up_b | down_t
        rows = hit.any(axis=1)
        if rows.any():
            ridx = np.flatnonzero(rows)
            k = hit[ridx].argmax(axis=1)
            hit_at[active[ridx]] = cols[ridx, k]
            hit_b[active[ridx]] = up_b[ridx, k]
        first[active] += window
        active = active[~rows & (first[active] < last)]
        window = min(2 * window, _SCAN_CHUNK)

    out_side = np.zeros(n, dtype=np.int8)
    out_t = np.full(n, np.nan)
    out_v = np.full(n, np.nan)
    status = np.full(n, STATUS_NO_IMPACT, dtype=np.int8)
    ev_rows = np.flatnonzero(hit_at >= 0)
    if ev_rows.size:
        is_b = hit_b[ev_rows]
        lo = grid[hit_at[ev_rows]]
        hi = grid[hit_at[ev_rows] + 1]
        # the scan's wall test: a sample is past the wall when wall * Z >= d/2;
        # lo stays before the wall and hi at or past it
        wall = np.where(is_b, 1.0, -1.0)
        c0r, c1r, arg0r = c0[ev_rows], c1[ev_rows], arg0[ev_rows]
        for _ in range(45):  # 1e-3 / 2^45 << TIME_TOL
            mid = 0.5 * (lo + hi)
            past = wall * z_of(c0r, c1r, arg0r, mid) >= half
            hi = np.where(past, mid, hi)
            lo = np.where(past, lo, mid)
        t_star = 0.5 * (lo + hi)
        zdot = zdot_at(ev_rows, t_star)
        out_side[ev_rows] = np.where(is_b, 1, -1)
        out_t[ev_rows] = t0[ev_rows] + t_star
        out_v[ev_rows] = zdot
        graze = np.abs(zdot) < GRAZING_TOL
        status[ev_rows] = np.where(graze, STATUS_GRAZING, STATUS_OK)

    return out_side, out_t, out_v, status


def next_impact(event: ImpactEvent, p: NondimParams, *,
                amplitude: float = 1.0) -> ImpactEvent:
    """Earliest impact after `event`: side, time, signed pre-impact velocity, phase.

    Raises:
        NoImpactWithinHorizon: no wall crossing in (t_j, t_j + HORIZON].
        GrazingImpact: the first crossing has |Zdot| < GRAZING_TOL.
    """
    side_code = np.array([1 if event.side == SIDE_B else -1])
    s, t, v, st = next_impact_batch(side_code, [event.time], [event.velocity_in], p,
                                    amplitude=amplitude)
    if st[0] == STATUS_NO_IMPACT:
        raise NoImpactWithinHorizon(
            f"no impact within {HORIZON} time units after t={event.time}")
    if st[0] == STATUS_GRAZING:
        raise GrazingImpact(
            f"grazing crossing (|Zdot|={abs(v[0]):.2e}) at t={t[0]}")
    return ImpactEvent(side=SIDE_B if s[0] > 0 else SIDE_T, time=float(t[0]),
                       velocity_in=float(v[0]),
                       phase=float(impact_phase(t[0], p.general_phase)))
