"""Exact nondimensional dynamics of a harmonically forced vibro-impact pair.

A ball moves freely inside a forced capsule and impacts the capsule ends
instantaneously with restitution r.  In relative coordinates the state between
impacts follows

    Zdd = A*cos(pi*t + psi) + gbar,      -d/2 <= Z <= d/2,

with closed-form quadrature between impacts.  The bottom wall is at
Z = +d/2 (side "B", hit with Zdot > 0), the top wall at Z = -d/2
(side "T", hit with Zdot < 0).  Impact-to-impact propagation has no closed
form, so `next_impact_batch` locates wall crossings numerically, without a
grid: the zeros of Zdd have a closed form and split the flight into pieces on
which Zdot is monotone, so each piece holds at most one extremum of Z and each
wall crossing gets an exact bracket, which safeguarded Newton refines to
TIME_TOL.  The search runs from START_OFFSET to HORIZON after the impact, and
a crossing with |Zdot| below GRAZING_TOL is reported as grazing.  These are
module constants: the solver is the oracle for every comparison, so it runs
in one configuration.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

PI = math.pi

# Event-solver constants: the search starts START_OFFSET after an impact and
# ends HORIZON after it (20 forcing periods); crossing times are refined until
# a Newton step is at most TIME_TOL; a crossing slower than GRAZING_TOL is
# grazing.
START_OFFSET = 1e-9
HORIZON = 40.0
TIME_TOL = 1e-12
GRAZING_TOL = 1e-8

# next_impact_batch row statuses.
STATUS_OK = 0
STATUS_NO_IMPACT = 1
STATUS_GRAZING = 2


class DegenerateParamsError(ValueError):
    """Physical parameters that collapse the nondimensionalization."""


def _check_finite(params):
    if not all(type(x) is not bool and math.isfinite(x) for x in vars(params).values()):
        raise ValueError(f"parameters must be finite numbers, not booleans, got {params}")


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


def baseline_params(d: float) -> NondimParams:
    """Nondimensional parameters of the baseline setup at dimensionless length d."""
    return NondimParams(restitution=0.5, length=d, gravity_term=BASE_GRAVITY_TERM)


def nondimensionalize(p: PhysicalParams) -> NondimParams:
    """Map physical parameters to the nondimensional set.

    d = s*M*omega^2 / (||F||*pi^2),  gbar = M*g*sin(beta) / ||F||.
    """
    d = p.capsule_length * p.capsule_mass * p.forcing_frequency**2 / (p.forcing_norm * PI**2)
    gbar = p.capsule_mass * p.gravity * math.sin(p.incline) / p.forcing_norm
    return NondimParams(restitution=p.restitution, length=d, gravity_term=gbar)


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


def _flow(z0, vplus, t0, tau, p: NondimParams, amplitude: float):
    """Closed-form Z and Zdot at t0 + tau given post-impact state (z0, vplus).

    The reference the event solver is checked against; the package itself
    calls next_impact_batch only.
    """
    t = t0 + tau
    _, f1_t, f2_t = forcing_antiderivatives(t, p.general_phase, amplitude)
    _, f1_0, f2_0 = forcing_antiderivatives(t0, p.general_phase, amplitude)
    zdot = vplus + p.gravity_term * tau + f1_t - f1_0
    z = (z0 + vplus * tau + 0.5 * p.gravity_term * tau**2
         + f2_t - f2_0 - f1_0 * tau)
    return z, zdot


def _bracketed_newton(f, lo, hi, x, *cols):
    """Root of an increasing f with f(lo) < 0 <= f(hi), by safeguarded Newton.

    f(tau, *cols) returns (f, f') at tau; cols are per-row arrays that travel
    with the rows still iterating.  Each row starts at x and takes Newton
    steps; a step that leaves the open bracket becomes a bisection.  A row
    stops once its step is at most TIME_TOL or its bracket is no wider, on its
    own values only.
    """
    root = np.empty_like(x)
    live = np.arange(x.size)
    with np.errstate(divide="ignore", invalid="ignore"):
        while live.size:
            fx, dfx = f(x, *cols)
            before = fx < 0
            lo, hi = np.where(before, x, lo), np.where(before, hi, x)
            step = fx / dfx
            x = x - step
            converged = np.abs(step) <= TIME_TOL
            x = np.where(converged | ((x > lo) & (x < hi)), x, 0.5 * (lo + hi))
            stop = converged | (hi - lo <= TIME_TOL)
            root[live[stop]] = x[stop]
            more = np.flatnonzero(~stop)
            live, x, lo, hi = live[more], x[more], lo[more], hi[more]
            cols = [c[more] for c in cols]
    return root


def next_impact_batch(sides, times, velocities, p: NondimParams, *,
                      amplitude: float = 1.0):
    """Vectorized impact-to-impact step for a batch of events.

    Zdd = gbar + A*cos(pi*(t0 + tau) + psi) vanishes where the cosine equals
    -gbar/A, so these closed-form breakpoints split (START_OFFSET, HORIZON]
    into pieces on which Zdot is monotone (one piece when |A| <= gbar).  On
    each piece W = -Z (Zdd >= 0) or W = Z (Zdd <= 0) is concave, so W reaches
    its upper wall at most once, while rising, and its lower wall at most
    once, while falling.  The rows walk their pieces in lockstep until the
    first on which Z rises through +d/2 (side B) or falls through -d/2
    (side T), from strictly inside: a ball that is not strictly inside at
    START_OFFSET has not left its wall.  The values at the piece ends, in
    closed form at the breakpoints (no cosine), decide most pieces; a piece's
    interior maximum of W is solved for (Newton on Zdot) only where the
    tangent lines at both ends meet above the upper wall.
    Each crossing then has an exact bracket on which W is monotone, and
    _bracketed_newton, started at the end from which Newton approaches the
    crossing monotonically, refines it until a step is at most TIME_TOL.
    Every row stops on its own tests, so its result does not depend on the
    rest of the batch.

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

    arg0 = PI * t0 + p.general_phase
    # Z(t0 + tau) = c0 + c1*tau + (gbar/2)*tau^2 - A*cos(pi*(t0+tau)+psi)/pi^2;
    # the Horner form rounds about half as much near a wall
    c0 = np.where(sides > 0, half, -half) + amplitude * np.cos(arg0) / PI**2
    c1 = apply_impact_law(vin, p.restitution) - amplitude * np.sin(arg0) / PI

    # Each of these takes the per-row constants of the rows it evaluates: arg
    # is the forcing argument pi*(t0 + tau) + psi, a0 its value at tau = 0.
    def z_of(tau, arg, c0, c1):
        return c0 + tau * (c1 + 0.5 * gbar * tau) - amplitude * np.cos(arg) / PI**2

    def zdot_of(tau, arg, c1):
        return c1 + gbar * tau + amplitude * np.sin(arg) / PI

    def flow(tau, a0, c0, c1):
        """Z and Zdot at tau."""
        arg = a0 + PI * tau
        return z_of(tau, arg, c0, c1), zdot_of(tau, arg, c1)

    def falling(tau, a0, c1, s):   # -dW/dtau and its slope, W = -s*Z
        arg = a0 + PI * tau
        return s * zdot_of(tau, arg, c1), s * (gbar + amplitude * np.cos(arg))

    def past(tau, a0, c0, c1, wall):   # >= 0 at or past the wall, as in wall * Z >= d/2
        z, zdot = flow(tau, a0, c0, c1)
        return wall * z - half, wall * zdot

    # Zdd changes sign where cos(pi*(t0 + tau) + psi) = -gbar/A: at forcing
    # phases alpha and 2*pi - alpha (mod 2*pi) when |A| > gbar, never otherwise.
    # Breakpoint k of a row is the k-th of these from phase 0 of the row's
    # forcing period; Zdd >= 0 before an even one when A > 0.
    bends = abs(amplitude) > gbar
    alpha = math.acos(-gbar / amplitude) if bends else 0.0
    # |A*sin/pi| at every breakpoint, where A*cos = -gbar
    crest = abs(amplitude) * math.sqrt(1.0 - (gbar / amplitude) ** 2) / PI if bends else 0.0
    ph0 = np.mod(arg0, 2.0 * PI)

    def piece(ph, k):
        """End of each row's piece before breakpoint k, and the sign of Zdd on it."""
        if not bends:
            return HORIZON, np.ones(k.shape)
        even = k % 2 == 0
        phase = np.where(even, alpha, 2.0 * PI - alpha) + 2.0 * PI * (k // 2)
        return (phase - ph) / PI, np.where(even == (amplitude > 0), 1.0, -1.0)

    def piece_end(tb, end, s, a0, c0, c1):
        """Z and Zdot at each row's piece end tb.  Where tb is the breakpoint
        end itself, A*cos = -gbar and A*sin/pi = s*crest (A*sin > 0 where Zdd
        falls through zero, s = 1), so no cosine is taken; ends clamped to
        the piece start or to HORIZON, and a flight without breakpoints, take
        the flow."""
        if not bends:
            return flow(tb, a0, c0, c1)
        z = c0 + tb * (c1 + 0.5 * gbar * tb) + gbar / PI**2
        zdot = c1 + gbar * tb + s * crest
        j = np.flatnonzero(tb != end)
        if j.size:
            z[j], zdot[j] = flow(tb[j], a0[j], c0[j], c1[j])
        return z, zdot

    out_side = np.zeros(n, dtype=np.int8)
    lo, hi, start = np.zeros(n), np.zeros(n), np.zeros(n)
    rows = np.flatnonzero(np.isfinite(c0) & np.isfinite(c1) & np.isfinite(arg0))
    # the live rows' own columns travel with them: phase, argument, c0, c1
    cols = ph0, arg0, c0, c1
    ph, a0, cc0, cc1 = cols if rows.size == n else (c[rows] for c in cols)
    k = (ph >= alpha).astype(np.int64) + (ph >= 2.0 * PI - alpha)
    ta = np.full(rows.size, START_OFFSET)
    za, zda = flow(ta, a0, cc0, cc1)
    while rows.size:
        end, s = piece(ph, k)
        # a breakpoint that rounds to the piece start still ends a piece
        tb = np.minimum(np.maximum(end, np.nextafter(ta, np.inf)), HORIZON)
        zb, zdb = piece_end(tb, end, s, a0, cc0, cc1)
        # W = -s*Z is concave on the piece: it reaches +d/2 (the wall on side
        # -s) only while rising and -d/2 (side s) only while falling, each at
        # most once.  Its maximum is at an end, or inside (dwa > 0 > dwb) and
        # at most where the tangent lines at both ends meet.
        ns = -s
        wa, wb, dwa, dwb = ns * za, ns * zb, ns * zda, ns * zdb
        top, te = np.maximum(wa, wb), tb
        i = np.flatnonzero((dwa > 0) & (dwb < 0) & (wa < half) & (wb < half))
        if i.size:
            with np.errstate(over="ignore", invalid="ignore"):
                lift = (wb[i] - wa[i] - dwb[i] * (tb[i] - ta[i])) / (dwa[i] - dwb[i])
                solve = wa[i] + dwa[i] * lift >= half
            i, lift = i[solve], lift[solve]
        if i.size:
            si, ai, c0i, c1i, tai, tbi = s[i], a0[i], cc0[i], cc1[i], ta[i], tb[i]
            peak = _bracketed_newton(falling, tai, tbi, np.clip(tai + lift, tai, tbi),
                                     ai, c1i, si)
            te, top = tb.copy(), top.copy()
            te[i] = peak
            top[i] = np.maximum(top[i], -si * z_of(peak, ai + PI * peak, c0i, c1i))
        # a piece that starts at or past a wall holds no crossing of it
        near = (wa < half) & (top >= half)
        far = ~near & (wa > -half) & (wb <= -half)
        hit = near | far
        if hit.any():
            h = rows[hit]
            out_side[h] = np.where(near, ns, s)[hit]
            lo[h] = ta[hit]
            hi[h] = np.where(near & (wb < half), te, tb)[hit]
            # Newton approaches the crossing monotonically from this end
            start[h] = np.where(near[hit], lo[h], hi[h])
        keep = ~hit & (tb < HORIZON)
        ta, za, zda, k = tb, zb, zdb, k + 1
        if not keep.all():
            j = np.flatnonzero(keep)
            rows, k, ta, za, zda = rows[j], k[j], ta[j], za[j], zda[j]
            ph, a0, cc0, cc1 = ph[j], a0[j], cc0[j], cc1[j]

    out_t = np.full(n, np.nan)
    out_v = np.full(n, np.nan)
    status = np.full(n, STATUS_NO_IMPACT, dtype=np.int8)
    r = np.flatnonzero(out_side)
    if r.size:
        a0, cc0, cc1 = arg0[r], c0[r], c1[r]
        t_star = _bracketed_newton(past, lo[r], hi[r], start[r],
                                   a0, cc0, cc1, out_side[r].astype(float))
        zdot = zdot_of(t_star, a0 + PI * t_star, cc1)
        out_t[r] = t0[r] + t_star
        out_v[r] = zdot
        status[r] = np.where(np.abs(zdot) < GRAZING_TOL, STATUS_GRAZING, STATUS_OK)

    return out_side, out_t, out_v, status

