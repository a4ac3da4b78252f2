"""End-to-end experiment drivers: continuation bifurcation scans, exact-vs-
composite trajectory comparison, and the three case presets."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from . import auxmap
# load_table is not called here, but bench/tracing.py patches it on this module
from .composite import (TAIL_FRACTION, AttractorClass, CoeffTable, CoeffTableError,
                        CompositeMap, ExtrapolationWarning, detect_attractor, load_table)
from .config import ConfigError
from .core import NondimParams, baseline_params
from .returnmap import ReturnClass, _sweep_points

SCAN_STEPS = 400
SCAN_DISCARD = 300
DEFAULT_SEED_STATE = (0.43, 0.26)
CASE_START = (0.2, 0.1)    # start state of every case preset's trajectory
# The most steps a d range may take (a bifurcation scan's or the R1 filter's);
# a finer step is refused before its d list is built
MAX_D_STEPS = 100_000


@dataclass(frozen=True)
class BifurcationSample:
    """Attractor tail at one d: distinct limiting (v, phi) values and class."""

    d: float
    tail_v: np.ndarray
    tail_phi: np.ndarray
    classification: AttractorClass | None   # None marks a gap


def _iterate_exact(v0: float, phi0: float, p: NondimParams, n_steps: int):
    v = np.empty(n_steps + 1)
    phi = np.empty(n_steps + 1)
    v[0], phi[0] = v0, phi0
    for k in range(n_steps):
        step = _sweep_points(v[k:k + 1], phi[k:k + 1], p)
        if step.klass[0] == ReturnClass.OTHER:
            return v[:k + 1], phi[:k + 1], False
        v[k + 1], phi[k + 1] = step.v_out[0], step.phi_out[0]
    return v, phi, True


def d_values(d_from: float, d_to: float, step: float) -> list[float]:
    """The d values from d_from towards d_to, either way, in steps of step; the
    last never passes d_to, as the rounding tolerance is a share of one step.
    Refuses a step <= 0 and more than MAX_D_STEPS steps."""
    if not step > 0:
        raise ConfigError(f"step must be positive, got {step}")
    span = abs(d_to - d_from)
    if not span / step <= MAX_D_STEPS:
        raise ValueError(f"a d range of {span} in steps of {step} takes more than "
                         f"{MAX_D_STEPS} steps")
    direction = 1.0 if d_to >= d_from else -1.0
    return [d_from + direction * i * step for i in range(int(span / step + 1e-9) + 1)]


def bifurcation_scan(kind: str, d_from: float, d_to: float, step: float,
                     table: CoeffTable | None = None) -> list[BifurcationSample]:
    """Continuation scan of the exact or composite map over d_values(d_from,
    d_to, step); the exact map runs at baseline_params(d), the composite on table.

    The attracting state at each d seeds the next one; a tail that
    detect_attractor cannot judge (an OTHER return, a diverged orbit) is
    recorded as a gap and the seed falls back to the default.
    """
    if kind not in ("exact", "composite"):
        raise ValueError(f"kind must be 'exact' or 'composite', got {kind!r}")
    ds = d_values(d_from, d_to, step)
    lowest = min(ds[0], ds[-1])    # ds is monotone; d <= 0 is refused before any run
    if kind == "exact":
        baseline_params(lowest)
    elif table is None:
        raise ValueError("a composite scan needs a coefficient table")
    elif not lowest > 0:    # as coeffs_for would, before any warning
        raise CoeffTableError(f"d must be positive, got {lowest}")
    elif outside := sum(not table.covers(d) for d in ds):
        lo, hi = table.d_range
        warnings.warn(f"{outside} of {len(ds)} d values outside the calibrated range "
                      f"[{lo}, {hi}]; extrapolating the coefficient polynomials",
                      ExtrapolationWarning, stacklevel=2)
    samples: list[BifurcationSample] = []
    state = DEFAULT_SEED_STATE
    with warnings.catch_warnings():  # counted once above, not once per map
        warnings.simplefilter("ignore", ExtrapolationWarning)
        for d in ds:
            if kind == "exact":
                v, phi, ok = _iterate_exact(*state, baseline_params(d), SCAN_STEPS)
            else:
                v, phi, _ = CompositeMap(table=table, d=d).iterate(*state, SCAN_STEPS)
                ok = True
            cls = detect_attractor(v, phi) if ok else None
            if cls is None:
                samples.append(BifurcationSample(d=d, tail_v=np.empty(0),
                                                 tail_phi=np.empty(0), classification=None))
                state = DEFAULT_SEED_STATE
                continue
            samples.append(BifurcationSample(d=d, tail_v=v[SCAN_DISCARD:],
                                             tail_phi=phi[SCAN_DISCARD:], classification=cls))
            state = (float(v[-1]), float(phi[-1]))
    return samples


def first_period_doubling(samples: list[BifurcationSample]) -> float | None:
    """Largest d (in scan order) where the classification first becomes PD(2).

    Meaningful on decreasing-d scans starting on the FP branch.
    """
    seen_fp = False
    for s in samples:
        if s.classification is None:
            continue
        if s.classification.kind == "FP":
            seen_fp = True
        elif seen_fp and s.classification.kind == "PD" and s.classification.period == 2:
            return s.d
    return None


def hausdorff_distance(a: np.ndarray, b: np.ndarray) -> float:
    """Symmetric Hausdorff distance between two point sets (rows = points)."""
    if not len(a) or not len(b):
        return float("nan")
    d2 = np.sum((a[:, None, :] - b[None, :, :]) ** 2, axis=2)
    return float(np.sqrt(max(d2.min(axis=1).max(), d2.min(axis=0).max())))


@dataclass(frozen=True)
class ComparisonRecord:
    """Paired exact/composite trajectories from one initial condition."""

    d: float
    v0: float
    phi0: float
    exact_v: np.ndarray
    exact_phi: np.ndarray
    composite_v: np.ndarray
    composite_phi: np.ndarray
    composite_regions: np.ndarray
    tail_distance: float


def compare_exact_vs_composite(initial_conditions, p: NondimParams, table: CoeffTable, *,
                               n_steps: int = SCAN_STEPS) -> list[ComparisonRecord]:
    """Run both maps at p (the composite map at d = p.length) from shared
    initial conditions and measure the Hausdorff distance between their
    trajectory tails; NaN when the exact trajectory stops on an OTHER return
    before n_steps returns."""
    cmap = CompositeMap(table=table, d=p.length)
    records = []
    n_tail = max(int(n_steps * TAIL_FRACTION), 2)
    for (v0, phi0) in initial_conditions:
        ev, ep, full = _iterate_exact(v0, phi0, p, n_steps)
        cv, cp, regions = cmap.iterate(v0, phi0, n_steps)
        tail_a = np.column_stack([ev[-n_tail:], ep[-n_tail:]])
        tail_b = np.column_stack([cv[-n_tail:], cp[-n_tail:]])
        records.append(ComparisonRecord(
            d=p.length, v0=v0, phi0=phi0, exact_v=ev, exact_phi=ep,
            composite_v=cv, composite_phi=cp, composite_regions=regions,
            tail_distance=hausdorff_distance(tail_a, tail_b) if full else float("nan")))
    return records


@dataclass
class CaseResult:
    """Bundled artifacts of one case run; the case name and d are the report's."""

    trajectory_v: np.ndarray
    trajectory_phi: np.ndarray
    trajectory_regions: np.ndarray
    classification: AttractorClass | None   # None for a diverged trajectory
    aux_report: auxmap.UpdateReport


def run_case_preset(case: str, table: CoeffTable) -> CaseResult:
    """Composite trajectory plus the full auxiliary-domain update report for
    one of the named cases (FP, PD, CD); the update report refuses any other."""
    report = auxmap.iterate_updates(case, table=table)
    v, phi, regions = CompositeMap(table=table, d=report.d).iterate(*CASE_START, SCAN_STEPS)
    cls = detect_attractor(v, phi)
    return CaseResult(trajectory_v=v, trajectory_phi=phi, trajectory_regions=regions,
                      classification=cls, aux_report=report)
