#!/usr/bin/env python3
"""Compare the exact event solver of this checkout with the one of a git ref.

Unpacks REF with refs.py's ``ref_checkout``, loads each checkout's
``src/vipair`` package into this one process with its ``load_package``, and
solves the same seeded legs with both ``core`` modules,
at d = 0.35, 0.30 and 0.26 on the baseline parameters, from either wall: LEGS
legs per d with t0 uniform in [0, 2], |v| uniform in [1e-3, 1.6] and A = 1,
and LEGS slow, late legs per d and A in AMPLITUDES, with t0 uniform in [0, 40]
and |v| log-uniform in [1e-10, 1e-3] (chattering and grazing).

A leg disagrees when the two solvers return a different side or status; it is
bit-different when the bytes of its side, time, velocity or status differ (a
NaN equals a NaN).  Prints, per d (and per A in the slow family), the legs,
disagreements and bit-different legs, and the largest |dt| and |dv| over the
legs both return as impacts; exits 1 on any disagreement.  The working tree's
side includes uncommitted edits.

Run from the repository root:  python scripts/solver_agreement.py REF
"""

import argparse
import sys

import numpy as np

from refs import ROOT, load_package, ref_checkout

D_VALUES = (0.35, 0.30, 0.26)
AMPLITUDES = (1.0, -0.7)   # forcing amplitudes of the slow family
LEGS = 20000      # per d, and per d and amplitude in the slow family
SEED = 2000
BATCH = 1000      # rows per solver call, the size calibration sweeps use


def legs(d_index: int, n: int) -> dict:
    """n seeded legs for the d at D_VALUES[d_index]."""
    rng = np.random.default_rng([SEED, d_index])
    sides = rng.choice(np.array([1, -1], dtype=np.int8), n)
    return {"d": D_VALUES[d_index], "amplitude": 1.0, "sides": sides,
            "times": rng.uniform(0.0, 2.0, n), "vels": sides * rng.uniform(1e-3, 1.6, n)}


def slow_legs(d_index: int, a_index: int, n: int) -> dict:
    """n seeded slow, late legs for D_VALUES[d_index] and AMPLITUDES[a_index]."""
    rng = np.random.default_rng([SEED + 1, d_index, a_index])
    sides = rng.choice(np.array([1, -1], dtype=np.int8), n)
    speed = np.exp(rng.uniform(np.log(1e-10), np.log(1e-3), n))
    return {"d": D_VALUES[d_index], "amplitude": AMPLITUDES[a_index], "sides": sides,
            "times": rng.uniform(0.0, 40.0, n), "vels": sides * speed}


def solve(core, leg_set: dict) -> dict:
    """That solver module's results on the legs, solved BATCH rows per call."""
    p = core.baseline_params(leg_set["d"])
    s, t, v = leg_set["sides"], leg_set["times"], leg_set["vels"]
    out = [np.concatenate(part) for part in zip(*(
        core.next_impact_batch(s[i:i + BATCH], t[i:i + BATCH], v[i:i + BATCH], p,
                               amplitude=leg_set["amplitude"])
        for i in range(0, s.size, BATCH)))]
    return dict(zip(("side", "time", "vel", "status"), out))


def _bits_differ(old, new) -> np.ndarray:
    """Per row: the bytes of the two float values differ, a NaN equal to a NaN."""
    return (old.view(np.int64) != new.view(np.int64)) & ~(np.isnan(old) & np.isnan(new))


def compare(old: dict, new: dict) -> tuple[int, float, int, float]:
    """(disagreements, max |dt|, bit-different legs, max |dv|); the maxima are
    over the rows both return as impacts."""
    differ = (old["side"] != new["side"]) | (old["status"] != new["status"])
    bits = differ | _bits_differ(old["time"], new["time"]) | _bits_differ(old["vel"], new["vel"])
    both = ~differ & (new["status"] != 1)
    dt = np.abs(old["time"][both] - new["time"][both])
    dv = np.abs(old["vel"][both] - new["vel"][both])
    return (int(np.count_nonzero(differ)), float(dt.max(initial=0.0)),
            int(np.count_nonzero(bits)), float(dv.max(initial=0.0)))


def _agree(old, new, leg_sets) -> list[tuple]:
    """(legs, disagreements, max |dt|, bit-different legs, max |dv|) per leg
    set, of the two loaded packages' solvers."""
    return [(leg_set["sides"].size, *compare(solve(old.core, leg_set), solve(new.core, leg_set)))
            for leg_set in leg_sets]


def agreement(old, new, n: int) -> list[tuple]:
    """(d, legs, disagreements, max |dt|, bit-different legs, max |dv|) per d."""
    rows = _agree(old, new, (legs(i, n) for i in range(len(D_VALUES))))
    return [(d, *row) for d, row in zip(D_VALUES, rows)]


def slow_agreement(old, new, n: int) -> list[tuple]:
    """(d, A, legs, disagreements, max |dt|, bit-different legs, max |dv|) of
    the slow family, per d and amplitude."""
    cases = [(i, j) for i in range(len(D_VALUES)) for j in range(len(AMPLITUDES))]
    rows = _agree(old, new, (slow_legs(i, j, n) for i, j in cases))
    return [(D_VALUES[i], AMPLITUDES[j], *row) for (i, j), row in zip(cases, rows)]


def main() -> None:
    parser = argparse.ArgumentParser(description="compare the event solver with REF")
    parser.add_argument("ref", help="git ref to compare with, e.g. HEAD~1")
    ref = parser.parse_args().ref
    with ref_checkout(ref) as checkout:
        old, new = load_package(checkout, ref), load_package(ROOT, "working tree")
        rows = [(f"d={d:.2f}", counts) for d, *counts in agreement(old, new, LEGS)]
        rows += [(f"slow d={d:.2f} A={a:g}", counts)
                 for d, a, *counts in slow_agreement(old, new, LEGS)]
    for label, (n, bad, dt, bits, dv) in rows:
        print(f"{label}: {n} legs, {bad} disagreements, max |dt| {dt:.3g}, "
              f"{bits} bit-different, max |dv| {dv:.3g}")
    sys.exit(1 if any(counts[1] for _, counts in rows) else 0)


if __name__ == "__main__":
    main()
