#!/usr/bin/env python3
"""Compare the exact event solver of this checkout with the one of a git ref.

Unpacks REF with digest_diff.py's ``ref_checkout`` and runs each checkout's
``vipair.core.next_impact_batch`` (each in its own process, on its own
``src/``) on the same LEGS seeded legs per d: at d = 0.35, 0.30 and 0.26 on
the baseline parameters, from either wall, with t0 uniform in [0, 2] and |v|
uniform in [1e-3, 1.6].  A leg disagrees when the two solvers return a
different side or status, and it is bit-different when the bytes of its side,
time, velocity or status differ (a NaN equals a NaN).  Prints, per d, the
number of legs, disagreements and bit-different legs, and the largest |dt|
and |dv| over the legs both solvers return as impacts; exits 1 on any
disagreement.  The working tree's side includes uncommitted edits.

Run from the repository root:  python scripts/solver_agreement.py REF
"""

import argparse
import os
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from digest_diff import ref_checkout

ROOT = Path(__file__).resolve().parents[1]
D_VALUES = (0.35, 0.30, 0.26)
LEGS = 20000      # per d
SEED = 2000
BATCH = 1000      # rows per solver call, the size calibration sweeps use

# Run in a child process with one checkout's src/ on the path: read the legs,
# solve them in batches and write (side, time, velocity, status).
_SOLVE = """
import sys
import numpy as np
from vipair.core import baseline_params, next_impact_batch
legs = np.load(sys.argv[1])
out = [np.concatenate(part) for part in zip(*(
    next_impact_batch(legs["sides"][i:i + {batch}], legs["times"][i:i + {batch}],
                      legs["vels"][i:i + {batch}], baseline_params(float(legs["d"])))
    for i in range(0, legs["sides"].size, {batch})))]
np.savez(sys.argv[2], side=out[0], time=out[1], vel=out[2], status=out[3])
""".format(batch=BATCH)


def legs(d_index: int, n: int) -> dict:
    """n seeded legs for the d at D_VALUES[d_index]."""
    rng = np.random.default_rng([SEED, d_index])
    sides = rng.choice(np.array([1, -1], dtype=np.int8), n)
    return {"d": D_VALUES[d_index], "sides": sides, "times": rng.uniform(0.0, 2.0, n),
            "vels": sides * rng.uniform(1e-3, 1.6, n)}


def solve(checkout: Path, leg_set: dict, tmp: Path) -> dict:
    """That checkout's solver results on the legs."""
    np.savez(tmp / "legs.npz", **leg_set)
    run = subprocess.run([sys.executable, "-c", _SOLVE, str(tmp / "legs.npz"),
                          str(tmp / "out.npz")],
                         env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise SystemExit(f"the solver in {checkout} exited with {run.returncode}")
    with np.load(tmp / "out.npz") as out:
        return dict(out)


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


def agreement(old_checkout: Path, new_checkout: Path, n: int) -> list[tuple]:
    """(d, legs, disagreements, max |dt|, bit-different legs, max |dv|) per d."""
    rows = []
    with tempfile.TemporaryDirectory(prefix="vipair-legs-") as tmp:
        for i, d in enumerate(D_VALUES):
            leg_set = legs(i, n)
            old = solve(old_checkout, leg_set, Path(tmp))
            new = solve(new_checkout, leg_set, Path(tmp))
            rows.append((d, n, *compare(old, new)))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description="compare the event solver with REF")
    parser.add_argument("ref", help="git ref to compare with, e.g. HEAD~1")
    ref = parser.parse_args().ref
    with ref_checkout(ref) as checkout:
        rows = agreement(checkout, ROOT, LEGS)
    for d, n, bad, dt, bits, dv in rows:
        print(f"d={d:.2f}: {n} legs, {bad} disagreements, max |dt| {dt:.3g}, "
              f"{bits} bit-different, max |dv| {dv:.3g}")
    sys.exit(1 if any(row[2] for row in rows) else 0)


if __name__ == "__main__":
    main()
