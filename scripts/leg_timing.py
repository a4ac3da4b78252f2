#!/usr/bin/env python3
"""Time one event leg of this checkout against the one of a git ref.

Unpacks REF with digest_diff.py's ``ref_checkout`` and times each checkout's
``vipair.core.next_impact_batch`` (each in its own process, on its own
``src/``) on the same seeded legs of solver_agreement.py at d = 0.35: 2,000
legs one per call (batch 1), 36,864 legs in calls of 6,144 (the largest
batch ``vipair calibrate`` runs) and 40,000 legs in one call (batch 40k).
The child processes alternate between the checkouts, REPS pairs per batch
size, and each pass is timed after one warm-up call.  Prints, per batch size,
each checkout's median time per leg and the median of the paired ratios
(working tree / REF; below 1 is faster).  The working tree's side includes
uncommitted edits.

Run from the repository root:  python scripts/leg_timing.py REF
"""

import argparse
import os
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

from digest_diff import ref_checkout
from solver_agreement import legs

ROOT = Path(__file__).resolve().parents[1]
BATCHES = ((1, 2000), (6144, 36864), (40000, 40000))   # (rows per call, legs per pass)
REPS = 7

# Run in a child process with one checkout's src/ on the path: time one pass
# over the legs in calls of the given batch size and print seconds per leg.
_TIME = """
import sys
from time import perf_counter
import numpy as np
from vipair.core import baseline_params, next_impact_batch
legs, batch = np.load(sys.argv[1]), int(sys.argv[2])
p = baseline_params(float(legs["d"]))
s, t, v = legs["sides"], legs["times"], legs["vels"]
next_impact_batch(s[:batch], t[:batch], v[:batch], p)
start = perf_counter()
for i in range(0, s.size, batch):
    next_impact_batch(s[i:i + batch], t[i:i + batch], v[i:i + batch], p)
print((perf_counter() - start) / s.size)
"""


def seconds_per_leg(checkout: Path, leg_file: Path, batch: int) -> float:
    """One timed pass of that checkout's solver over the legs in leg_file."""
    run = subprocess.run([sys.executable, "-c", _TIME, str(leg_file), str(batch)],
                         env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise SystemExit(f"the timing run in {checkout} exited with {run.returncode}")
    return float(run.stdout)


def timing(old_checkout: Path, new_checkout: Path, batches=BATCHES,
           reps: int = REPS) -> list[tuple]:
    """(batch, legs, old median s/leg, new median s/leg, median paired ratio)
    per batch size; the pairs alternate which checkout runs first."""
    rows = []
    with tempfile.TemporaryDirectory(prefix="vipair-timing-") as tmp:
        for batch, n in batches:
            leg_file = Path(tmp) / f"legs-{batch}.npz"
            np.savez(leg_file, **legs(0, n))
            old, new = [], []
            for rep in range(reps):
                order = ((old, old_checkout), (new, new_checkout))
                for times, checkout in order[::-1] if rep % 2 else order:
                    times.append(seconds_per_leg(checkout, leg_file, batch))
            ratio = statistics.median(b / a for a, b in zip(old, new))
            rows.append((batch, n, statistics.median(old), statistics.median(new), ratio))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description="time an event leg against REF")
    parser.add_argument("ref", help="git ref to compare with, e.g. HEAD~1")
    ref = parser.parse_args().ref
    with ref_checkout(ref) as checkout:
        rows = timing(checkout, ROOT)
    for batch, n, old, new, ratio in rows:
        print(f"batch {batch}: {n} legs, {ref} {old * 1e6:.3g} us/leg, working tree "
              f"{new * 1e6:.3g} us/leg, paired ratio {ratio:.3f} ({REPS} pairs)")


if __name__ == "__main__":
    main()
