#!/usr/bin/env python3
"""Time one event leg of this checkout against the one of a git ref.

Loads both checkouts' ``src/vipair/core.py`` into this one process as
solver_agreement.py does, each as a module of its own (so a ref's ``core.py``
must load on its own), and times each ``next_impact_batch`` on that script's
seeded legs at d = 0.35: 2,000 legs one per call (batch 1), 36,864 in calls of
6,144 (``vipair calibrate``'s largest batch) and 40,000 in one call (batch
40k), REPS pairs per batch size in alternating order, each pass after one
warm-up call.  Prints each checkout's median time per leg and the median paired
ratio (working tree / REF; below 1 is faster).  The working tree's side
includes uncommitted edits.

Run from the repository root:  python scripts/leg_timing.py REF
"""

import argparse
import statistics
from pathlib import Path
from time import perf_counter

from digest_diff import ref_checkout
from solver_agreement import ROOT, check_loads, legs, load_core

BATCHES = ((1, 2000), (6144, 36864), (40000, 40000))   # (rows per call, legs per pass)
REPS = 7


def seconds_per_leg(core, leg_set: dict, batch: int) -> float:
    """One timed pass of that solver module over the legs, after one warm-up call."""
    p = core.baseline_params(leg_set["d"])
    s, t, v = leg_set["sides"], leg_set["times"], leg_set["vels"]
    core.next_impact_batch(s[:batch], t[:batch], v[:batch], p)
    start = perf_counter()
    for i in range(0, s.size, batch):
        core.next_impact_batch(s[i:i + batch], t[i:i + batch], v[i:i + batch], p)
    return (perf_counter() - start) / s.size


def timing(old_checkout: Path, new_checkout: Path, batches=BATCHES,
           reps: int = REPS) -> list[tuple]:
    """(batch, legs, old median s/leg, new median s/leg, median paired ratio)
    per batch size; the pairs alternate which checkout runs first."""
    old_core, new_core, rows = load_core(old_checkout), load_core(new_checkout), []
    for batch, n in batches:
        leg_set, old, new = legs(0, n), [], []
        for rep in range(reps):
            order = ((old, old_core), (new, new_core))
            for times, core in order[::-1] if rep % 2 else order:
                times.append(seconds_per_leg(core, leg_set, batch))
        ratio = statistics.median(b / a for a, b in zip(old, new))
        rows.append((batch, n, statistics.median(old), statistics.median(new), ratio))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description="time an event leg against REF")
    parser.add_argument("ref", help="git ref to compare with, e.g. HEAD~1")
    ref = parser.parse_args().ref
    with ref_checkout(ref) as checkout:
        check_loads(ref, checkout)
        rows = timing(checkout, ROOT)
    for batch, n, old, new, ratio in rows:
        print(f"batch {batch}: {n} legs, {ref} {old * 1e6:.3g} us/leg, working tree "
              f"{new * 1e6:.3g} us/leg, paired ratio {ratio:.3f} ({REPS} pairs)")


if __name__ == "__main__":
    main()
