#!/usr/bin/env python3
"""Time the exact map's event leg and first return and the composite-map
layers of this checkout against the ones of a git ref.

Loads both checkouts' ``src/vipair`` package into this one process with
refs.py's ``load_package`` and times twelve layers, all but ``iterate``
at d = 0.35.  Three time the exact map's ``next_impact_batch`` on
solver_agreement.py's seeded legs, per leg:

* ``leg-1``: 2,000 legs, one per call;
* ``leg-6144``: 36,864 legs in calls of 6,144, ``vipair calibrate``'s largest
  batch;
* ``leg-40k``: 40,000 legs in one call.

One times a whole exact return, per call:

* ``exact-step``: ``ExactMap(baseline_params(0.35)).step(0.8, 0.3)``, 200
  calls (a one-row ``returnmap._sweep_points`` call on that state where the
  checkout has no ``ExactMap``).

Eight time the composite map on the shipped calibrated table, per call:

* ``poly-0d``: a 0-d call of the region-1 velocity map ``Poly2D``;
* ``poly-list``: that map on a list of 10 candidate points (``Poly2D.at_points``
  where the checkout has it, else one array call, as ``_rect_range`` made it);
* ``step``: ``CompositeMap.step`` on a region-1 state;
* ``step-r3``: ``CompositeMap.step`` on (0.3, 0.5), a region-3 state, which
  every dispatch rule is tried on;
* ``bound-curves``: ``build_bound_curves`` on the FP case's box;
* ``wcs``: ``iterate_wcs`` on the bound curves of the FP case's box;
* ``envelope``: ``second_iterate_phase`` on the bound curves of the FP case's
  final box, the phase envelopes at 201 scan nodes and along the bisection;
* ``iterate``: ``CompositeMap.iterate``, 400 steps from the case presets'
  start state at the d of each of FP, PD and CD.

Each layer runs REPS pairs of passes in alternating order, each pass after one
warm-up call.  Prints each checkout's median time per leg or call and the
median paired ratio (working tree / REF; below 1 is faster).  The working
tree's side includes uncommitted edits.  A run takes under a minute.

Run from the repository root:  python scripts/map_timing.py REF
"""

import argparse
import statistics
from pathlib import Path
from time import perf_counter

import numpy as np

from refs import ROOT, load_package, ref_checkout
from solver_agreement import legs

D = 0.35
REPS = 15
BATCHES = {"leg-1": 1, "leg-6144": 6144, "leg-40k": 40000}   # rows per solver call
# legs per pass in the leg layers, calls per pass in the others
CALLS = {"leg-1": 2000, "leg-6144": 36864, "leg-40k": 40000, "exact-step": 200,
         "poly-0d": 4000, "poly-list": 2000, "step": 4000, "step-r3": 4000,
         "bound-curves": 100, "wcs": 20, "envelope": 5, "iterate": 10}


def leg_calls(core, batch: int, n: int) -> list:
    """The next_impact_batch calls of that solver module that solve n seeded
    legs at d = 0.35, batch rows per call."""
    leg_set = legs(0, n)
    p = core.baseline_params(leg_set["d"])
    s, t, v = leg_set["sides"], leg_set["times"], leg_set["vels"]
    return [lambda i=i: core.next_impact_batch(s[i:i + batch], t[i:i + batch], v[i:i + batch], p)
            for i in range(0, n, batch)]


def layers(package) -> dict:
    """{layer: a call with no arguments} of that loaded package, for each
    layer but the leg layers the module docstring lists."""
    composite, auxmap, analysis = package.composite, package.auxmap, package.analysis
    p = package.core.baseline_params(D)
    if hasattr(analysis, "ExactMap"):
        exact_step = lambda: analysis.ExactMap(p).step(0.8, 0.3)
    else:
        exact_step = lambda: package.returnmap._sweep_points(np.array([0.8]), np.array([0.3]), p)
    table = composite.load_table(str(Path(package.__file__).parent / "data"
                                     / "calibrated_coefficients.json"))
    f1 = table.coeffs_for(composite.Region.R1, D)["v"]
    vs = np.linspace(0.70, 1.0, 10).tolist()
    ps = np.linspace(0.20, np.pi / 3, 10).tolist()
    if hasattr(f1, "at_points"):
        points = lambda: np.array(f1.at_points(vs, ps))
    else:
        points = lambda: f1(np.array(vs), np.array(ps))
    cmap = composite.CompositeMap(table=table, d=D)
    box = auxmap.r1_plus("FP")
    curves = auxmap.build_bound_curves(box, D, table)
    final = auxmap.iterate_updates("FP", D, table=table).boxes[-1]
    final_curves = auxmap.build_bound_curves(final, D, table)
    window = (final.phi_min - 0.05, final.phi_max + 0.05)
    case_maps = [composite.CompositeMap(table=table, d=d) for d, _, _ in auxmap.CASES.values()]
    return {"exact-step": exact_step, "poly-0d": lambda: f1(0.8, 0.3), "poly-list": points,
            "step": lambda: cmap.step(0.8, 0.3), "step-r3": lambda: cmap.step(0.3, 0.5),
            "bound-curves": lambda: auxmap.build_bound_curves(box, D, table),
            "wcs": lambda: auxmap.iterate_wcs(curves),
            "envelope": lambda: auxmap.second_iterate_phase(final_curves, window),
            "iterate": lambda: [m.iterate(*analysis.CASE_START, analysis.SCAN_STEPS)
                                for m in case_maps]}


def passes(package, calls=CALLS) -> dict:
    """{layer: the calls of one timed pass} of that loaded package: n legs
    in calls of BATCHES rows for a leg layer, n calls of the others."""
    single = layers(package)
    return {layer: leg_calls(package.core, BATCHES[layer], n) if layer in BATCHES
            else [single[layer]] * n for layer, n in calls.items()}


def seconds_per_unit(calls: list, n: int) -> float:
    """One timed pass over the calls, after one warm-up call of the first;
    per leg or call, n of them per pass."""
    calls[0]()
    start = perf_counter()
    for call in calls:
        call()
    return (perf_counter() - start) / n


def timing(old_package, new_package, calls=CALLS, reps: int = REPS) -> list[tuple]:
    """(layer, old median s/unit, new median s/unit, median paired ratio) per
    layer of the two loaded packages; the pairs alternate which runs first."""
    old_passes, new_passes, rows = passes(old_package, calls), passes(new_package, calls), []
    for layer, n in calls.items():
        old, new = [], []
        for rep in range(reps):
            order = ((old, old_passes[layer]), (new, new_passes[layer]))
            for times, pass_calls in order[::-1] if rep % 2 else order:
                times.append(seconds_per_unit(pass_calls, n))
        ratio = statistics.median(b / a for a, b in zip(old, new))
        rows.append((layer, statistics.median(old), statistics.median(new), ratio))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description="time the exact and composite map layers "
                                                 "against REF")
    parser.add_argument("ref", help="git ref to compare with, e.g. HEAD~1")
    ref = parser.parse_args().ref
    with ref_checkout(ref) as checkout:
        rows = timing(load_package(checkout, ref), load_package(ROOT, "working tree"))
    for layer, old, new, ratio in rows:
        unit = "leg" if layer in BATCHES else "call"
        print(f"{layer}: {ref} {old * 1e6:.4g} us/{unit}, working tree {new * 1e6:.4g} "
              f"us/{unit}, paired ratio {ratio:.3f} ({REPS} pairs)")


if __name__ == "__main__":
    main()
