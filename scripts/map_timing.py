#!/usr/bin/env python3
"""Time the composite-map layers of this checkout against the ones of a git ref.

Loads both checkouts' ``src/vipair`` package into this one process, each under
a name of its own, and times seven layers on the shipped calibrated table at
d = 0.35:

* ``poly-0d``: a 0-d call of the region-1 velocity map ``Poly2D``;
* ``poly-list``: that map on a list of 10 candidate points (``Poly2D.at_points``
  where the checkout has it, else one array call, as ``_rect_range`` made it);
* ``step``: ``CompositeMap.step`` on a region-1 state;
* ``step-r3``: ``CompositeMap.step`` on (0.3, 0.5), a region-3 state, which
  every dispatch rule is tried on;
* ``bound-curves``: ``build_bound_curves`` on the FP case's box;
* ``wcs``: ``iterate_wcs`` on the bound curves of the FP case's box;
* ``envelope``: ``second_iterate_phase`` on the bound curves of the FP case's
  final box, the phase envelopes at 201 scan nodes and along the bisection.

Each layer runs REPS pairs of passes in alternating order, each pass after one
warm-up call.  Prints each checkout's median time per call and the median
paired ratio (working tree / REF; below 1 is faster).  The working tree's side
includes uncommitted edits.

Run from the repository root:  python scripts/map_timing.py REF
"""

import argparse
import importlib
import importlib.util
import statistics
import sys
import uuid
from pathlib import Path
from time import perf_counter

import numpy as np

from digest_diff import ROOT, ref_checkout

D = 0.35
REPS = 15
CALLS = {"poly-0d": 4000, "poly-list": 2000, "step": 4000, "step-r3": 4000,
         "bound-curves": 100, "wcs": 20, "envelope": 5}


def load_package(checkout: Path):
    """checkout's src/vipair package, loaded afresh under a name of its own;
    (composite, auxmap) modules."""
    init = checkout / "src" / "vipair" / "__init__.py"
    name = f"vipair_{uuid.uuid4().hex}"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package   # its submodules and dataclasses look it up
    spec.loader.exec_module(package)
    return (importlib.import_module(f"{name}.composite"),
            importlib.import_module(f"{name}.auxmap"))


def layers(checkout: Path) -> dict:
    """{layer: a call with no arguments} of checkout, as the module docstring lists."""
    composite, auxmap = load_package(checkout)
    table = composite.load_table(str(checkout / "src" / "vipair" / "data"
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
    return {"poly-0d": lambda: f1(0.8, 0.3), "poly-list": points,
            "step": lambda: cmap.step(0.8, 0.3), "step-r3": lambda: cmap.step(0.3, 0.5),
            "bound-curves": lambda: auxmap.build_bound_curves(box, D, table),
            "wcs": lambda: auxmap.iterate_wcs(curves),
            "envelope": lambda: auxmap.second_iterate_phase(final_curves, window)}


def seconds_per_call(call, n: int) -> float:
    """One timed pass of n calls, after one warm-up call."""
    call()
    start = perf_counter()
    for _ in range(n):
        call()
    return (perf_counter() - start) / n


def timing(old_checkout: Path, new_checkout: Path, calls=CALLS,
           reps: int = REPS) -> list[tuple]:
    """(layer, old median s/call, new median s/call, median paired ratio) per
    layer; the pairs alternate which checkout runs first."""
    old_layers, new_layers, rows = layers(old_checkout), layers(new_checkout), []
    for layer, n in calls.items():
        old, new = [], []
        for rep in range(reps):
            order = ((old, old_layers[layer]), (new, new_layers[layer]))
            for times, call in order[::-1] if rep % 2 else order:
                times.append(seconds_per_call(call, n))
        ratio = statistics.median(b / a for a, b in zip(old, new))
        rows.append((layer, statistics.median(old), statistics.median(new), ratio))
    return rows


def main() -> None:
    parser = argparse.ArgumentParser(description="time the composite-map layers against REF")
    parser.add_argument("ref", help="git ref to compare with, e.g. HEAD~1")
    ref = parser.parse_args().ref
    with ref_checkout(ref) as checkout:
        rows = timing(checkout, ROOT)
    for layer, old, new, ratio in rows:
        print(f"{layer}: {ref} {old * 1e6:.4g} us/call, working tree {new * 1e6:.4g} us/call, "
              f"paired ratio {ratio:.3f} ({REPS} pairs)")


if __name__ == "__main__":
    main()
