#!/usr/bin/env python3
"""Print the sampled-envelope boxes that tests/test_auxmap.py pins.

``test_update_sequence_matches_sampled_boxes`` checks the closed-form
envelopes of ``iterate_updates`` against the sampled ones (201 x 1001 grids)
they replaced, on the shipped calibrated table.  The sampled envelopes live
only in git history, so when the table changes, this script unpacks
SAMPLED_REF (the last commit with them) with refs.py's
``ref_checkout``, loads its package with ``load_package``, runs its
``iterate_updates`` for FP, PD and CD on this checkout's shipped table, and
prints ``SAMPLED_BOXES`` and ``SAMPLED_FP_CYCLE`` to paste into the test.

Run from the repository root:  python scripts/sampled_boxes.py
"""

import warnings

from refs import ROOT, load_package, ref_checkout

SAMPLED_REF = "edd4317"
TABLE = ROOT / "src" / "vipair" / "data" / "calibrated_coefficients.json"


def sampled(package) -> list[str]:
    """The SAMPLED_BOXES and SAMPLED_FP_CYCLE lines of that loaded package's
    iterate_updates on this checkout's shipped table."""
    lines = ["SAMPLED_BOXES = {"]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        table = package.composite.load_table(str(TABLE))
        for case in ("FP", "PD", "CD"):
            rep = package.auxmap.iterate_updates(case, table=table)
            lines += [f"    {case!r}: [", *(f"        {box.as_tuple()!r}," for box in rep.boxes),
                      "    ],"]
            if case == "FP":
                c = rep.two_cycle
                cycle = tuple(map(float, (c.p_v, c.q_v, c.p_phi, c.q_phi, c.slope_v,
                                          c.slope_phi)))
    return lines + ["}", f"SAMPLED_FP_CYCLE = {cycle!r}"]


def main() -> None:
    with ref_checkout(SAMPLED_REF) as checkout:
        print("\n".join(sampled(load_package(checkout, SAMPLED_REF))))


if __name__ == "__main__":
    main()
