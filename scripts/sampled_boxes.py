#!/usr/bin/env python3
"""Print the sampled-envelope boxes that tests/test_auxmap.py pins.

``test_update_sequence_matches_sampled_boxes`` checks the closed-form
envelopes of ``iterate_updates`` against the sampled ones (201 x 1001 grids)
they replaced, on the shipped calibrated table.  The sampled envelopes live
only in git history, so when the table changes, this script unpacks
SAMPLED_REF (the last commit with them) with digest_diff.py's
``ref_checkout``, runs its ``iterate_updates`` for FP, PD and CD on this
checkout's shipped table, and prints ``SAMPLED_BOXES`` and
``SAMPLED_FP_CYCLE`` to paste into the test.

Run from the repository root:  python scripts/sampled_boxes.py
"""

import os
import subprocess
import sys
from pathlib import Path

from digest_diff import ref_checkout

ROOT = Path(__file__).resolve().parents[1]
SAMPLED_REF = "edd4317"
TABLE = ROOT / "src" / "vipair" / "data" / "calibrated_coefficients.json"

# Run in a child process with the old checkout's src/ on the path.
_SAMPLE = """
import sys
import warnings
from vipair.auxmap import iterate_updates
from vipair.composite import load_table
warnings.simplefilter("ignore")
table = load_table(sys.argv[1])
print("SAMPLED_BOXES = {")
for case in ("FP", "PD", "CD"):
    rep = iterate_updates(case, table=table)
    print(f"    {case!r}: [")
    for box in rep.boxes:
        print(f"        {box.as_tuple()!r},")
    print("    ],")
    if case == "FP":
        c = rep.two_cycle
        cycle = tuple(map(float, (c.p_v, c.q_v, c.p_phi, c.q_phi, c.slope_v, c.slope_phi)))
print("}")
print(f"SAMPLED_FP_CYCLE = {cycle!r}")
"""


def main() -> None:
    with ref_checkout(SAMPLED_REF) as checkout:
        run = subprocess.run([sys.executable, "-c", _SAMPLE, str(TABLE)],
                             env={**os.environ, "PYTHONPATH": str(checkout / "src")},
                             capture_output=True, text=True)
    sys.stderr.write(run.stderr)
    sys.stdout.write(run.stdout)
    sys.exit(run.returncode)


if __name__ == "__main__":
    main()
