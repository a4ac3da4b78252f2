#!/usr/bin/env python3
"""Write the verbatim published coefficient listings as a package data file.

The d-polynomials below are typed exactly as printed (4 to 11 significant
figures).  Evaluating several of them at a concrete d subtracts large nearly
equal terms, so this table is shipped for reference and comparison only; the
package's default table is regenerated by `vipair calibrate`.

Run from the repository root:  python scripts/transcribe_supplement.py
"""

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

import numpy as np

from vipair.composite import CoeffTable, Region
from vipair.fitting import poly2d_exponents

# ---- Region 1: 9-term 2D maps, every coefficient a quadratic in d (ascending).
R1_PHI = [  # a0..a8 of the phase map g1
    [10.21, 18.39, -1.499],
    [-51.59, 146.2, -196.5],
    [-28.93, -47.97, 81.56],
    [45.34, -189.4, 257.1],
    [104.5, -321.8, 380.3],
    [7.025, 125.2, -218.2],
    [-59.56, 268.6, -361.0],
    [-35.86, 91.69, -84.22],
    [14.11, -111.7, 167.4],
]
R1_V = [  # b0..b8 of the velocity map f1
    [-27.04, 210.0, -381.7],
    [59.89, -438.9, 777.6],
    [76.38, -567.3, 1036.0],
    [-38.23, 278.1, -487.7],
    [-121.0, 860.1, -1504.0],
    [-75.31, 535.5, -961.4],
    [48.48, -345.7, 599.4],
    [60.34, -413.1, 706.9],
    [26.68, -180.0, 313.2],
]

# ---- Region 2: separable quintics; printed coefficients lead with the
# highest power (a20 multiplies phi^5, b20 multiplies v^5).
R2_PHI = [
    [910.99, -14757.75, 95280.8, -306600.36, 491841.99, -314721.3],
    [-9465.61, 153191.85, -988128.92, 3176650.07, -5091024.58, 3254508.65],
    [37187.01, -601181.49, 3873678.24, -12439815.01, 19914833.37, -12716817.41],
    [-67901.79, 1096273.23, -7054633.67, 22625380.93, -36172597.397, 23067186.96],
    [54409.05, -877183.51, 5636927.09, -18053223.19, 28821687.94, -18352978.56],
    [-12259.01, 197165.56, -1263982.02, 4038349.16, -6431417.18, 4085295.603],
]
R2_V = [
    [-65176.0, 895903.8, -4551825.9, 10162592.6, -8423791.87],
    [302441.7, -4152787.8, 21089709.9, -47089789.2, 39053115.4],
    [-558347.5, 7662387.6, -38914922.6, 86937329.1, -72167960.4],
    [513345.19, -7043852.7, 35789133.6, -80025768.3, 66515161.4],
    [-235247.1, 3228420.6, -16414881.8, 36746130.9, -30587995.6],
    [42967.7, -589859.9, 3001779.6, -6728373.2, 5609812.9],
]

# ---- Region 3: d-independent constants in the printed term order.
R3_PHI = [-4.708e-5, 0.99, 3.456, 0.0483, -11.35, -13.29, -0.06063, 39.33,
          111.7, 70.26, 0.02214, -45.86, -235.6, -323.4, -148.0, 18.32,
          143.0, 331.9, 308.4, 114.2]
R3_V = [3.311e-5, 0.0002375, 0.4358, -0.0001751, 0.268, 1.895, 8.499e-6,
        -0.3043, -10.54, -12.81, 0.09745, 16.8, 44.31, 29.58, -8.853,
        -38.48, -51.93, -24.49]

# ---- Region 4: separable quartic (phase) and degree-8 (velocity) maps.
R4_PHI = [
    [63961.0, -1067289.0, 7099885.0, -23532532.0, 38856593.0, -25564661.0],
    [-467815.0, 7808829.0, -51964934.0, 172304032.0, -284624988.0, 187346514.0],
    [1267853.0, -21168395.0, 140905675.0, -467346559.0, 772240827.0, -508479594.0],
    [-1507297.0, 25170155.0, -167571538.0, 555892718.0, -918738962.0, 605074088.0],
    [665192.0, -11108535.0, 73959909.0, -245366553.0, 405554166.0, -267117434.0],
]
R4_V = [
    [-251148526.0, 3431234055.0, -17535685854.0, 39732483684.0, -33678323446.0],
    [624188381.0, -8527653549.0, 43580936553.0, -98744923307.0, 83698133214.0],
    [-652957616.0, 8920591453.0, -45588589509.0, 103292995807.0, -87552753895.0],
    [373701618.0, -5105403132.0, 26090961385.0, -59115843570.0, 50107657144.0],
    [-127289906.0, 1738997288.0, -8887112566.0, 20136255271.0, -17068153916.0],
    [26267846.0, -358869361.0, 1834037891.0, -4155665872.0, 3522641275.0],
    [-3187931.0, 43555467.0, -222608632.0, 504439390.0, -427643189.0],
    [206958.0, -2827938.0, 14455481.0, -32762498.0, 27780980.0],
    [-5489.0, 75032.0, -383650.0, 869871.0, -737999.0],
]

# ---- Region 5: cubic phase map and |quartic| velocity map.
R5_PHI = [
    [-19.476, 138.871, -75.3328, -1231.18, 2064.98],
    [166.629, -1133.696, 119.244, 12355.348, -19752.202],
    [-485.139, 3177.32, 662.836, -39362.33, 61428.79],
    [482.49, -3068.1, -1078.83, 40245.2, -62366.62],
]
R5_V = [
    [-34659098.0, 433686951.0, -2036587076.0, 4251589868.0, -3327935009.0],
    [5193379.0, -64578564.0, 301980243.0, -628668996.0, 49128168.0],
    [-259329.0, 3211068.0, -15007193.0, 31293322.0, -24532591.0],
    [4496.38, -55690.3, 262235.0, -552384.0, 438110.0],
    [-0.0499, 0.6646, -3.2965, 7.2206, -5.8882],
]


def descending_1d_terms(rows, variable, degree):
    """Printed leading-power-first rows -> (exponent pair, d-poly) terms."""
    terms = []
    for k, row in enumerate(rows):
        power = degree - k
        exp = (0, power) if variable == "v" else (power, 0)
        terms.append((exp, np.asarray(row, dtype=float)))
    return terms


def table_text() -> str:
    """The JSON text of the supplement table, as main writes it."""
    exps1 = poly2d_exponents(2, 3)
    exps3_v = poly2d_exponents(3, 5)
    exps3_p = poly2d_exponents(4, 5)
    entries = {
        Region.R1: {
            "v": [(e, np.asarray(c, float)) for e, c in zip(exps1, R1_V)],
            "phi": [(e, np.asarray(c, float)) for e, c in zip(exps1, R1_PHI)],
        },
        Region.R2: {
            "v": descending_1d_terms(R2_V, "v", 5),
            "phi": descending_1d_terms(R2_PHI, "phi", 5),
        },
        Region.R3: {
            "v": [(e, np.array([c])) for e, c in zip(exps3_v, R3_V)],
            "phi": [(e, np.array([c])) for e, c in zip(exps3_p, R3_PHI)],
        },
        Region.R4: {
            "v": descending_1d_terms(R4_V, "v", 8),
            "phi": descending_1d_terms(R4_PHI, "phi", 4),
        },
        Region.R5: {
            "v": descending_1d_terms(R5_V, "v", 4),
            "phi": descending_1d_terms(R5_PHI, "phi", 3),
        },
    }
    table = CoeffTable(
        name="supplement",
        d_range=(0.26, 0.35),
        entries=entries,
        metadata={"source": "verbatim transcription of the published listings",
                  "note": ("reference only: the printed rounding loses digits "
                           "to cancellation when evaluated at a concrete d")},
    )
    return json.dumps(table.to_dict(), indent=1)


def main():
    out = Path(__file__).resolve().parents[1] / "src" / "vipair" / "data"
    out.mkdir(parents=True, exist_ok=True)
    path = out / "supplement_coefficients.json"
    path.write_text(table_text())
    print(f"wrote {path}")


if __name__ == "__main__":
    main()
