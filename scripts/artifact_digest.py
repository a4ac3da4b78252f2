#!/usr/bin/env python3
"""Print a SHA-256 digest of every pinned output: the artifacts a fixed set
of CLI commands writes, and the event solver's outputs on seeded legs.

Each command runs in-process through ``vipair.cli.run_command`` inside a fresh
temporary directory, with a relative ``--out`` so that no absolute path can
leak into an artifact.  ``next_impact_batch``'s four output columns on the
PINNED_LEG_SETS legs, concatenated as raw bytes, count as the file
``legs/next_impact_batch.bin``.  The output is one ``sha256  relative/path``
line per file, sorted by path; a command's standard output counts as the file
``<label>/stdout.txt``.  Two checkouts that print the same lines give the
same bytes on this set.  The script exits nonzero when a ``.json`` artifact
or a stdout line that opens with ``{`` is not strict JSON (NaN and Infinity
are not JSON).  tests/golden/artifact_digest.txt holds its output;
tests/test_cli.py checks the artifacts and tests/test_core.py the legs
against it.

Run from the repository root:  python scripts/artifact_digest.py
Re-pin after a change that moves bytes on purpose (this is the one re-pin
step for every pinned output; the sampled-box reference of tests/test_auxmap.py
runs live from the tree, and the shipped table is data that
``vipair calibrate`` regenerates):
    python scripts/artifact_digest.py > tests/golden/artifact_digest.txt
See what moved against a git ref:  git diff REF -- tests/golden/
"""

import contextlib
import hashlib
import io
import json
import os
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vipair.cli import run_command
from vipair.core import baseline_params, next_impact_batch

# (label, argv); each command writes under the directory named by its label
COMMANDS = [
    ("sweep", ["sweep", "--d", "0.26", "--grid", "60x60"]),
    ("partition", ["partition", "--d", "0.26", "--grid", "40x40"]),
    ("r1-filter", ["r1-filter", "--grid", "30x30"]),
    # delta = 1 keeps no point, so the bounding box has no finite edge
    ("r1-filter-empty", ["r1-filter", "--delta", "1.0", "--grid", "10x10",
                         "--d-from", "0.35", "--d-to", "0.35"]),
    ("fit", ["fit", "--region", "R1", "--d", "0.35"]),
    ("fit-R3", ["fit", "--region", "R3", "--d", "0.35"]),
    ("composite", ["composite", "--d", "0.35", "--v0", "0.2", "--phi0", "0.1",
                   "--steps", "8"]),
    ("bifurcation-exact", ["bifurcation", "--kind", "exact", "--d-from", "0.33",
                           "--d-to", "0.32", "--step", "0.001"]),
    ("bifurcation-composite", ["bifurcation", "--kind", "composite", "--d-from", "0.26",
                               "--d-to", "0.25", "--step", "0.001"]),
    ("compare", ["compare", "--d", "0.35"]),
    # its composite trajectory diverges to NaN
    ("compare-diverging", ["compare", "--d", "0.35", "--v0", "1.6",
                           "--phi0", "4.898754646275609"]),
    ("aux-domain", ["aux-domain", "--case", "PD"]),
    ("case-FP", ["case", "--name", "FP"]),
    ("case-PD", ["case", "--name", "PD"]),
    ("case-CD", ["case", "--name", "CD"]),
    # --verbose prints each region's per-d sample counts and fit residuals
    ("calibrate", ["calibrate", "--verbose"]),
]


# (params, amplitude) of the bit-pinned leg sets: calibrate's own forcing at
# two d, and branches calibrate never takes: no Zdd breakpoints (A = 0 and
# 0 < A < gbar), a negative amplitude and a general phase.
PINNED_LEG_SETS = [
    (baseline_params(0.35), 1.0),
    (baseline_params(0.26), 1.0),
    (baseline_params(0.30), 0.0),
    (baseline_params(0.30), 0.1),
    (baseline_params(0.30), -0.7),
    (baseline_params(0.30).replace(general_phase=0.7), 1.0),
]
LEGS = "legs/next_impact_batch.bin"


def _pinned_legs(i, n=250):
    """n seeded legs from either wall: every fifth log-uniform in [1e-10, 1e-3]
    (chattering and grazing), the rest uniform in [1e-3, 1.6], and row 1 NaN."""
    rng = np.random.default_rng([1717, i])
    sides = rng.choice(np.array([1, -1], dtype=np.int8), n)
    slow = np.arange(n) % 5 == 0
    speed = np.where(slow, np.exp(rng.uniform(np.log(1e-10), np.log(1e-3), n)),
                     rng.uniform(1e-3, 1.6, n))
    times = rng.uniform(0.0, 2.0, n)
    vels = sides * speed
    vels[1] = np.nan
    return sides, times, vels


def pinned_leg_outputs() -> list:
    """next_impact_batch's (sides, times, velocities, statuses) on each
    pinned leg set."""
    return [next_impact_batch(*_pinned_legs(i), p, amplitude=amplitude)
            for i, (p, amplitude) in enumerate(PINNED_LEG_SETS)]


def leg_bytes(outputs: list) -> bytes:
    """Every column of the outputs, in order, as raw bytes."""
    return b"".join(np.ascontiguousarray(column).tobytes()
                    for out in outputs for column in out)


def _out_arg(label: str, argv: list[str]) -> list[str]:
    # calibrate takes a file path, every other command a directory
    if argv[0] == "calibrate":
        return ["--out", f"{label}/calibrated_coefficients.json"]
    return ["--out", label]


def run_all(workdir: Path) -> None:
    for label, argv in COMMANDS:
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout), warnings.catch_warnings():
            warnings.simplefilter("ignore")
            code = run_command(argv + _out_arg(label, argv))
        if code != 0:
            raise SystemExit(f"{' '.join(argv)} exited with {code}")
        (workdir / label / "stdout.txt").write_text(stdout.getvalue())
    (workdir / LEGS).parent.mkdir()
    (workdir / LEGS).write_bytes(leg_bytes(pinned_leg_outputs()))


def digest_lines(workdir: Path) -> list[str]:
    lines = []
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        lines.append(f"{digest}  {path.relative_to(workdir).as_posix()}")
    return lines


def _refuse(constant: str):
    raise ValueError(f"{constant} is not JSON")


def non_strict_json(workdir: Path) -> list[str]:
    """Relative paths of the .json artifacts and stdout files holding text
    that strict JSON cannot parse."""
    bad = []
    for path in sorted(p for p in workdir.rglob("*") if p.is_file()):
        if path.suffix == ".json":
            texts = [path.read_text()]
        elif path.name == "stdout.txt":
            texts = [line for line in path.read_text().splitlines() if line.startswith("{")]
        else:
            continue
        try:
            for item in texts:
                json.loads(item, parse_constant=_refuse)
        except ValueError:
            bad.append(path.relative_to(workdir).as_posix())
    return bad


def main() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="vipair-digest-") as tmp:
        os.chdir(tmp)
        try:
            run_all(Path(tmp))
            print("\n".join(digest_lines(Path(tmp))))
            bad = non_strict_json(Path(tmp))
        finally:
            os.chdir(cwd)
    if bad:
        raise SystemExit("not strict JSON: " + ", ".join(bad))


if __name__ == "__main__":
    main()
