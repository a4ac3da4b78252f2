#!/usr/bin/env python3
"""Print a SHA-256 digest of every artifact a fixed set of CLI commands writes.

Each command runs in-process through ``vipair.cli.run_command`` inside a fresh
temporary directory, with a relative ``--out`` so that no absolute path can
leak into an artifact.  The output is one ``sha256  relative/path`` line per
file, sorted by path; a command's standard output counts as the file
``<label>/stdout.txt``.  Two checkouts that print the same lines write the
same bytes on this command set.  The script exits nonzero when a ``.json``
artifact or a stdout line that opens with ``{`` is not strict JSON (NaN and
Infinity are not JSON).  tests/golden/artifact_digest.txt holds its output,
and tests/test_cli.py checks the artifacts against it.

Run from the repository root:  python scripts/artifact_digest.py
Re-pin after a change that moves bytes on purpose:
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

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from vipair.cli import run_command

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
        text = path.read_text()
        if path.suffix == ".json":
            texts = [text]
        elif path.name == "stdout.txt":
            texts = [line for line in text.splitlines() if line.startswith("{")]
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
