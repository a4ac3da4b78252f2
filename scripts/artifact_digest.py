#!/usr/bin/env python3
"""Print a SHA-256 digest of every artifact a fixed set of CLI commands writes.

Each command runs in-process through ``vipair.cli.run_command`` inside a fresh
temporary directory, with a relative ``--out`` so that no absolute path can
leak into an artifact.  The output is one ``sha256  relative/path`` line per
file, sorted by path; a command's standard output counts as the file
``<label>/stdout.txt``.  Two checkouts that print the same lines write the
same bytes on this command set.

Run from the repository root:  python scripts/artifact_digest.py
Compare two checkouts:         diff <(python a/scripts/artifact_digest.py) \\
                                    <(python b/scripts/artifact_digest.py)
"""

import contextlib
import hashlib
import io
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
    ("fit", ["fit", "--region", "R1", "--d", "0.35"]),
    ("fit-R3", ["fit", "--region", "R3", "--d", "0.35"]),
    ("composite", ["composite", "--d", "0.35", "--v0", "0.2", "--phi0", "0.1",
                   "--steps", "8"]),
    ("bifurcation-exact", ["bifurcation", "--kind", "exact", "--d-from", "0.33",
                           "--d-to", "0.32", "--step", "0.001"]),
    ("bifurcation-composite", ["bifurcation", "--kind", "composite", "--d-from", "0.26",
                               "--d-to", "0.25", "--step", "0.001"]),
    ("compare", ["compare", "--d", "0.35"]),
    ("aux-domain", ["aux-domain", "--case", "PD"]),
    ("case-FP", ["case", "--name", "FP"]),
    ("case-PD", ["case", "--name", "PD"]),
    ("case-CD", ["case", "--name", "CD"]),
    ("calibrate", ["calibrate"]),
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


def main() -> None:
    cwd = os.getcwd()
    with tempfile.TemporaryDirectory(prefix="vipair-digest-") as tmp:
        os.chdir(tmp)
        try:
            run_all(Path(tmp))
            print("\n".join(digest_lines(Path(tmp))))
        finally:
            os.chdir(cwd)


if __name__ == "__main__":
    main()
