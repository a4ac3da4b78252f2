#!/usr/bin/env python3
"""Diff the artifact digest of this checkout against the one of a git ref.

Unpacks ``git archive REF`` into a temporary directory, runs each checkout's
own ``scripts/artifact_digest.py`` (each on its own ``src/``), and prints the
unified diff of the two outputs, then a one-line summary on stderr.  Exits 0
when the digests agree and 1 on any difference or a failed digest run.  The
working tree's side includes uncommitted edits.

Run from the repository root:  python scripts/digest_diff.py REF
"""

import argparse
import contextlib
import difflib
import io
import subprocess
import sys
import tarfile
import tempfile
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def ref_checkout(ref: str) -> Iterator[Path]:
    """The files of git ref REF, unpacked into a temporary directory."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True,
                             check=True).stdout
    with tempfile.TemporaryDirectory(prefix="vipair-ref-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def digest(checkout: Path) -> list[str]:
    """The digest lines that checkout's artifact_digest.py prints."""
    run = subprocess.run([sys.executable, "scripts/artifact_digest.py"], cwd=checkout,
                         capture_output=True, text=True)
    if run.returncode != 0:
        sys.stderr.write(run.stderr)
        raise SystemExit(f"artifact_digest.py in {checkout} exited with {run.returncode}")
    return run.stdout.splitlines(keepends=True)


def main() -> None:
    parser = argparse.ArgumentParser(description="diff the artifact digest against REF")
    parser.add_argument("ref", help="git ref to compare with, e.g. HEAD~1")
    ref = parser.parse_args().ref
    with ref_checkout(ref) as checkout:
        old = digest(checkout)
    new = digest(ROOT)
    diff = list(difflib.unified_diff(old, new, ref, "working tree"))
    sys.stdout.writelines(diff)
    changed = sum(line.startswith("+") for line in diff[2:])
    print(f"{ref}: {len(old)} lines, working tree: {len(new)} lines, "
          f"{changed} new or changed", file=sys.stderr)
    sys.exit(1 if diff else 0)


if __name__ == "__main__":
    main()
