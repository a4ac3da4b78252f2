"""Unpack a git ref and load its package, for the scripts that compare a ref
with this checkout.

``ref_checkout`` unpacks ``git archive REF`` into a temporary directory, and
``load_package`` loads a checkout's whole ``src/vipair`` package in-process,
under a name of its own.  ``map_timing.py`` and ``solver_agreement.py``
take both from here.
"""

import contextlib
import importlib
import importlib.util
import io
import subprocess
import sys
import tarfile
import tempfile
import uuid
from collections.abc import Iterator
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


@contextlib.contextmanager
def ref_checkout(ref: str) -> Iterator[Path]:
    """The files of git ref REF, unpacked into a temporary directory; stops
    with one line naming REF and giving git's message when git cannot archive it."""
    archive = subprocess.run(["git", "archive", ref], cwd=ROOT, capture_output=True)
    if archive.returncode != 0:
        message = "; ".join(archive.stderr.decode(errors="replace").strip().splitlines())
        raise SystemExit(f"{ref}: git archive failed: {message}")
    with tempfile.TemporaryDirectory(prefix="vipair-ref-") as tmp:
        with tarfile.open(fileobj=io.BytesIO(archive.stdout)) as tar:
            tar.extractall(tmp, filter="data")
        yield Path(tmp)


def load_package(checkout: Path, ref: str):
    """checkout's src/vipair package with every module of it, loaded afresh
    under a name of its own; stops, naming ref, when it does not load."""
    init = checkout / "src" / "vipair" / "__init__.py"
    name = f"vipair_{uuid.uuid4().hex}"
    spec = importlib.util.spec_from_file_location(name, init,
                                                  submodule_search_locations=[str(init.parent)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package   # its submodules and dataclasses look it up
    try:
        spec.loader.exec_module(package)
        for module in sorted(init.parent.glob("*.py")):
            if module != init:
                importlib.import_module(f"{name}.{module.stem}")
    except Exception as exc:
        raise SystemExit(f"{ref}: src/vipair does not load ({exc!r})")
    return package
