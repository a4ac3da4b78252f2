"""The benchmark's workloads: CLI argument lists, the throughput unit of
each, and the output check of each command.

The checks are the ones the acceptance suite gates on: the case presets'
classifications and the shipped table checksum.  Neither workload has free
inputs, so the seed changes nothing, and every check holds for any seed.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

CASE_CLASSES = {"FP": "FP", "PD": "PD(2)", "CD": "CD"}


@dataclass(frozen=True)
class Command:
    argv: list[str]
    check: Callable[["Command", str], list[str]]   # (command, its stdout) -> problems
    out: Path
    expect: dict = field(default_factory=dict)


@dataclass(frozen=True)
class Workload:
    name: str
    unit: str
    commands: Callable[[Path], list[Command]]   # output directory -> commands
    unit_hooks: tuple    # (owner, attr, measure): each call adds measure(result) units


def _check_case(cmd: Command, stdout: str) -> list[str]:
    lines = [ln for ln in stdout.splitlines() if ln.startswith("{")]
    if not lines:
        return ["no JSON line on stdout"]
    got = json.loads(lines[-1]).get("classification")
    want = CASE_CLASSES[cmd.expect["case"]]
    return [] if got == want else [f"case {cmd.expect['case']}: {got}, expected {want}"]


def _aux_cases(out: Path):
    return [Command(["case", "--name", case, "--out", str(out / case)], _check_case,
                    out / case, {"case": case}) for case in CASE_CLASSES]


def _check_calibrate(cmd: Command, stdout: str) -> list[str]:
    from vipair.composite import CoeffTable, CoeffTableError

    payload = json.loads(cmd.out.read_text())
    try:
        CoeffTable.from_dict(payload)
    except CoeffTableError as err:
        return [str(err)]
    shipped = json.loads(cmd.expect["shipped"].read_text())["checksum"]
    if payload["checksum"] != shipped:
        return [f"table checksum {payload['checksum']} differs from shipped {shipped}"]
    return []


def _calibrate(out: Path, shipped: Path):
    target = out / "calibrated_coefficients.json"
    return [Command(["calibrate", "--out", str(target)], _check_calibrate, target,
                    {"shipped": shipped})]


def workloads(src: Path) -> dict[str, Workload]:
    shipped = src / "vipair" / "data" / "calibrated_coefficients.json"
    return {w.name: w for w in [
        Workload("aux-cases", "WCS steps", _aux_cases,
                 (("vipair.auxmap", "wcs_step", lambda record: 1),)),
        Workload("calibrate", "exact first returns",
                 lambda out: _calibrate(out, shipped),
                 (("vipair.calibration", "sweep_surfaces", len),
                  ("vipair.calibration", "_sweep_points", len))),
    ]}
