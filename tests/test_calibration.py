"""Calibration regenerates the shipped coefficient table bit for bit."""

import json
from importlib import resources

from vipair.calibration import build_calibrated_table


def test_calibration_reproduces_shipped_checksum():
    shipped = json.loads(resources.files("vipair").joinpath(
        "data", "calibrated_coefficients.json").read_text())
    table = build_calibrated_table(log=None)
    assert table.to_dict()["checksum"] == shipped["checksum"]
