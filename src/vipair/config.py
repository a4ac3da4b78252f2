"""Run-configuration loading: exactly one parameter block, strict keys."""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path

from .core import NondimParams, PhysicalParams, nondimensionalize

SCHEMA_VERSION = 1

_PHYSICAL_KEYS = {"capsule_mass", "capsule_length", "forcing_frequency",
                  "forcing_norm", "incline", "restitution", "gravity", "ball_mass"}
_NONDIM_KEYS = {"restitution", "length", "gravity_term", "general_phase"}
_TOP_KEYS = {"schema_version", "physical", "nondimensional"}


class ConfigError(ValueError):
    pass


@dataclass
class RunConfig:
    """Validated run configuration with the derived nondimensional block."""

    params: NondimParams
    physical: PhysicalParams | None = None


def load_config(path) -> RunConfig:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    return parse_config(payload)


def parse_config(payload: dict) -> RunConfig:
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    version = payload.get("schema_version", SCHEMA_VERSION)
    if version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {version}")

    has_phys = "physical" in payload
    has_nd = "nondimensional" in payload
    if has_phys == has_nd:
        raise ConfigError("exactly one of 'physical' or 'nondimensional' is required")

    physical = None
    if has_phys:
        block = dict(payload["physical"])
        unknown = set(block) - _PHYSICAL_KEYS
        if unknown:
            raise ConfigError(f"unknown physical keys: {sorted(unknown)}")
        try:
            physical = PhysicalParams(**block)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"invalid physical block: {err}") from err
        params = nondimensionalize(physical)
    else:
        block = dict(payload["nondimensional"])
        unknown = set(block) - _NONDIM_KEYS
        if unknown:
            raise ConfigError(f"unknown nondimensional keys: {sorted(unknown)}")
        try:
            params = NondimParams(**block)
        except (TypeError, ValueError) as err:
            raise ConfigError(f"invalid nondimensional block: {err}") from err

    return RunConfig(params=params, physical=physical)
