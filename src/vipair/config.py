"""Run-configuration loading: exactly one parameter block, strict keys."""

from __future__ import annotations

import json
from dataclasses import fields
from pathlib import Path

from .core import NondimParams, PhysicalParams, nondimensionalize

SCHEMA_VERSION = 1

_PHYSICAL_KEYS = {f.name for f in fields(PhysicalParams)}
_NONDIM_KEYS = {f.name for f in fields(NondimParams)}
_TOP_KEYS = {"schema_version", "physical", "nondimensional"}


class ConfigError(ValueError):
    pass


def load_config(path) -> NondimParams:
    path = Path(path)
    try:
        payload = json.loads(path.read_text())
    except json.JSONDecodeError as err:
        raise ConfigError(f"{path} is not valid JSON: {err}") from err
    return parse_config(payload)


def parse_config(payload) -> NondimParams:
    if not isinstance(payload, dict):
        raise ConfigError("a config must be a JSON object")
    unknown = set(payload) - _TOP_KEYS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    version = payload.get("schema_version", SCHEMA_VERSION)
    if type(version) is not int or version != SCHEMA_VERSION:
        raise ConfigError(f"unsupported schema version {version}")

    has_phys = "physical" in payload
    has_nd = "nondimensional" in payload
    if has_phys == has_nd:
        raise ConfigError("exactly one of 'physical' or 'nondimensional' is required")

    key = "physical" if has_phys else "nondimensional"
    block = payload[key]
    if not isinstance(block, dict):
        raise ConfigError(f"the {key!r} block must be a JSON object")
    unknown = set(block) - (_PHYSICAL_KEYS if has_phys else _NONDIM_KEYS)
    if unknown:
        raise ConfigError(f"unknown {key} keys: {sorted(unknown)}")
    try:
        if has_phys:
            return nondimensionalize(PhysicalParams(**block))
        return NondimParams(**block)
    except (TypeError, ValueError) as err:
        raise ConfigError(f"invalid {key} block: {err}") from err
