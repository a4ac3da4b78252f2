import csv
import importlib.util
import json
import math
from pathlib import Path

import numpy as np
import pytest

from vipair import analysis
from vipair.artifacts import write_surface_csv
from vipair.cli import build_parser, run_command
from vipair.composite import _data_path, table_checksum
from vipair.config import ConfigError, load_config, parse_config
from vipair.core import baseline_params
from vipair.returnmap import GridSpec, ReturnClass, sweep_surfaces


def test_config_minimal_nondimensional(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nondimensional": {
        "restitution": 0.5, "length": 0.35, "gravity_term": 0.2113}}))
    params = load_config(path)
    assert params.length == 0.35
    assert params.general_phase == 0.0


def test_config_physical_block_derives_gbar(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"physical": {
        "capsule_mass": 0.1245, "capsule_length": 0.5622,
        "forcing_frequency": 5 * np.pi, "forcing_norm": 5.0,
        "incline": np.pi / 3, "restitution": 0.5, "gravity": 9.8}}))
    params = load_config(path)
    assert params.gravity_term == pytest.approx(0.2113, abs=5e-5)
    assert params.length == pytest.approx(0.35, abs=1e-4)


def test_config_both_blocks_rejected():
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config({"physical": {}, "nondimensional": {}})
    with pytest.raises(ConfigError, match="exactly one"):
        parse_config({})


def test_config_unknown_keys_rejected():
    with pytest.raises(ConfigError, match="unknown"):
        parse_config({"nondimensional": {"length": 0.3, "restitution": 0.5,
                                         "gravity_term": 0.2, "bogus": 1}})
    with pytest.raises(ConfigError, match="unknown config keys"):
        parse_config({"nondimensional": {"length": 0.3, "restitution": 0.5,
                                         "gravity_term": 0.2}, "extra": {}})


def test_config_parse_error(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ConfigError, match="not valid JSON"):
        load_config(path)


def test_cli_composite_table(tmp_path, capsys):
    rc = run_command(["composite", "--d", "0.35", "--v0", "0.2", "--phi0", "0.1",
                      "--steps", "4", "--out", str(tmp_path)])
    assert rc == 0
    out = capsys.readouterr().out
    lines = [ln for ln in out.splitlines() if ln.strip()]
    assert len(lines) == 6  # header + 5 states
    assert (tmp_path / "composite_trajectory.csv").exists()


def test_cli_table_is_a_shipped_name_or_else_a_path(tmp_path, monkeypatch, capsys):
    """A shipped name reads the shipped table even where the working directory
    holds a folder or a file of that name; any other string is a path."""
    argv = ["composite", "--d", "0.35", "--v0", "0.2", "--phi0", "0.1", "--steps", "4"]

    def stdout(*extra):
        assert run_command(argv + list(extra)) == 0
        return capsys.readouterr().out

    shipped = stdout("--out", str(tmp_path / "shipped"))
    supplement = stdout("--table", "supplement", "--out", str(tmp_path / "supplement"))
    assert supplement != shipped
    (tmp_path / "folder").mkdir()
    monkeypatch.chdir(tmp_path / "folder")
    assert stdout("--out", "calibrated") == shipped   # the run makes ./calibrated first
    assert Path("calibrated", "composite_trajectory.csv").exists()
    (tmp_path / "file").mkdir()
    monkeypatch.chdir(tmp_path / "file")
    Path("calibrated").write_text(_data_path("supplement").read_text())
    assert stdout("--out", str(tmp_path / "out")) == shipped
    assert stdout("--table", "./calibrated", "--out", str(tmp_path / "out")) == supplement


def test_cli_sweep_row_count(tmp_path, capsys):
    rc = run_command(["sweep", "--d", "0.3", "--grid", "10x10", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    rows = (tmp_path / "surface.csv").read_text().splitlines()
    assert len(rows) == 101  # header + 10x10 nodes
    assert sum(payload["classes"].values()) == 100
    assert (tmp_path / "surface.gp").exists()


def test_cli_aux_domain(tmp_path, capsys):
    rc = run_command(["aux-domain", "--case", "FP", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["statement"] == "Part1"
    report = json.loads((tmp_path / "aux_report.json").read_text())
    assert report["case"] == "FP"
    assert len(report["boxes"]) == 11


def _baseline_config(tmp_path, d):
    """A config file with the baseline parameters of `--d d`."""
    p = baseline_params(d)
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nondimensional": {
        "restitution": p.restitution, "length": p.length,
        "gravity_term": p.gravity_term, "general_phase": p.general_phase}}))
    return str(path)


def test_cli_composite_reads_config(tmp_path, capsys):
    argv = ["composite", "--v0", "0.8", "--phi0", "0.35", "--out", str(tmp_path)]
    outputs = []
    for extra in (["--config", _baseline_config(tmp_path, 0.30)], ["--d", "0.30"], []):
        assert run_command(argv + extra) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1] != outputs[2]


def test_cli_compare_reads_config(tmp_path, capsys):
    runs = []
    for sub, extra in (("cfg", ["--config", _baseline_config(tmp_path, 0.30)]),
                       ("d", ["--d", "0.30"])):
        assert run_command(["compare", "--out", str(tmp_path / sub)] + extra) == 0
        runs.append(json.loads(capsys.readouterr().out)["tail_distances"])
    assert runs[0] == runs[1] and runs[0][0] > 1e-3   # d = 0.35 gives 3.2e-5
    assert ((tmp_path / "cfg" / "comparison.csv").read_bytes()
            == (tmp_path / "d" / "comparison.csv").read_bytes())
    meta = json.loads((tmp_path / "cfg" / "comparison_meta.json").read_text())
    assert meta["d"] == 0.30


def test_cli_refuses_config_the_table_was_not_fitted_at(tmp_path, capsys):
    # the composite map only exists at its table's r, gbar and psi
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nondimensional": {
        "restitution": 0.8, "length": 0.35, "gravity_term": 0.05}}))
    for argv in (["composite", "--v0", "0.2", "--phi0", "0.1"], ["compare"]):
        assert run_command(argv + ["--config", str(path), "--out", str(tmp_path)]) == 2
        err = json.loads(capsys.readouterr().err)
        assert err["error"] == "ConfigError"
        assert "restitution" in err["message"]


def test_cli_runs_readme_example_config(tmp_path, capsys):
    # README's example rounds gbar to 0.2113
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nondimensional": {
        "restitution": 0.5, "length": 0.35, "gravity_term": 0.2113}}))
    for argv in (["composite", "--v0", "0.2", "--phi0", "0.1"], ["compare"]):
        assert run_command(argv + ["--config", str(path), "--out", str(tmp_path)]) == 0


def test_cli_error_is_machine_readable(tmp_path, capsys):
    rc = run_command(["composite", "--d", "0.35", "--v0", "0.2", "--phi0", "0.1",
                      "--table", "no_such_table", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def _write_or_mkdir(path, payload):
    """Write payload to path, or make path a directory when payload is None."""
    if payload is None:
        path.mkdir()
    else:
        path.write_text(payload)


@pytest.mark.parametrize("payload, error", [
    ('42', "ConfigError"), ('[{}]', "ConfigError"), ('{"physical": 5}', "ConfigError"),
    ('{"nondimensional": [1]}', "ConfigError"), (None, "IsADirectoryError"),
], ids=["number", "list", "physical-number", "nondimensional-list", "directory"])
def test_cli_malformed_config_is_machine_readable(tmp_path, capsys, payload, error):
    path = tmp_path / "cfg.json"
    _write_or_mkdir(path, payload)
    rc = run_command(["sweep", "--config", str(path), "--grid", "2x2",
                      "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error


_NOT_A_REGION = {"R9": {}}
_SHIPPED = json.loads(_data_path("calibrated").read_text())


@pytest.mark.parametrize("payload, error, message", [
    ({}, "CoeffTableError", "lacks"),
    ([], "CoeffTableError", "JSON object"),
    ({"name": "x", "d_range": [0.25, 0.36], "regions": _NOT_A_REGION,
      "checksum": table_checksum(_NOT_A_REGION)}, "CoeffTableError", "region names"),
    (None, "IsADirectoryError", "Is a directory"),
    (_SHIPPED | {"d_range": None}, "CoeffTableError", "'d_range'"),
    (_SHIPPED | {"d_range": 5}, "CoeffTableError", "'d_range'"),
    (_SHIPPED | {"d_range": ["a", "b"]}, "CoeffTableError", "'d_range'"),
    (_SHIPPED | {"d_range": [0.35, 0.26]}, "CoeffTableError", "'d_range'"),
    (_SHIPPED | {"metadata": []}, "CoeffTableError", "'metadata'"),
    (_SHIPPED | {"metadata": {"base_params": {"restitution": 0.5}}}, "CoeffTableError",
     "'base_params'"),
], ids=["no-regions", "list", "unknown-region", "directory", "d-range-null",
        "d-range-number", "d-range-strings", "d-range-descending", "metadata-list",
        "base-params-partial"])
def test_cli_malformed_table_is_machine_readable(tmp_path, capsys, payload, error, message):
    path = tmp_path / "table.json"
    _write_or_mkdir(path, None if payload is None else json.dumps(payload))
    rc = run_command(["composite", "--v0", "0.2", "--phi0", "0.1", "--table", str(path),
                      "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == error
    assert message in err["message"]


# Edits of the shipped table's regions that the region shapes rule out; the
# edited table is given a matching checksum
_OFF_SHAPE_EDITS = {
    "phi-power-in-v-map": (lambda r: r["R2"]["v"]["terms"].append(
        {"exponents": [1, 2], "d_poly": [1.0]}), "do not fit"),
    "v-power-above-degree": (lambda r: r["R2"]["v"]["terms"].append(
        {"exponents": [0, 9], "d_poly": [1.0]}), "do not fit"),
    "unknown-target": (lambda r: r["R2"].update(x={"terms": []}), "targets"),
    "term-without-exponents": (lambda r: r["R2"]["v"]["terms"][0].pop("exponents"),
                               "'exponents'"),
    "missing-target": (lambda r: r["R2"].pop("phi"), "targets"),
    "missing-region": (lambda r: r.pop("R4"), "no R4"),
    "empty-d-poly": (lambda r: r["R2"]["v"]["terms"][0].update(d_poly=[]), "d_poly"),
    "d-poly-not-numbers": (lambda r: r["R2"]["v"]["terms"][0].update(d_poly={"a": 1}),
                           "d_poly"),
    "d-poly-nan": (lambda r: r["R3"]["v"]["terms"][0]["d_poly"].__setitem__(0, math.nan),
                   "d_poly"),
}


@pytest.mark.parametrize("edit, message", _OFF_SHAPE_EDITS.values(), ids=_OFF_SHAPE_EDITS)
def test_cli_table_off_its_region_shapes_is_machine_readable(tmp_path, capsys, edit,
                                                             message):
    payload = json.loads(_data_path("calibrated").read_text())
    edit(payload["regions"])
    payload["checksum"] = table_checksum(payload["regions"])
    path = tmp_path / "table.json"
    path.write_text(json.dumps(payload))
    rc = run_command(["composite", "--d", "0.35", "--v0", "0.7", "--phi0", "0.8",
                      "--steps", "2", "--table", str(path), "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "CoeffTableError"
    assert message in err["message"]


_MISSING_TABLE = ("no coefficient table at '/x/missing.json'; the shipped tables are "
                  "calibrated, supplement")
# The error of each refusal below that is not a ConfigError
_REFUSAL_ERRORS = {"more than 100000 steps": "ValueError",
                   "Unable to allocate": "MemoryError",
                   "d must be positive": "CoeffTableError",
                   "grid ranges must increase": "ValueError",
                   _MISSING_TABLE: "FileNotFoundError"}


@pytest.mark.parametrize("argv, message", [
    (["r1-filter", "--d-from", "0.35", "--d-to", "0.26"], "no d values"),
    (["r1-filter", "--step", "0"], "step must be positive"),
    (["composite", "--v0", "0.2", "--phi0", "0.1", "--steps", "-1"],
     "steps must be nonnegative"),
    (["aux-domain", "--case", "FP", "--updates", "0"], "updates must be at least 1"),
    (["aux-domain", "--case", "PD", "--updates", "-3"], "updates must be at least 1"),
    # each is refused before its d list is built
    (["bifurcation", "--step", "1e-12"], "more than 100000 steps"),
    (["r1-filter", "--step", "1e-12"], "more than 100000 steps"),
    # numpy refuses the 8 TB trajectory array at once
    (["composite", "--v0", "0.2", "--phi0", "0.1", "--steps", "1000000000000"],
     "Unable to allocate"),
    # the reduced map exists for d > 0 only, as the exact map does
    (["aux-domain", "--case", "FP", "--d", "0"], "d must be positive"),
    (["aux-domain", "--case", "FP", "--d", "-0.1"], "d must be positive"),
    (["bifurcation", "--kind", "composite", "--d-from", "0", "--d-to", "0",
      "--step", "0.001"], "d must be positive"),
    (["sweep", "--grid", "3x3", "--v-max", "0"], "grid ranges must increase"),
    (["composite", "--v0", "0.2", "--phi0", "0.1", "--table", "/x/missing.json"],
     _MISSING_TABLE),
])
@pytest.mark.filterwarnings("error::vipair.composite.ExtrapolationWarning")
def test_cli_rejects_empty_ranges_with_error_json(tmp_path, capsys, argv, message):
    assert run_command(argv + ["--out", str(tmp_path)]) == 2
    lines = capsys.readouterr().err.splitlines()
    assert len(lines) == 1
    err = json.loads(lines[0])
    assert err["error"] == _REFUSAL_ERRORS.get(message, "ConfigError")
    assert message in err["message"]


# Every subcommand's options as dest -> (default, required)
_SUBCOMMAND_OPTIONS = {
    "sweep": {"out": (None, False), "d": (0.35, False), "config": (None, False),
              "grid": ("200x200", False), "v_max": (1.0, False), "phi_max": (math.pi, False)},
    "partition": {"out": (None, False), "d": (0.35, False), "config": (None, False),
                  "grid": ("200x200", False)},
    "r1-filter": {"out": (None, False), "grid": ("100x100", False), "d_from": (0.26, False),
                  "d_to": (0.35, False), "step": (0.01, False), "delta": (1.2, False)},
    "fit": {"out": (None, False), "d": (0.35, False), "config": (None, False),
            "grid": ("200x200", False), "region": ("R1", False), "delta": (1.2, False)},
    "composite": {"out": (None, False), "d": (0.35, False), "config": (None, False),
                  "table": ("calibrated", False), "v0": (None, True), "phi0": (None, True),
                  "steps": (4, False)},
    "bifurcation": {"out": (None, False), "table": ("calibrated", False),
                    "kind": ("exact", False), "d_from": (0.36, False),
                    "d_to": (0.25, False), "step": (0.001, False)},
    "compare": {"out": (None, False), "d": (0.35, False), "config": (None, False),
                "table": ("calibrated", False), "v0": (0.2, False), "phi0": (0.1, False)},
    "aux-domain": {"out": (None, False), "table": ("calibrated", False),
                   "case": (None, True), "d": (None, False), "updates": (None, False)},
    "case": {"out": (None, False), "table": ("calibrated", False), "name": (None, True)},
    "calibrate": {"out": (None, False), "verbose": (False, False)},
}


def test_subcommand_options_keep_their_defaults():
    parser = build_parser()
    subcommands = parser._subparsers._group_actions[0].choices
    assert set(subcommands) == set(_SUBCOMMAND_OPTIONS)
    for name, sub in subcommands.items():
        options = {a.dest: (a.default, a.required) for a in sub._actions if a.dest != "help"}
        assert options == _SUBCOMMAND_OPTIONS[name], name


_BASELINE_PHYSICAL = {"capsule_mass": 0.1245, "capsule_length": 0.5622,
                      "forcing_frequency": 5 * np.pi, "forcing_norm": 5.0,
                      "incline": np.pi / 3, "restitution": 0.5}


@pytest.mark.parametrize("argv, config", [
    (["sweep", "--d", "nan", "--grid", "3x3"], None),
    (["composite", "--d", "nan", "--v0", "0.2", "--phi0", "0.1", "--steps", "2"], None),
    (["composite", "--v0", "nan", "--phi0", "0.1", "--steps", "2"], None),
    (["compare", "--phi0", "inf"], None),
    (["aux-domain", "--case", "FP", "--d", "nan"], None),
    (["bifurcation", "--step", "nan"], None),
    # json writes and reads NaN and Infinity
    (["sweep", "--grid", "3x3"], {"nondimensional": {
        "restitution": 0.5, "length": math.nan, "gravity_term": 0.2113}}),
    (["sweep", "--grid", "3x3"], {"physical": _BASELINE_PHYSICAL | {"gravity": math.inf}}),
], ids=["sweep-d", "composite-d", "composite-v0", "compare-phi0", "aux-domain-d",
        "bifurcation-step", "config-nondimensional", "config-physical"])
def test_cli_refuses_non_finite_numbers(tmp_path, capsys, argv, config):
    if config is not None:
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(config))
        argv = argv + ["--config", str(path)]
    assert run_command(argv + ["--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "ConfigError"
    assert "finite" in err["message"]


def test_cli_compare_survives_three_top_impacts(tmp_path, capsys):
    # the exact map's first return from this start meets three top impacts
    rc = run_command(["compare", "--d", "0.35", "--v0", "1.6", "--phi0", "4.898754646275609",
                      "--out", str(tmp_path)])
    assert rc == 0
    assert (tmp_path / "comparison.csv").exists()


def _strict_loads(text: str):
    def refuse(constant):
        raise ValueError(f"{constant} is not JSON")
    return json.loads(text, parse_constant=refuse)


@pytest.mark.parametrize("argv, key", [
    # the composite trajectory from this start diverges to NaN
    (["compare", "--d", "0.35", "--v0", "1.6", "--phi0", "4.898754646275609"],
     "tail_distances"),
    # delta = 1 keeps no point, so the bounding box has no finite edge
    (["r1-filter", "--delta", "1.0", "--grid", "10x10", "--d-from", "0.35",
      "--d-to", "0.35"], "bounding_box"),
    # v0 = 0 is OTHER at the first return: the exact trajectory holds its start only
    (["compare", "--d", "0.35", "--v0", "0", "--phi0", "0.1"], "tail_distances"),
    # delta = 0 keeps no point either
    (["r1-filter", "--delta", "0", "--grid", "10x10", "--d-from", "0.35",
      "--d-to", "0.35"], "bounding_box"),
], ids=["compare", "r1-filter", "compare-stopped-exact", "r1-filter-delta-0"])
def test_cli_writes_non_finite_numbers_as_null(tmp_path, capsys, argv, key):
    assert run_command(argv + ["--out", str(tmp_path)]) == 0
    payload = _strict_loads(capsys.readouterr().out)
    assert payload[key] and all(x is None for x in payload[key])
    written = sorted(tmp_path.glob("*.json"))
    assert written
    for path in written:
        _strict_loads(path.read_text())


@pytest.mark.parametrize("delta", ["1.0", "0.0"])
def test_cli_rank_deficient_fit_is_machine_readable(tmp_path, capsys, delta):
    # delta <= 1 keeps no sample, so no coefficient is determined
    rc = run_command(["fit", "--region", "R1", "--grid", "20x20", "--delta", delta,
                      "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RankDeficientFit"
    assert "coefficients" in err["message"]


def test_cli_r1_filter_default_d_values(tmp_path, capsys):
    assert run_command(["r1-filter", "--grid", "2x2", "--out", str(tmp_path)]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["d_values"] == [0.26, 0.27, 0.28, 0.29, 0.3, 0.31, 0.32, 0.33, 0.34, 0.35]


def test_cli_exact_scan_refuses_d_at_most_zero_before_any_run(tmp_path, capsys,
                                                               monkeypatch):
    def refuse(*args):
        raise AssertionError("the exact map ran before the d range was checked")

    monkeypatch.setattr(analysis, "_iterate_exact", refuse)
    assert run_command(["bifurcation", "--d-from", "0.005", "--d-to", "0",
                        "--out", str(tmp_path)]) == 2
    err = json.loads(capsys.readouterr().err)
    assert err == {"error": "DegenerateParamsError",
                   "message": "dimensionless length must be positive, got 0.0"}


def test_cli_case_with_a_diverged_trajectory_has_no_class(tmp_path, capsys):
    # the supplement table's FP trajectory from CASE_START ends in NaN states
    assert run_command(["case", "--name", "FP", "--table", "supplement",
                        "--out", str(tmp_path)]) == 0
    assert _strict_loads(capsys.readouterr().out)["classification"] is None
    last = (tmp_path / "trajectory.csv").read_text().splitlines()[-1]
    assert last.split(",")[1:3] == ["nan", "nan"]


# Small runs of every subcommand that has a float option; each option is set
# to 0 and to -1 on top of these
_SMALL_RUNS = {
    "sweep": ["--grid", "3x3"],
    "partition": ["--grid", "3x3"],
    "r1-filter": ["--grid", "3x3", "--d-from", "0.34", "--d-to", "0.35"],
    "fit": ["--grid", "10x10"],
    "composite": ["--v0", "0.2", "--phi0", "0.1", "--steps", "2"],
    "bifurcation": ["--d-from", "0.35", "--d-to", "0.349", "--step", "0.001"],
    "compare": [],
    "aux-domain": ["--case", "FP", "--updates", "1"],
}
_FLOAT_OPTIONS = [
    (name, action.option_strings[0])
    for name, sub in build_parser()._subparsers._group_actions[0].choices.items()
    for action in sub._actions if action.type is float]


@pytest.mark.parametrize("value", ["0", "-1"])
@pytest.mark.parametrize("name, option", _FLOAT_OPTIONS,
                         ids=[f"{n}{o}" for n, o in _FLOAT_OPTIONS])
def test_cli_float_options_at_zero_and_below_never_crash(tmp_path, capsys, name, option,
                                                          value):
    rc = run_command([name, *_SMALL_RUNS[name], f"{option}={value}", "--out", str(tmp_path)])
    assert rc in (0, 2)
    if rc == 2:
        # a run that succeeds may still warn (e.g. EmptyFilterResult for --delta 0);
        # pytest records Python warnings, so stderr is checked on a refusal only
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and set(json.loads(lines[0])) == {"error", "message"}


def test_cli_fit_r3_ignores_r1_delta(tmp_path, capsys):
    # the R1 diagonal-proximity filter would keep 3 of ~5,600 R3 samples
    rc = run_command(["fit", "--region", "R3", "--d", "0.35", "--out", str(tmp_path)])
    assert rc == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["delta"] is None
    assert set(payload["reports"]) == {"v", "phi"}
    for rep in payload["reports"].values():
        assert 0.0 < rep["r_squared"] <= 1.0 and rep["n"] > 1000
    assert json.loads((tmp_path / "fit_R3.json").read_text()) == payload


def test_cli_fit_rejects_separable_regions(capsys):
    with pytest.raises(SystemExit) as exc:
        run_command(["fit", "--region", "R2"])
    assert exc.value.code == 2
    assert "invalid choice" in capsys.readouterr().err


def test_surface_csv_roundtrip(tmp_path):
    surface = sweep_surfaces(GridSpec(n_v=6, n_phi=6), baseline_params(0.3))
    path = write_surface_csv(tmp_path / "s.csv", surface)
    with path.open() as fh:
        rows = list(csv.DictReader(fh))
    column = lambda key: np.array([float(r[key]) if r[key] else np.nan for r in rows])
    assert np.array_equal(column("v_k"), surface.v_in)
    assert np.array_equal(column("phi_k"), surface.phi_in)
    assert np.array_equal(column("v_next"), surface.v_out, equal_nan=True)
    assert np.array_equal(column("phi_next"), surface.phi_out, equal_nan=True)
    assert [r["class"] for r in rows] == [ReturnClass(c).name for c in surface.klass]
    assert np.array_equal(column("n_intermediate"), surface.n_intermediate)


def test_artifacts_are_reproducible(tmp_path):
    for sub in ("a", "b"):
        rc = run_command(["sweep", "--d", "0.3", "--grid", "8x8",
                          "--out", str(tmp_path / sub)])
        assert rc == 0
    assert ((tmp_path / "a" / "surface.csv").read_bytes()
            == (tmp_path / "b" / "surface.csv").read_bytes())
    assert ((tmp_path / "a" / "surface.gp").read_bytes()
            == (tmp_path / "b" / "surface.gp").read_bytes())


def _digests(tmp_path, monkeypatch, commands) -> dict:
    """{relative path: sha256} of every file that scripts/artifact_digest.py's
    run_all writes from tmp_path for commands, stdout files included."""
    spec = importlib.util.spec_from_file_location(
        "artifact_digest", Path(__file__).resolve().parents[1] / "scripts" / "artifact_digest.py")
    digest = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(digest)
    monkeypatch.setattr(digest, "COMMANDS", commands)
    monkeypatch.chdir(tmp_path)   # the stdout lists the relative artifact paths
    digest.run_all(tmp_path)
    return {path: sha for sha, path in (line.split("  ", 1)
                                        for line in digest.digest_lines(tmp_path))}


# sha256 of every file `case --name FP|PD|CD --out case-<name>` writes, and of
# its stdout, as `python scripts/artifact_digest.py` prints them
CASE_DIGESTS = {
    "case-CD/aux_report.json": "f9e4fb65ee8faa7d4577715d45f967c2a8352d4af64ad4e0ea74af4722ed699e",
    "case-CD/stdout.txt": "62c3c17868a436bbef8af96e77d9cb4e5e463143eda4e708cf82aaf81ce566a1",
    "case-CD/trajectory.csv": "0b439324b116b0b8d85616592d7911628c57c698f20b8dac9e4317d9cfb62532",
    "case-CD/trajectory.gp": "1c4da8c4813667f2c0dc06ecb0e148e0e82aa37dff6aa4316ae222c31dc1e22e",
    "case-CD/widths.csv": "c4eda8738161dbc266f9a59651a59fe11d52b2b624e461b61631c9ee3109f571",
    "case-CD/widths.gp": "082f6bc6a9e0320c1afdc96a1dfdd1d9e6b126aec5af66ccae9277ee748b6d59",
    "case-FP/aux_report.json": "d65670155c80dccb6a5f01f953ed028675f28583b285f5139dbc3383289a404b",
    "case-FP/stdout.txt": "265c6881c8086cd816fc7cb60721312a40914fce4034fe184c17b43fc09fd080",
    "case-FP/trajectory.csv": "484a08515f7e5f041d2883917562ad3b53ef6df3ba775d196432ab7412eb9f96",
    "case-FP/trajectory.gp": "f1df66fceb5a5542825c49255a6db2bf39fa12766fe4563d5ea669bb4afe382f",
    "case-FP/widths.csv": "d27a19b8da81970c0aaeca1899c78f25cc448056c21639ed3adbb4cb8f3db0f3",
    "case-FP/widths.gp": "e05a19760aface584cbfd0c76a27dbc1d1157222cddfc99b737c1c906a975247",
    "case-PD/aux_report.json": "aaf2b8dfd8cae6abcc0a06262b74f8de985c463963dfe29368415d44ef1bcd6b",
    "case-PD/stdout.txt": "ed9bd885874a6f9e2ce8eb6aa284c955bd076486c40d04438c6397004f1bbc8d",
    "case-PD/trajectory.csv": "13a13aa0832faf55083034e811a3e3218facb05fbba24a93da46c9e0fb08eedd",
    "case-PD/trajectory.gp": "7a29ed17b685c13271cb34fa7b63dae7774baf046dfe13302bed7abf6c5dfc13",
    "case-PD/widths.csv": "f1357c1c74975371f3166751245023a3fc2f9aaa9fe2442f7ffa2667a20da447",
    "case-PD/widths.gp": "82e5e6031554f037342a293a788878ca0801628f119903d48a5caa2d2db345cd",
}


def test_case_artifacts_keep_their_bytes(tmp_path, monkeypatch):
    """The case presets write the same bytes as the digest command set did.

    Host-dependent, like the calibrated-table checksum test: the digests were
    taken with Python 3.11.7 and numpy 2.4.6 on x86-64, and another libm or
    numpy build may round a power or a root differently.  On a failure
    elsewhere, compare with the digest script's output at the previous commit
    on the same machine before suspecting the change.
    """
    got = _digests(tmp_path, monkeypatch, [(f"case-{name}", ["case", "--name", name])
                                           for name in ("FP", "PD", "CD")])
    assert got == CASE_DIGESTS


# small runs of the CSV writers that CASE_DIGESTS does not reach
CSV_COMMANDS = [
    ("sweep", ["sweep", "--d", "0.3", "--grid", "8x8"]),
    ("partition", ["partition", "--d", "0.3", "--grid", "8x8"]),
    ("composite", ["composite", "--d", "0.35", "--v0", "0.2", "--phi0", "0.1",
                   "--steps", "8"]),
    ("bifurcation", ["bifurcation", "--kind", "composite", "--d-from", "0.26",
                     "--d-to", "0.25", "--step", "0.005"]),
]
CSV_DIGESTS = {
    "bifurcation/bifurcation_composite.csv": "0c77704de42880a8b5f2aad22ce04bb194071492dc1f249b9d4b6af778056f8d",
    "bifurcation/bifurcation_composite.gp": "f4064d4a5ec125d1476a4988a6a6f7c21979e5e14478477cf15ac5f32e48a7e1",
    "bifurcation/bifurcation_composite_meta.json": "8fb8711eb692e2c10d56c7f027e4cbac5ccfc155e4a247f8cbd451c8f2d52c7f",
    "bifurcation/stdout.txt": "a603b0c6513eca2947388791ab7f3be52464e03293823dfa5060978cf4a977d3",
    "composite/composite_trajectory.csv": "1d43fb8d30ffb80de94041d1f61275adb42177c527a50bea2a7d49faaef0cd4d",
    "composite/stdout.txt": "afa3a8532d2fa889d2a63c62cd20d46f2f2b14b407b6bbdcd9bc06694aee85ca",
    "partition/partition.csv": "c224886552b03a9f51c78d3f75d2ef4075f63988e9e7649cc4358d96a266ae6a",
    "partition/stdout.txt": "063a833613425ebf197dff58c4081518aa6af94b8ebcc8c58a49acd0e042d387",
    "sweep/stdout.txt": "22cda7fbd79ab6d04bf0513a145d2cc877b50f480176b6c8c7ca3aa13bf920ed",
    "sweep/surface.csv": "6ceebee4d5e891124e772b3f4b5cc9c0628bd9ef4ecc4bb6f045084473ff7fc3",
    "sweep/surface.gp": "b32b65df140f8d190a79450f41c34b74d5dc9339df835db47d71d37624fd2e59",
    "sweep/surface.json": "47e8013695fc127e3c967b2e4f53e216e7ef41339b7a15695e19d40c8e28375c",
}


def test_csv_artifacts_keep_their_bytes(tmp_path, monkeypatch):
    """Small sweep, partition, composite and bifurcation runs write the same
    bytes as before.

    Host-dependent, like the calibrated-table checksum test: the digests were
    taken with Python 3.11.7 and numpy 2.4.6 on x86-64, and another libm or
    numpy build may round a power or a root differently.  On a failure
    elsewhere, compare with the same runs at the previous commit on the same
    machine before suspecting the change.
    """
    assert _digests(tmp_path, monkeypatch, CSV_COMMANDS) == CSV_DIGESTS
