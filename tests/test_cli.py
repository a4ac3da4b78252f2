import json

import numpy as np
import pytest

from vipair.artifacts import read_surface_csv, write_surface_csv
from vipair.cli import run_command
from vipair.config import ConfigError, load_config, parse_config
from vipair.core import baseline_params
from vipair.returnmap import GridSpec, sweep_surfaces


def test_config_minimal_nondimensional(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"nondimensional": {
        "restitution": 0.5, "length": 0.35, "gravity_term": 0.2113}}))
    cfg = load_config(path)
    assert cfg.params.length == 0.35
    assert cfg.params.general_phase == 0.0


def test_config_physical_block_derives_gbar(tmp_path):
    path = tmp_path / "cfg.json"
    path.write_text(json.dumps({"physical": {
        "capsule_mass": 0.1245, "capsule_length": 0.5622,
        "forcing_frequency": 5 * np.pi, "forcing_norm": 5.0,
        "incline": np.pi / 3, "restitution": 0.5, "gravity": 9.8}}))
    cfg = load_config(path)
    assert cfg.params.gravity_term == pytest.approx(0.2113, abs=5e-5)
    assert cfg.params.length == pytest.approx(0.35, abs=1e-4)
    assert cfg.physical is not None


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


def test_cli_error_is_machine_readable(tmp_path, capsys):
    rc = run_command(["composite", "--d", "0.35", "--v0", "0.2", "--phi0", "0.1",
                      "--table", "no_such_table", "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "FileNotFoundError"


def test_cli_rank_deficient_fit_is_machine_readable(tmp_path, capsys):
    # delta = 1 keeps no sample, so no coefficient is determined
    rc = run_command(["fit", "--region", "R1", "--grid", "20x20", "--delta", "1.0",
                      "--out", str(tmp_path)])
    assert rc == 2
    err = json.loads(capsys.readouterr().err)
    assert err["error"] == "RankDeficientFit"
    assert "coefficients" in err["message"]


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
    v, p, k, vo, po, n = read_surface_csv(path)
    assert np.array_equal(v, surface.v_in)
    assert np.array_equal(p, surface.phi_in)
    assert np.array_equal(vo, surface.v_out, equal_nan=True)
    assert np.array_equal(po, surface.phi_out, equal_nan=True)
    assert list(k) == [c.value for c in surface.klass]
    assert np.array_equal(n, surface.n_intermediate)


def test_artifacts_are_reproducible(tmp_path):
    for sub in ("a", "b"):
        rc = run_command(["sweep", "--d", "0.3", "--grid", "8x8",
                          "--out", str(tmp_path / sub)])
        assert rc == 0
    assert ((tmp_path / "a" / "surface.csv").read_bytes()
            == (tmp_path / "b" / "surface.csv").read_bytes())
    assert ((tmp_path / "a" / "surface.gp").read_bytes()
            == (tmp_path / "b" / "surface.gp").read_bytes())
