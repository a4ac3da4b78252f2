import ast
import contextlib
import importlib.util
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name: str, folder: Path = SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_unused_defaulted_parameters():
    # the recipe's base parameters stay for fitting the paper's operating point
    labels = [line.split()[-1] for line in _load("unused_params").unused()]
    assert labels == ["build_calibrated_table.base"]


# Defaulted parameters that only tests set, each a seam kept on purpose.
TEST_ONLY_SEAMS = {
    "compare_exact_vs_composite.n_steps": "the comparison tests run 80 to 300 returns",
}


def test_parameters_only_tests_set_are_the_kept_seams():
    labels = [line.split()[-1] for line in _load("unused_params").set_only_by_tests()]
    assert sorted(labels) == sorted(TEST_ONLY_SEAMS)


# Top-level package names that nothing in src/ uses, each kept on purpose.
REFERENCE_ORACLES = {
    "_flow": "the closed-form flight that tests check the event solver against",
}


def test_names_src_never_uses_are_the_reference_oracles():
    labels = [line.split()[-1] for line in _load("unused_params").unreferenced()]
    assert sorted(labels) == sorted(REFERENCE_ORACLES)


def test_only_the_cli_picks_a_coefficient_table():
    # every computation below the CLI takes its table as an argument
    callers = set()
    for path in sorted((ROOT / "src" / "vipair").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call):
                func = node.func
                name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", "")
                if name == "load_table":
                    callers.add(path.stem)
    assert "cli" in callers and callers <= {"cli", "composite"}


def test_only_composite_writes_the_partition():
    # the slope and the velocity edge of the region partition live in
    # composite.REGION_RULES alone
    owners = set()
    for path in sorted((ROOT / "src" / "vipair").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Constant) and node.value in (0.53, 0.55):
                owners.add(path.stem)
    assert owners == {"composite"}


def test_digest_diff_reports_both_line_counts(monkeypatch, capsys, tmp_path):
    digest_diff = _load("digest_diff")
    old, new = tmp_path / "old", tmp_path / "new"
    for checkout, files in ((old, {"a.py": "x\ny\n", "b.py": "z\n"}),
                            (new, {"a.py": "x\n", "b.py": "z\n", "c.py": "1\n2\n3"})):
        (checkout / "src" / "vipair").mkdir(parents=True)
        for name, text in files.items():
            (checkout / "src" / "vipair" / name).write_text(text)
    (new / "src" / "vipair" / "notes.txt").write_text("not counted\n")
    assert digest_diff.line_counts(old) == {"a.py": 2, "b.py": 1}
    assert digest_diff.line_counts(new) == {"a.py": 1, "b.py": 1, "c.py": 2}   # as wc -l
    monkeypatch.setattr(digest_diff, "ROOT", new)
    monkeypatch.setattr(digest_diff, "ref_checkout", lambda ref: contextlib.nullcontext(old))
    monkeypatch.setattr(digest_diff, "digest", lambda checkout: ["same  line\n"])
    monkeypatch.setattr(sys, "argv", ["digest_diff.py", "REF"])
    with pytest.raises(SystemExit) as stop:
        digest_diff.main()
    assert stop.value.code == 0
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines() == [
        "REF: 1 lines, working tree: 1 lines, 0 new or changed",
        "src/vipair/*.py lines, REF -> working tree: 3 -> 4 "
        "(a.py 2 -> 1, b.py 1, c.py 0 -> 2)"]


def test_digest_flags_non_strict_json(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "ok.json").write_text('{"x": null}')
    (tmp_path / "run" / "bad.json").write_text('{"x": NaN}')
    (tmp_path / "run" / "stdout.txt").write_text('  k  v\n{"d": [Infinity]}\n')
    (tmp_path / "run" / "data.csv").write_text("nan\n")
    assert _load("artifact_digest").non_strict_json(tmp_path) == ["run/bad.json",
                                                                 "run/stdout.txt"]


def test_solver_agreement_runs_both_checkouts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its digest_diff import
    agreement = _load("solver_agreement")
    rows = agreement.agreement(ROOT, ROOT, 300)
    assert [row[:3] for row in rows] == [(d, 300, 0) for d in agreement.D_VALUES]
    assert all(row[3:] == (0.0, 0, 0.0) for row in rows)
    legs = agreement.legs(0, 300)
    assert np.all(np.sign(legs["vels"]) == legs["sides"])
    assert np.all((np.abs(legs["vels"]) >= 1e-3) & (np.abs(legs["vels"]) <= 1.6))
    # one leg with another side, one with a slightly later impact, one whose
    # velocity alone differs in its last bit; the no-impact rows are NaN on
    # both sides
    old = {"side": np.array([1, -1, 1, -1]), "status": np.array([0, 0, 1, 0]),
           "time": np.array([1.0, 2.0, np.nan, 3.0]),
           "vel": np.array([0.5, -0.4, np.nan, -0.3])}
    new = {"side": np.array([1, 1, 1, -1]), "status": old["status"],
           "time": np.array([1.0 + 1e-13, 2.0, np.nan, 3.0]),
           "vel": np.array([0.5, -0.4, np.nan, np.nextafter(-0.3, 0.0)])}
    bad, dt, bits, dv = agreement.compare(old, new)
    assert bad == 1 and dt == pytest.approx(1e-13, rel=1e-3, abs=0)
    assert bits == 3 and dv == np.spacing(0.3)


def test_solver_agreement_sees_two_different_solvers(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its digest_diff import
    agreement = _load("solver_agreement")
    source = (ROOT / "src" / "vipair" / "core.py").read_text()
    assert source.count("GRAZING_TOL = 1e-8\n") == 1
    (tmp_path / "src" / "vipair").mkdir(parents=True)
    (tmp_path / "src" / "vipair" / "core.py").write_text(
        source.replace("GRAZING_TOL = 1e-8\n", "GRAZING_TOL = 1e-2\n"))
    first, second = agreement.load_core(tmp_path), agreement.load_core(tmp_path)
    assert first is not second and first.__name__ != second.__name__
    assert first.GRAZING_TOL == 1e-2 and agreement.load_core(ROOT).GRAZING_TOL == 1e-8
    rows = agreement.agreement(tmp_path, ROOT, 300)
    assert any(bad or bits for _, _, bad, _, bits, _ in rows)


def test_solver_agreement_names_a_ref_whose_core_does_not_load(monkeypatch, tmp_path):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its digest_diff import
    agreement = _load("solver_agreement")
    (tmp_path / "src" / "vipair").mkdir(parents=True)
    (tmp_path / "src" / "vipair" / "core.py").write_text("from .config import PI\n")
    with pytest.raises(SystemExit, match="^abc123: src/vipair/core.py does not load on its own"):
        agreement.check_loads("abc123", tmp_path)
    agreement.check_loads("HEAD", ROOT)


def test_solver_agreement_slow_family_runs_both_checkouts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its digest_diff import
    agreement = _load("solver_agreement")
    rows = agreement.slow_agreement(ROOT, ROOT, 50)
    assert [row[:2] for row in rows] == [(d, a) for d in agreement.D_VALUES
                                         for a in agreement.AMPLITUDES]
    assert all(row[2:] == (50, 0, 0.0, 0, 0.0) for row in rows)
    legs = agreement.slow_legs(2, 1, 300)
    assert legs["d"] == 0.26 and legs["amplitude"] == -0.7
    assert np.all(np.sign(legs["vels"]) == legs["sides"])
    assert np.all((np.abs(legs["vels"]) >= 1e-10) & (np.abs(legs["vels"]) <= 1e-3))
    assert np.all((legs["times"] >= 0.0) & (legs["times"] <= 40.0)) and legs["times"].max() > 30


def test_leg_timing_runs_both_checkouts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its digest_diff and solver_agreement imports
    timing = _load("leg_timing")
    rows = timing.timing(ROOT, ROOT, batches=((1, 3), (20, 40)), reps=2)
    assert [row[:2] for row in rows] == [(1, 3), (20, 40)]
    assert all(old > 0 and new > 0 and ratio > 0 for *_, old, new, ratio in rows)


def test_map_timing_runs_both_checkouts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its digest_diff import
    timing = _load("map_timing")
    rows = timing.timing(ROOT, ROOT, calls={layer: 2 for layer in timing.CALLS}, reps=2)
    assert [row[0] for row in rows] == list(timing.CALLS)
    assert all(old > 0 and new > 0 and ratio > 0 for _, old, new, ratio in rows)


def test_benchmark_hooks_resolve(monkeypatch):
    # the benchmark patches these names; resolving them patches nothing
    tracing = _load("tracing", ROOT / "bench")
    spec = importlib.util.spec_from_file_location("workloads", ROOT / "bench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "workloads", workloads)   # its dataclasses need it
    spec.loader.exec_module(workloads)
    hooks = [(owner, attr) for owner, attr, _, _ in tracing.PATCHES]
    for workload in workloads.workloads(ROOT / "src").values():
        assert workload.unit_hooks
        hooks += [(owner, attr) for owner, attr, _ in workload.unit_hooks]
    for owner, attr in hooks:
        assert callable(getattr(tracing._owner(owner), attr)), f"{owner} {attr}"
