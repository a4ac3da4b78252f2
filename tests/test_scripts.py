import ast
import importlib.util
import shutil
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


# Top-level package names and methods that nothing in src/ uses, each kept on purpose.
REFERENCE_ORACLES = {
    "_flow": "the closed-form flight that tests check the event solver against",
}


def test_names_src_never_uses_are_the_reference_oracles():
    labels = [line.split()[-1] for line in _load("unused_params").unreferenced()]
    assert sorted(labels) == sorted(REFERENCE_ORACLES)


def test_census_flags_a_method_nothing_reads(tmp_path, monkeypatch):
    package = tmp_path / "src" / "pkg"
    package.mkdir(parents=True)
    (package / "mod.py").write_text(
        "class Thing:\n"
        "    def __init__(self):\n"
        "        self.n = 1\n"
        "\n"
        "    def used(self):\n"
        "        return self.size\n"
        "\n"
        "    @property\n"
        "    def size(self):\n"
        "        return self.n\n"
        "\n"
        "    def unread(self):\n"
        "        return 2\n"
        "\n"
        "\n"
        "def main():\n"
        "    return Thing().used()\n"
        "\n"
        "\n"
        "if __name__ == '__main__':\n"
        "    main()\n")
    census = _load("unused_params")
    monkeypatch.setattr(census, "ROOT", tmp_path)
    monkeypatch.setattr(census, "PACKAGE", package)
    assert census.unreferenced() == ["src/pkg/mod.py:12  Thing.unread"]


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


def test_digest_flags_non_strict_json(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "ok.json").write_text('{"x": null}')
    (tmp_path / "run" / "bad.json").write_text('{"x": NaN}')
    (tmp_path / "run" / "stdout.txt").write_text('  k  v\n{"d": [Infinity]}\n')
    (tmp_path / "run" / "data.csv").write_text("nan\n")
    assert _load("artifact_digest").non_strict_json(tmp_path) == ["run/bad.json",
                                                                 "run/stdout.txt"]


def test_solver_agreement_runs_both_checkouts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its refs import
    agreement = _load("solver_agreement")
    rows = agreement.agreement(agreement.load_package(ROOT, "HEAD"),
                               agreement.load_package(ROOT, "HEAD"), 300)
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
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its refs import
    agreement = _load("solver_agreement")
    source = (ROOT / "src" / "vipair" / "core.py").read_text()
    assert source.count("GRAZING_TOL = 1e-8\n") == 1
    shutil.copytree(ROOT / "src" / "vipair", tmp_path / "src" / "vipair",
                    ignore=shutil.ignore_patterns("__pycache__"))
    (tmp_path / "src" / "vipair" / "core.py").write_text(
        source.replace("GRAZING_TOL = 1e-8\n", "GRAZING_TOL = 1e-2\n"))
    first, second = (agreement.load_package(tmp_path, "edited") for _ in range(2))
    here = agreement.load_package(ROOT, "HEAD")
    assert first is not second and first.__name__ != second.__name__
    assert first.core.GRAZING_TOL == 1e-2 and here.core.GRAZING_TOL == 1e-8
    rows = agreement.agreement(first, here, 300)
    assert any(bad or bits for _, _, bad, _, bits, _ in rows)


def test_load_package_names_a_ref_that_does_not_load(tmp_path):
    refs = _load("refs")
    (tmp_path / "src" / "vipair").mkdir(parents=True)
    (tmp_path / "src" / "vipair" / "__init__.py").write_text("")
    (tmp_path / "src" / "vipair" / "core.py").write_text("from .config import PI\n")
    with pytest.raises(SystemExit, match="^abc123: src/vipair does not load"):
        refs.load_package(tmp_path, "abc123")
    package = refs.load_package(ROOT, "HEAD")
    assert package.core.GRAZING_TOL == 1e-8 and package.cli.main


def test_ref_checkout_names_an_unknown_ref():
    refs = _load("refs")
    with pytest.raises(SystemExit) as stop:
        with refs.ref_checkout("nosuchref"):
            pass
    message = str(stop.value.code)
    assert message.startswith("nosuchref: git archive failed: ") and "\n" not in message
    assert "fatal: " in message   # git's own message


def test_solver_agreement_slow_family_runs_both_checkouts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its refs import
    agreement = _load("solver_agreement")
    package = agreement.load_package(ROOT, "HEAD")
    rows = agreement.slow_agreement(package, package, 50)
    assert [row[:2] for row in rows] == [(d, a) for d in agreement.D_VALUES
                                         for a in agreement.AMPLITUDES]
    assert all(row[2:] == (50, 0, 0.0, 0, 0.0) for row in rows)
    legs = agreement.slow_legs(2, 1, 300)
    assert legs["d"] == 0.26 and legs["amplitude"] == -0.7
    assert np.all(np.sign(legs["vels"]) == legs["sides"])
    assert np.all((np.abs(legs["vels"]) >= 1e-10) & (np.abs(legs["vels"]) <= 1e-3))
    assert np.all((legs["times"] >= 0.0) & (legs["times"] <= 40.0)) and legs["times"].max() > 30


def test_leg_timing_runs_both_checkouts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its refs and solver_agreement imports
    timing = _load("map_timing")
    rows = timing.timing(timing.load_package(ROOT, "HEAD"), timing.load_package(ROOT, "HEAD"),
                         calls={"leg-1": 3, "leg-6144": 40}, reps=2)
    assert [row[0] for row in rows] == ["leg-1", "leg-6144"]
    assert all(old > 0 and new > 0 and ratio > 0 for _, old, new, ratio in rows)


def test_map_timing_runs_both_checkouts(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))   # for its refs and solver_agreement imports
    timing = _load("map_timing")
    package = timing.load_package(ROOT, "HEAD")
    rows = timing.timing(package, timing.load_package(ROOT, "HEAD"),
                         calls={layer: 2 for layer in timing.CALLS}, reps=2)
    assert [row[0] for row in rows] == list(timing.CALLS)
    assert all(old > 0 and new > 0 and ratio > 0 for _, old, new, ratio in rows)
    # a leg layer solves its legs in calls of its batch size
    passes = timing.passes(package, {"leg-1": 3, "leg-6144": 2})
    assert [len(passes["leg-1"]), len(passes["leg-6144"])] == [3, 1]
    assert [out[0].size for out in (passes["leg-1"][0](), passes["leg-6144"][0]())] == [1, 2]
    # the iterate layer runs the three case trajectories in full
    single = timing.layers(package)
    assert [len(v) for v, _, _ in single["iterate"]()] == [401] * 3
    # the exact-step layer is one exact return, one-row _sweep_points where
    # a checkout has no ExactMap
    v, phi, klass = single["exact-step"]()
    del package.analysis.ExactMap
    row = timing.layers(package)["exact-step"]()
    assert (row.v_out[0], row.phi_out[0], row.klass[0]) == (v, phi, klass)


def test_transcribe_supplement_writes_the_shipped_table(monkeypatch):
    monkeypatch.setattr(sys, "path", [*sys.path])   # the script puts src/ on it
    text = _load("transcribe_supplement").table_text()
    shipped = ROOT / "src" / "vipair" / "data" / "supplement_coefficients.json"
    assert text.encode() == shipped.read_bytes()


def test_every_script_is_loaded_by_a_test():
    loaded = set()
    for test in ast.parse(Path(__file__).read_text()).body:
        if isinstance(test, ast.FunctionDef) and test.name.startswith("test_"):
            loaded |= {node.args[0].value for node in ast.walk(test)
                       if isinstance(node, ast.Call) and getattr(node.func, "id", "") == "_load"}
    assert sorted({path.stem for path in SCRIPTS.glob("*.py")} - loaded) == []


def test_every_golden_record_is_read_by_a_test():
    # a record that no test names could linger, stale, after its test goes
    named = set()
    for module in (ROOT / "tests").glob("*.py"):
        named |= {node.value for node in ast.walk(ast.parse(module.read_text()))
                  if isinstance(node, ast.Constant) and isinstance(node.value, str)}
    records = {path.name for path in (ROOT / "tests" / "golden").rglob("*") if path.is_file()}
    assert records and sorted(records - named) == []


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
