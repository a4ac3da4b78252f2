import importlib.util
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SCRIPTS = ROOT / "scripts"


def _load(name: str, folder: Path = SCRIPTS):
    spec = importlib.util.spec_from_file_location(name, folder / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_no_unused_defaulted_parameters():
    # the three psi/base parameters stay for fitting the paper's operating point
    labels = [line.split()[-1] for line in _load("unused_params").unused()]
    assert labels == ["build_calibrated_table.base", "baseline_params.psi",
                      "nondimensionalize.psi"]


# Defaulted parameters that only tests set, each a seam kept on purpose.
TEST_ONLY_SEAMS = {
    "compare_exact_vs_composite.n_steps": "the comparison tests run 80 to 300 returns",
    "flow_between_impacts.amplitude": "forcing off for the closed-form oracle tests",
    "next_impact.amplitude": "forcing off for the oracle tests and criterion 8",
}


def test_parameters_only_tests_set_are_the_kept_seams():
    labels = [line.split()[-1] for line in _load("unused_params").set_only_by_tests()]
    assert sorted(labels) == sorted(TEST_ONLY_SEAMS)


def test_digest_flags_non_strict_json(tmp_path):
    (tmp_path / "run").mkdir()
    (tmp_path / "run" / "ok.json").write_text('{"x": null}')
    (tmp_path / "run" / "bad.json").write_text('{"x": NaN}')
    (tmp_path / "run" / "stdout.txt").write_text('  k  v\n{"d": [Infinity]}\n')
    (tmp_path / "run" / "data.csv").write_text("nan\n")
    assert _load("artifact_digest").non_strict_json(tmp_path) == ["run/bad.json",
                                                                 "run/stdout.txt"]


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
