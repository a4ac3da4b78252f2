import importlib.util
from pathlib import Path

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def _load(name: str):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
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
    "r1_filter.surfaces": "the filter tests vary delta on one sweep, not one per delta",
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
