"""CSV/JSON artifact writers and plot-script emission.

Numbers serialize with 17 significant digits so every double round-trips;
JSON is strict, with every non-finite number written as null; plot scripts
are plain gnuplot files referencing the data artifacts, with no timestamps
so identical runs produce identical bytes.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np

from .analysis import BifurcationSample, CaseResult, ComparisonRecord
from .auxmap import UpdateReport
from .returnmap import ReturnClass, SurfaceData

FLOAT_FMT = "%.17g"


def _fmt(x) -> str:
    return FLOAT_FMT % float(x)      # NaN prints as "nan"


def _strict(obj):
    """obj with numpy values as Python ones and non-finite floats as None."""
    if isinstance(obj, (np.ndarray, np.generic)):
        obj = obj.tolist()
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(x) for x in obj]
    if isinstance(obj, float) and not math.isfinite(obj):
        return None
    return obj


def dumps(payload, **kwargs) -> str:
    """Strict JSON text of payload: NaN and infinities become null."""
    return json.dumps(_strict(payload), allow_nan=False, **kwargs)


def write_json(path: Path, payload: dict):
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(dumps(payload, indent=1))
    return path


def _write_csv(path: Path, rows):
    """Write rows (the header first, if any) as one CSV file."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    return path


def write_surface_csv(path: Path, surface: SurfaceData):
    """Columns: v_k, phi_k, class, v_next, phi_next, n_intermediate."""
    rows = [["v_k", "phi_k", "class", "v_next", "phi_next", "n_intermediate"]]
    for i in range(len(surface)):
        ok = not np.isnan(surface.v_out[i])
        rows.append([
            _fmt(surface.v_in[i]), _fmt(surface.phi_in[i]),
            ReturnClass(surface.klass[i]).name,
            _fmt(surface.v_out[i]) if ok else "",
            _fmt(surface.phi_out[i]) if ok else "",
            int(surface.n_intermediate[i]),
        ])
    return _write_csv(path, rows)


def write_surface_json(path: Path, surface: SurfaceData):
    payload = {
        "params": vars(surface.params),
        "grid": vars(surface.grid),
        "class_counts": {k.name: n for k, n in surface.class_counts().items()},
    }
    return write_json(path, payload)


def write_partition_csv(path: Path, labels: np.ndarray):
    """Label matrix raster, one grid row per line."""
    return _write_csv(path, labels)


def write_trajectory_csv(path: Path, v, phi, regions):
    return _write_csv(path, [["k", "v", "phi", "region"]] + [
        [k, _fmt(a), _fmt(b), r.value] for k, (a, b, r) in enumerate(zip(v, phi, regions))])


def write_bifurcation_csv(path: Path, samples: list[BifurcationSample]):
    rows = [["d", "v", "phi", "classification"]]
    for s in samples:
        label = str(s.classification) if s.classification else "GAP"
        rows += [[_fmt(s.d), _fmt(a), _fmt(b), label] for a, b in zip(s.tail_v, s.tail_phi)]
        if not len(s.tail_v):
            rows.append([_fmt(s.d), "", "", label])
    return _write_csv(path, rows)


def write_comparison_csv(path: Path, records: list[ComparisonRecord]):
    rows = [["d", "v0", "phi0", "k", "exact_v", "exact_phi",
             "composite_v", "composite_phi", "region", "tail_distance"]]
    for rec in records:
        for k in range(min(len(rec.exact_v), len(rec.composite_v))):
            rows.append([
                _fmt(rec.d), _fmt(rec.v0), _fmt(rec.phi0), k,
                _fmt(rec.exact_v[k]), _fmt(rec.exact_phi[k]),
                _fmt(rec.composite_v[k]), _fmt(rec.composite_phi[k]),
                rec.composite_regions[k].value, _fmt(rec.tail_distance),
            ])
    return _write_csv(path, rows)


def aux_report_payload(report: UpdateReport) -> dict:
    payload = {
        "case": report.case,
        "d": report.d,
        "statement": report.statement_case,
        "crossing_detected": report.crossing_detected,
        "escaped": report.escaped,
        "boxes": [
            {"N": n, "v": [b.v_min, b.v_max], "phi": [b.phi_min, b.phi_max],
             "widths": list(b.widths)}
            for n, b in enumerate(report.boxes, 1)
        ],
    }
    if report.two_cycle:
        payload["two_cycle"] = vars(report.two_cycle)
    return payload


def write_aux_report(path: Path, report: UpdateReport):
    return write_json(path, aux_report_payload(report))


def write_widths_csv(path: Path, report: UpdateReport):
    return _write_csv(path, [["N", "v_width", "phi_width"]] + [
        [int(row[0]), _fmt(row[1]), _fmt(row[2])] for row in report.widths_table()])


def write_case_result(outdir: Path, result: CaseResult):
    """Trajectory CSV, aux report JSON, width table CSV and plot scripts."""
    outdir = Path(outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    traj = write_trajectory_csv(outdir / "trajectory.csv", result.trajectory_v,
                                result.trajectory_phi, result.trajectory_regions)
    rep = write_aux_report(outdir / "aux_report.json", result.aux_report)
    widths = write_widths_csv(outdir / "widths.csv", result.aux_report)
    plots = [
        write_plot_script(outdir / "trajectory.gp", traj.name,
                          title=f"case {result.aux_report.case} trajectory",
                          columns=(2, 3), xlabel="v_k", ylabel="phi_k"),
        write_plot_script(outdir / "widths.gp", widths.name,
                          title=f"case {result.aux_report.case} box widths",
                          columns=(1, 2), xlabel="N", ylabel="width",
                          extra=["set logscale y"]),
    ]
    return [traj, rep, widths, *plots]


def write_plot_script(path: Path, data_file: str, *, title: str,
                      columns: tuple[int, int], xlabel: str, ylabel: str,
                      extra: list[str] | None = None):
    """A minimal gnuplot script next to its data artifact."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    lines = [
        f'set title "{title}"',
        f'set xlabel "{xlabel}"',
        f'set ylabel "{ylabel}"',
        "set datafile separator comma",
        *(extra or []),
        f'plot "{data_file}" every ::1 using {columns[0]}:{columns[1]} with points notitle',
    ]
    path.write_text("\n".join(lines) + "\n")
    return path
