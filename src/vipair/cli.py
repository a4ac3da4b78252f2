"""Command-line surface: one subcommand per pipeline stage.

Every command writes CSV/JSON artifacts plus a gnuplot script where a
figure-style output exists, and exits nonzero with a machine-readable error
JSON on failure.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, artifacts, auxmap
from .calibration import build_calibrated_table, fit_region_maps
from .composite import TABLE_PARAMS, CompositeMap, Region, load_table
from .config import ConfigError, load_config
from .core import baseline_params
from .fitting import RankDeficientFit
from .returnmap import R1_DELTA, GridSpec, partition_by_class, r1_filter, sweep_surfaces

DEFAULT_OUT_ENV = "VIPAIR_OUT"

# Relative tolerance of a run's r, gbar and psi against the table's.  README's
# example config writes gbar = 0.2113, the baseline 0.21132... rounded to four
# digits (1.5e-4 off); 1e-3 admits such rounding and no real parameter change.
TABLE_PARAM_RTOL = 1e-3


def _run_metadata(args, **extra) -> dict:
    from . import __version__

    meta = {"command": args.command, "version": __version__}
    for key in ("d", "grid", "table", "v0", "phi0", "steps", "delta",
                "d_from", "d_to", "step", "kind", "case", "name", "updates"):
        if hasattr(args, key) and getattr(args, key) is not None:
            meta[key] = getattr(args, key)
    meta.update(extra)
    return meta


def _outdir(args) -> Path:
    out = args.out or os.environ.get(DEFAULT_OUT_ENV, "runs")
    path = Path(out)
    path.mkdir(parents=True, exist_ok=True)
    return path


def _params(args):
    if getattr(args, "config", None):
        return load_config(args.config)
    return baseline_params(args.d)


def _table_params(args, table):
    """The run's parameters, refused unless r, gbar and psi are the ones the
    table was fitted at: its metadata's base_params, else the baseline set."""
    params = _params(args)
    fitted = table.metadata.get("base_params") or vars(baseline_params(params.length))
    for key in TABLE_PARAMS:
        got, want = getattr(params, key), fitted[key]
        if not math.isclose(got, want, rel_tol=TABLE_PARAM_RTOL):
            raise ConfigError(f"{key} {got} differs from the {want} that table "
                              f"{table.name!r} was fitted at")
    return params


def _grid(spec: str, v_max: float = 1.0, phi_max: float = np.pi) -> GridSpec:
    try:
        n_v, n_phi = (int(tok) for tok in spec.lower().split("x"))
    except ValueError as err:
        raise ConfigError(f"grid must look like 200x200, got {spec!r}") from err
    return GridSpec(n_v=n_v, n_phi=n_phi, v_range=(0.0, v_max), phi_range=(0.0, phi_max))


def cmd_sweep(args) -> int:
    out = _outdir(args)
    grid = _grid(args.grid, v_max=args.v_max, phi_max=args.phi_max)
    surface = sweep_surfaces(grid, _params(args))
    artifacts.write_surface_csv(out / "surface.csv", surface)
    artifacts.write_surface_json(out / "surface.json", surface)
    artifacts.write_plot_script(out / "surface.gp", "surface.csv",
                                title=f"first-return surface d={surface.d}",
                                columns=(1, 2), xlabel="v_k", ylabel="phi_k")
    counts = {k.name: n for k, n in surface.class_counts().items()}
    print(artifacts.dumps({"written": str(out / "surface.csv"), "classes": counts}))
    return 0


def cmd_partition(args) -> int:
    out = _outdir(args)
    grid = _grid(args.grid)
    surface = sweep_surfaces(grid, _params(args))
    labels = partition_by_class(surface)
    artifacts.write_csv(out / "partition.csv", labels)
    print(artifacts.dumps({"written": str(out / "partition.csv"),
                           "shape": list(labels.shape)}))
    return 0


def cmd_r1_filter(args) -> int:
    if args.step <= 0:
        raise ConfigError(f"step must be positive, got {args.step}")
    stop = args.d_to + 1e-9
    analysis.check_d_steps(stop - args.d_from, args.step)
    d_values = [round(d, 6) for d in np.arange(args.d_from, stop, args.step)]
    if not d_values:
        raise ConfigError(f"no d values from {args.d_from} up to {args.d_to}")
    out = _outdir(args)
    grid = _grid(args.grid)
    surfaces = (sweep_surfaces(grid, baseline_params(float(d))) for d in d_values)
    points, box = r1_filter(surfaces, args.delta)
    payload = {"delta": args.delta, "d_values": d_values, "bounding_box": list(box),
               "n_points": len(points)}
    artifacts.write_json(out / "r1_filter.json", payload)
    print(artifacts.dumps(payload))
    return 0


def cmd_fit(args) -> int:
    out = _outdir(args)
    params = _params(args)
    grid = _grid(args.grid)
    surface = sweep_surfaces(grid, params)
    # the diagonal-proximity filter carves out region 1 only
    delta = args.delta if args.region == Region.R1.value else None
    fit = fit_region_maps(surface, Region(args.region), delta=delta)
    reports = {t: {"r_squared": rep.r_squared, "sse": rep.sse, "n": rep.n_samples}
               for t, rep in fit["reports"].items()}
    payload = {"region": args.region, "d": params.length, "delta": delta,
               "reports": reports}
    artifacts.write_json(out / f"fit_{args.region}.json", payload)
    print(artifacts.dumps(payload))
    return 0


def cmd_composite(args) -> int:
    if args.steps < 0:
        raise ConfigError(f"steps must be nonnegative, got {args.steps}")
    out = _outdir(args)
    table = load_table(args.table)
    cmap = CompositeMap(table=table, d=_table_params(args, table).length)
    v, phi, regions = cmap.iterate(args.v0, args.phi0, args.steps)
    artifacts.write_trajectory_csv(out / "composite_trajectory.csv", v, phi, regions)
    print(f"{'k':>4} {'v':>12} {'phi':>12}  region")
    for k in range(len(v)):
        print(f"{k:>4} {v[k]:>12.6f} {phi[k]:>12.6f}  {regions[k].value}")
    return 0


def cmd_bifurcation(args) -> int:
    out = _outdir(args)
    table = load_table(args.table) if args.kind == "composite" else None
    samples = analysis.bifurcation_scan(args.kind, args.d_from, args.d_to, args.step,
                                        table=table)
    path = artifacts.write_bifurcation_csv(out / f"bifurcation_{args.kind}.csv", samples)
    artifacts.write_plot_script(out / f"bifurcation_{args.kind}.gp", path.name,
                                title=f"bifurcation diagram ({args.kind} map)",
                                columns=(1, 2), xlabel="d", ylabel="v_k")
    pd_d = analysis.first_period_doubling(samples)
    artifacts.write_json(out / f"bifurcation_{args.kind}_meta.json",
                         _run_metadata(args, seed_state=list(analysis.DEFAULT_SEED_STATE),
                                       first_period_doubling_d=pd_d))
    print(artifacts.dumps({"written": str(path), "first_period_doubling_d": pd_d}))
    return 0


def cmd_compare(args) -> int:
    out = _outdir(args)
    ics = [(args.v0, args.phi0)]
    table = load_table(args.table)
    params = _table_params(args, table)
    d = params.length
    records = analysis.compare_exact_vs_composite(ics, params, table=table)
    path = artifacts.write_comparison_csv(out / "comparison.csv", records)
    artifacts.write_plot_script(out / "comparison.gp", path.name,
                                title=f"exact vs composite trajectories d={d}",
                                columns=(5, 6), xlabel="v_k", ylabel="phi_k")
    artifacts.write_json(out / "comparison_meta.json",
                         _run_metadata(args, d=d, initial_conditions=ics))
    print(artifacts.dumps({"written": str(path),
                           "tail_distances": [r.tail_distance for r in records]}))
    return 0


def cmd_aux_domain(args) -> int:
    if args.updates is not None and args.updates < 1:
        raise ConfigError(f"updates must be at least 1, got {args.updates}")
    out = _outdir(args)
    report = auxmap.iterate_updates(args.case, d=args.d, n_updates=args.updates,
                                    table=load_table(args.table))
    payload = artifacts.aux_report_payload(report)
    artifacts.write_json(out / "aux_report.json", payload)
    artifacts.write_widths_csv(out / "widths.csv", report)
    print(artifacts.dumps(payload["boxes"][-1] | {"statement": payload["statement"],
                                                 "escaped": payload["escaped"]}))
    return 0


def cmd_case(args) -> int:
    out = _outdir(args)
    result = analysis.run_case_preset(args.name, table=load_table(args.table))
    written = artifacts.write_case_result(out, result)
    print(artifacts.dumps({"case": args.name,
                           "classification": str(result.classification),
                           "written": [str(p) for p in written]}))
    return 0


def cmd_calibrate(args) -> int:
    table = build_calibrated_table(log=print if args.verbose else None)
    path = Path(args.out or "calibrated_coefficients.json")
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(artifacts.dumps(table.to_dict(), indent=1))
    print(artifacts.dumps({"written": str(path)}))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="vipair",
                                     description="vibro-impact pair return-map toolkit")
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, func, help, *, params=False, table=False, grid=None):
        """A subcommand with --out and, on request, --d/--config, --table and --grid."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(func=func)
        p.add_argument("--out", help=f"output directory (default ${DEFAULT_OUT_ENV} or runs/)")
        if params:
            p.add_argument("--d", type=float, default=0.35, help="dimensionless length")
            p.add_argument("--config", help="JSON run configuration")
        if table:
            p.add_argument("--table", default="calibrated")
        if grid:
            p.add_argument("--grid", default=grid)
        return p

    p = command("sweep", cmd_sweep, "sweep the first-return surfaces on a grid",
                params=True, grid="200x200")
    p.add_argument("--v-max", type=float, default=1.0)
    p.add_argument("--phi-max", type=float, default=float(np.pi))

    command("partition", cmd_partition, "class-label raster of a sweep",
            params=True, grid="200x200")

    p = command("r1-filter", cmd_r1_filter, "diagonal-proximity filter over a d range",
                grid="100x100")
    p.add_argument("--d-from", type=float, default=0.26)
    p.add_argument("--d-to", type=float, default=0.35)
    p.add_argument("--step", type=float, default=0.01)
    p.add_argument("--delta", type=float, default=R1_DELTA)

    # the separable regions R2/R4/R5 need representative curves; `calibrate`
    # refits them
    p = command("fit", cmd_fit, "refit region R1 or R3 from a sweep",
                params=True, grid="200x200")
    p.add_argument("--region", default="R1", choices=[Region.R1.value, Region.R3.value])
    p.add_argument("--delta", type=float, default=R1_DELTA,
                   help="R1 diagonal-proximity ratio")

    p = command("composite", cmd_composite, "iterate the composite map",
                params=True, table=True)
    p.add_argument("--v0", type=float, required=True)
    p.add_argument("--phi0", type=float, required=True)
    p.add_argument("--steps", type=int, default=4)

    p = command("bifurcation", cmd_bifurcation, "continuation bifurcation scan", table=True)
    p.add_argument("--kind", choices=["exact", "composite"], default="exact")
    p.add_argument("--d-from", type=float, default=0.36)
    p.add_argument("--d-to", type=float, default=0.25)
    p.add_argument("--step", type=float, default=0.001)

    p = command("compare", cmd_compare, "exact vs composite trajectories",
                params=True, table=True)
    p.add_argument("--v0", type=float, default=0.2)
    p.add_argument("--phi0", type=float, default=0.1)

    p = command("aux-domain", cmd_aux_domain, "auxiliary-map attracting-domain updates",
                table=True)
    p.add_argument("--case", choices=list(auxmap.CASES), required=True)
    p.add_argument("--d", type=float)
    p.add_argument("--updates", type=int)

    p = command("case", cmd_case, "full preset: trajectory + aux domain + reports", table=True)
    p.add_argument("--name", choices=list(auxmap.CASES), required=True)

    p = sub.add_parser("calibrate", help="regenerate the coefficient table from the exact map")
    p.add_argument("--out", help="output file (default calibrated_coefficients.json)")
    p.add_argument("--verbose", action="store_true")
    p.set_defaults(func=cmd_calibrate)

    return parser


def run_command(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        for key, value in vars(args).items():
            if isinstance(value, float) and not math.isfinite(value):
                raise ConfigError(f"--{key.replace('_', '-')} must be finite, got {value}")
        return args.func(args)
    except (ConfigError, OSError, ValueError, MemoryError, RankDeficientFit) as err:
        print(artifacts.dumps({"error": type(err).__name__, "message": str(err)}),
              file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(run_command())


if __name__ == "__main__":
    main()
