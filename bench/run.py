"""vipair benchmark: run one workload for a fixed time and report its metrics.

    python3 bench/run.py --workload aux-cases --seed 1 --seconds 55 --trace 0

Run from the repository root.  Each pass runs in its own fresh child process
(bench/worker.py), one at a time, so set-up time and peak memory belong to
that pass; load comes from this one process as a closed loop with one client,
and each child runs numpy's BLAS on one thread.  Passes repeat until the pass
boundary nearest to --seconds, and at least MIN_PASSES run.

--trace 0 reports the end-to-end metrics, medians over the passes.  --trace 1
alternates traced and untraced passes and reports the per-layer metrics from
the traced ones; trace.overhead_s is traced minus untraced wall time.  Every
pass checks its outputs.  The last line of standard output is the result
JSON; the lines before it give each metric with its unit, quartiles and
pass count.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

import workloads

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".bench"

MIN_PASSES = 2          # untraced passes per --trace 0 run
MIN_TRACED = 2          # traced passes per --trace 1 run; their counts must repeat
SETUP_PROBES = 10       # extra set-up-only children per run, so setup_s is a median of many
DEADLINE_S = 170.0      # no pass may end after this, and none starts that would

END_TO_END_UNITS = {"wall_s": "s", "throughput": "units/s", "setup_s": "s",
                    "peak_rss_mb": "MiB", "success_ratio": "1"}

# Work counts that must be identical on every pass of one seed.
REPEAT_COUNTS = ("core.next_impact_batch.rows", "composite.Poly2D.elements",
                 "auxmap.wcs_step.calls", "fitting.lstsq_fit.rows")

# Span names each traced run reports with .calls and .self_s.
SPANS = (
    "core.next_impact_batch", "returnmap.sweep_surfaces",
    "composite.Poly2D", "composite.CompositeMap.step", "composite.CoeffTable.coeffs_for",
    "composite.load_table", "composite.detect_attractor",
    "auxmap.build_bound_curves", "auxmap.wcs_step", "auxmap.iterate_wcs",
    "auxmap.second_iterate_v", "auxmap.second_iterate_phase", "auxmap.iterate_updates",
    "analysis.run_case_preset", "fitting.lstsq_fit",
    "calibration.calibrate_r1", "calibration.calibrate_separable",
    "calibration.calibrate_r3", "artifacts.write", "cli.run_command",
)
# Further work counts, by metric name.
COUNTS = (
    "core.next_impact_batch.rows", "core.next_impact_batch.failed_rows",
    "returnmap.sweep_surfaces.points", "composite.Poly2D.elements",
    *(f"composite.region_visits.{r}" for r in ("R1", "R2", "R3", "R4", "R5", "RESET")),
    "auxmap.iterate_wcs.converged",
    "auxmap.iterate_updates.boxes", "auxmap.iterate_updates.escaped",
    "fitting.lstsq_fit.rows", "artifacts.write.bytes",
)

# Predictions the traced run checks and reports (they do not gate correctness:
# an optimisation is expected to move them).
BYPASSED = {"aux-cases": ("core.", "returnmap.", "fitting.", "calibration."),
            "calibrate": ("composite.Poly2D", "composite.CompositeMap", "auxmap.")}
DOMINANT = {"aux-cases": "composite.Poly2D", "calibrate": "core.next_impact_batch"}
# One BLAS thread per child: no threads beyond the one client on a small host.
ONE_THREAD = {name: "1" for name in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS",
                                     "MKL_NUM_THREADS")}


def _quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q3


def _run_pass(args, name: str, traced: bool, work: Path, started: float,
              setup_only: bool = False):
    """One child process; returns its result, or None if it failed or timed out."""
    out = work / name
    result = work / f"{name}.json"
    cmd = [sys.executable, str(BENCH / "worker.py"), "--workload", args.workload,
           "--trace", str(int(traced)), "--out", str(out),
           "--result", str(result)]
    if traced:
        cmd += ["--spans", str(SCRATCH / "spans" / f"{args.workload}.jsonl")]
    if setup_only:
        cmd.append("--setup-only")
    env = dict(os.environ, TMPDIR=str(work), **ONE_THREAD)
    try:
        proc = subprocess.run(cmd, cwd=ROOT, env=env, stdout=sys.stderr,
                              timeout=DEADLINE_S - (time.perf_counter() - started))
        ok = proc.returncode == 0 and result.is_file()
    except subprocess.TimeoutExpired:
        print(f"{name} ran past the {DEADLINE_S:.0f} s deadline", file=sys.stderr)
        ok = False
    shutil.rmtree(out, ignore_errors=True)
    return json.loads(result.read_text()) if ok else None


def _collect(args):
    """Run set-up probes, then passes until the time is up; returns
    (set-up times, untraced passes, traced passes, crashed passes)."""
    setups, untraced, traced, crashed = [], [], [], 0
    work = SCRATCH / f"work-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    started = time.perf_counter()
    longest = last = 0.0
    try:
        for k in range(0 if args.trace else SETUP_PROBES):
            probe = _run_pass(args, f"probe-{k}", False, work, started, setup_only=True)
            setups += [probe["setup_s"]] if probe else []
        for k in itertools.count():
            elapsed = time.perf_counter() - started
            enough = (len(traced) >= MIN_TRACED and untraced) if args.trace \
                else len(untraced) >= MIN_PASSES
            # stop at the pass boundary nearest to --seconds
            if (enough and elapsed + last / 2 >= args.seconds) or elapsed + longest > DEADLINE_S:
                break
            want_trace = bool(args.trace) and k % 2 == 0
            t = time.perf_counter()
            data = _run_pass(args, f"pass-{k}", want_trace, work, started)
            last = time.perf_counter() - t
            longest = max(longest, last)
            if data is None:
                crashed += 1
                if crashed >= 2:
                    break
            else:
                (traced if want_trace else untraced).append(data)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    return setups + [p["setup_s"] for p in untraced], untraced, traced, crashed


def _end_to_end(setups, untraced):
    return {
        "wall_s": [p["wall_s"] for p in untraced],
        "throughput": [p["units"] / p["wall_s"] for p in untraced],
        "setup_s": setups,
        "peak_rss_mb": [p["peak_rss_mb"] for p in untraced],
    }


def _per_layer(workload: str, untraced, traced, problems):
    counts = [p["counts"] for p in traced]
    for name in REPEAT_COUNTS:
        seen = {c.get(name, 0) for c in counts}
        if len(seen) > 1:
            problems.append(f"{name} differs between passes of one seed: {sorted(seen)}")
    first = counts[0]
    metrics = {}
    for name in SPANS:
        metrics[f"{name}.calls"] = (first.get(f"{name}.calls", 0), "count")
        metrics[f"{name}.self_s"] = (statistics.median(p["self_s"].get(name, 0.0)
                                                       for p in traced), "s")
    for name in COUNTS:
        metrics[name] = (first.get(name, 0), "bytes" if name.endswith("bytes") else "count")
    returns = first.get("returnmap.returns", 0)
    metrics["returnmap.legs_per_return"] = (
        first.get("core.next_impact_batch.rows", 0) / returns if returns else 0.0, "1")
    metrics["returnmap.other_ratio"] = (
        first.get("returnmap.other_returns", 0) / returns if returns else 0.0, "1")
    metrics["process.cpu_s"] = (statistics.median(p["cpu_s"] for p in untraced), "s")
    metrics["trace.overhead_s"] = (statistics.median(p["wall_s"] for p in traced)
                                   - statistics.median(p["wall_s"] for p in untraced), "s")
    _self_checks(workload, first, traced)
    return metrics


def _self_checks(workload: str, counts, traced):
    """Print the bypass and mechanism predictions and whether they hold."""
    prefixes = BYPASSED.get(workload, ())
    busy = sorted(n for n in SPANS if n.startswith(prefixes) and counts.get(f"{n}.calls"))
    if prefixes:
        print(f"selfcheck bypass ({', '.join(p + '*' for p in prefixes)} make no calls): "
              + ("ok" if not busy else f"FAIL, called: {busy}"))
    if workload in DOMINANT:
        self_s = {n: statistics.median(p["self_s"].get(n, 0.0) for p in traced) for n in SPANS}
        top = max(self_s, key=self_s.get)
        want = DOMINANT[workload]
        print(f"selfcheck mechanism (largest self time is {want}): "
              + ("ok" if top == want else f"FAIL, largest is {top}"))


def main() -> int:
    specs = workloads.workloads(SRC)
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(specs))
    ap.add_argument("--seed", type=int, required=True)   # no workload has free inputs yet
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not (SRC / "vipair" / "__init__.py").is_file():
        print(f"vipair sources not found under {SRC}; run from a repository checkout",
              file=sys.stderr)
        return 2

    n_commands = len(specs[args.workload].commands(SCRATCH))
    # on SIGTERM, subprocess.run kills and waits for the running child as SystemExit passes
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(1))
    load = os.getloadavg()
    print(f"machine: python {platform.python_version()}, nproc {os.cpu_count()}, "
          f"load average at start {load[0]:.2f} {load[1]:.2f} {load[2]:.2f}")
    setups, untraced, traced, crashed = _collect(args)
    passes = untraced + traced
    if not untraced or (args.trace and not traced):
        print(f"no pass of {args.workload} completed ({crashed} crashed)", file=sys.stderr)
        return 1
    print(f"numpy {passes[0]['numpy']}; {len(untraced)} untraced and {len(traced)} traced "
          f"passes of {args.workload}, seed {args.seed}, unit: {specs[args.workload].unit}")

    problems = [p for d in passes for p in d["problems"]]
    if len({p["units"] for p in passes}) > 1:
        problems.append(f"work units differ between passes: {sorted({p['units'] for p in passes})}")
    attempted = sum(p["attempted"] for p in passes) + crashed * n_commands
    failed = sum(p["failed"] for p in passes) + crashed * n_commands
    warned = sum(p["warnings"] for p in passes)
    if warned:
        print(f"{warned} warnings were recorded")

    if args.trace:
        metrics = _per_layer(args.workload, untraced, traced, problems)
        for name, (value, unit) in metrics.items():
            print(f"{name}: {value:.6g} {unit}")
    else:
        metrics = {}
        for name, values in _end_to_end(setups, untraced).items():
            q1, q3 = _quartiles(values)
            metrics[name] = (statistics.median(values), END_TO_END_UNITS[name])
            print(f"{name}: {metrics[name][0]:.6g} {END_TO_END_UNITS[name]} "
                  f"(median of N={len(values)}, quartiles {q1:.6g} .. {q3:.6g}; "
                  f"samples {' '.join(f'{v:.4g}' for v in values)})")
        metrics["success_ratio"] = (1.0 - failed / attempted, "1")
    print(f"success_ratio: {1.0 - failed / attempted:.6g} ({failed} of {attempted} "
          f"commands failed)")
    for p in problems:
        print(f"CHECK FAILED: {p}")

    print(json.dumps({
        "correct": failed == 0 and not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
