"""One workload pass in a fresh process.

Sets up (imports vipair, loads and checksum-verifies the coefficient table,
parses every command's arguments), runs the workload's CLI commands in-process
through ``vipair.cli.run_command``, checks their outputs and writes a JSON
result for ``bench/run.py``.  With ``--trace 1`` the pass records spans and
work counts (see tracing.py).

    python3 bench/worker.py --workload aux-cases --trace 0 \
        --out DIR --result FILE [--spans FILE] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import sys
import time
import traceback
import warnings
from pathlib import Path

import workloads

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--result", type=Path, required=True)
    ap.add_argument("--spans", type=Path)
    ap.add_argument("--setup-only", action="store_true", help="stop after set-up")
    args = ap.parse_args()

    t0 = time.perf_counter()
    sys.path.insert(0, str(SRC))
    import numpy
    import vipair.cli
    import vipair.composite

    import tracing    # imports numpy, so only here, inside the timed set-up

    tracer = None
    if args.trace:
        tracer = tracing.Tracer()
        tracing.install(tracer)
    workload = workloads.workloads(SRC)[args.workload]
    hook_total = [0]
    for spec, attr, measure in workload.unit_hooks:
        tracing.install_unit_counter(spec, attr, measure, hook_total)
    vipair.composite.load_table()
    commands = workload.commands(args.out)
    parser = vipair.cli.build_parser()
    for cmd in commands:
        parser.parse_args(cmd.argv)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        args.result.write_text(json.dumps({"setup_s": setup_s}))
        return 0

    exit_codes, stdouts = [], []
    cpu0 = time.process_time()
    start = time.perf_counter()
    # warnings are recorded, not printed, so no stderr write lands in the timed region
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        for cmd in commands:
            captured = io.StringIO()
            try:
                with contextlib.redirect_stdout(captured):
                    exit_codes.append(vipair.cli.run_command(cmd.argv))
            except Exception:
                traceback.print_exc()
                exit_codes.append(None)
            stdouts.append(captured.getvalue())
    wall_s = time.perf_counter() - start
    cpu_s = time.process_time() - cpu0
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    failed, problems = 0, []
    for cmd, code, stdout in zip(commands, exit_codes, stdouts):
        found = [f"exit code {code}"] if code != 0 else cmd.check(cmd, stdout)
        if found:
            failed += 1
            problems += [f"{' '.join(cmd.argv[:3])}: {p}" for p in found]

    result = {
        "wall_s": wall_s, "setup_s": setup_s, "cpu_s": cpu_s, "peak_rss_mb": peak_rss_mb,
        "units": hook_total[0],
        "attempted": len(commands), "failed": failed, "problems": problems,
        "warnings": len(caught),
        "numpy": numpy.__version__,
    }
    if tracer is not None:
        result["counts"] = dict(tracer.counts)
        result["self_s"] = dict(tracer.self_s)
        if args.spans:
            tracer.write_spans(args.spans)
    args.result.write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
