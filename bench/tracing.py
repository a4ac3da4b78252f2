"""Span recorder for the traced benchmark run.

Each public entry point of a vipair layer is replaced, where its caller looks
it up, by a wrapper that records a span (name, start, end, parent) and the
work counts named in ``bench/NOTES.md``.  Spans are kept in memory and
written out when the pass ends.  A layer's self time is its span duration
minus the time its child spans cover; the time the wrappers spend counting
work is charged to no layer.
"""

from __future__ import annotations

import importlib
import json
from collections import Counter, defaultdict
from pathlib import Path
from time import perf_counter

import numpy as np


class Tracer:
    def __init__(self):
        self.spans: list[tuple[str, float, float, int]] = []
        self.counts: Counter = Counter()
        self.self_s: defaultdict = defaultdict(float)
        self._open: list[int] = []        # span indices, innermost last
        self._covered: list[float] = []   # child time of each open span

    def wrap(self, name, fn, count=None):
        """Wrap fn in a span called name; count(counts, args, result) adds
        the work counts of one call."""
        spans, counts, self_s = self.spans, self.counts, self.self_s
        opened, covered = self._open, self._covered

        def traced(*args, **kwargs):
            parent = opened[-1] if opened else -1
            index = len(spans)
            spans.append((name, 0.0, 0.0, parent))
            opened.append(index)
            covered.append(0.0)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                opened.pop()
                self_s[name] += end - start - covered.pop()
                spans[index] = (name, start, end, parent)
                counts[name + ".calls"] += 1
                if covered:
                    covered[-1] += end - start
            if count is not None:
                count(counts, args, result)
                if covered:    # counting is charged to no layer
                    covered[-1] += perf_counter() - end
            return result

        traced.__wrapped__ = fn
        traced.__name__ = getattr(fn, "__name__", name)
        return traced

    def write_spans(self, path: Path):
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as fh:
            for name, start, end, parent in self.spans:
                fh.write(json.dumps([name, start, end, parent]) + "\n")


def _count_batch(counts, args, result):
    status = result[3]
    counts["core.next_impact_batch.rows"] += len(status)
    counts["core.next_impact_batch.failed_rows"] += int(np.count_nonzero(status))


def _count_surface(counts, args, surface):
    n = len(surface)
    counts["returnmap.sweep_surfaces.points"] += n
    counts["returnmap.returns"] += n
    counts["returnmap.other_returns"] += int(np.isnan(surface.v_out).sum())


def _count_elements(counts, args, out):
    counts["composite.Poly2D.elements"] += int(np.size(out))


def _count_region(counts, args, result):
    counts["composite.region_visits." + result[2].value] += 1


def _count_converged(counts, args, history):
    counts["auxmap.iterate_wcs.converged"] += int(history.converged)


def _count_updates(counts, args, report):
    counts["auxmap.iterate_updates.boxes"] += len(report.boxes)
    counts["auxmap.iterate_updates.escaped"] += int(report.escaped)


def _count_lstsq(counts, args, result):
    counts["fitting.lstsq_fit.rows"] += int(args[0].shape[0])


# (object the caller looks the function up on, attribute, span name, counter)
PATCHES = [
    ("vipair.returnmap", "next_impact_batch", "core.next_impact_batch", _count_batch),
    ("vipair.cli", "sweep_surfaces", "returnmap.sweep_surfaces", _count_surface),
    ("vipair.calibration", "sweep_surfaces", "returnmap.sweep_surfaces", _count_surface),
    ("vipair.calibration", "_sweep_points", "returnmap.sweep_surfaces", _count_surface),
    ("vipair.composite:Poly2D", "__call__", "composite.Poly2D", _count_elements),
    ("vipair.composite:CompositeMap", "step", "composite.CompositeMap.step", _count_region),
    ("vipair.composite:CoeffTable", "coeffs_for", "composite.CoeffTable.coeffs_for", None),
    ("vipair.composite", "load_table", "composite.load_table", None),
    ("vipair.cli", "load_table", "composite.load_table", None),
    ("vipair.analysis", "load_table", "composite.load_table", None),
    ("vipair.auxmap", "load_table", "composite.load_table", None),
    ("vipair.analysis", "detect_attractor", "composite.detect_attractor", None),
    ("vipair.auxmap", "build_bound_curves", "auxmap.build_bound_curves", None),
    ("vipair.auxmap", "wcs_step", "auxmap.wcs_step", None),
    ("vipair.auxmap", "iterate_wcs", "auxmap.iterate_wcs", _count_converged),
    ("vipair.auxmap", "second_iterate_v", "auxmap.second_iterate_v", None),
    ("vipair.auxmap", "second_iterate_phase", "auxmap.second_iterate_phase", None),
    ("vipair.auxmap", "iterate_updates", "auxmap.iterate_updates", _count_updates),
    ("vipair.analysis", "run_case_preset", "analysis.run_case_preset", None),
    ("vipair.fitting", "lstsq_fit", "fitting.lstsq_fit", _count_lstsq),
    ("vipair.calibration", "calibrate_r1", "calibration.calibrate_r1", None),
    ("vipair.calibration", "calibrate_separable", "calibration.calibrate_separable", None),
    ("vipair.calibration", "calibrate_r3", "calibration.calibrate_r3", None),
    ("vipair.cli", "run_command", "cli.run_command", None),
]


def _owner(spec: str):
    module, _, cls = spec.partition(":")
    obj = importlib.import_module(module)
    return getattr(obj, cls) if cls else obj


def install(tracer: Tracer):
    """Patch every traced entry point, including each artifacts writer."""
    for spec, attr, name, count in PATCHES:
        owner = _owner(spec)
        setattr(owner, attr, tracer.wrap(name, getattr(owner, attr), count))
    artifacts = importlib.import_module("vipair.artifacts")
    for attr in [a for a in vars(artifacts) if a.startswith("write_")]:
        setattr(artifacts, attr, tracer.wrap("artifacts.write", getattr(artifacts, attr),
                                             _artifact_bytes_counter(tracer)))


def _artifact_bytes_counter(tracer: Tracer):
    def count(counts, args, written):
        # nested writers (write_case_result -> write_json ...) count their bytes once
        if tracer._open and tracer.spans[tracer._open[-1]][0] == "artifacts.write":
            return
        paths = written if isinstance(written, list) else [written]
        counts["artifacts.write.bytes"] += sum(Path(p).stat().st_size for p in paths)
    return count


def install_unit_counter(spec: str, attr: str, measure, totals: list):
    """Count throughput units at one call site without recording spans:
    totals[0] grows by measure(result) per call."""
    owner = _owner(spec)
    fn = getattr(owner, attr)

    def counted(*args, **kwargs):
        result = fn(*args, **kwargs)
        totals[0] += measure(result)
        return result

    setattr(owner, attr, counted)
