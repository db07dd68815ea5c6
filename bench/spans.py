"""Spans around calls into seqsurv's public functions, for the traced run.

The tracer replaces public names where the program looks them up (for
example ``seqsurv.sim.compare_sp``, ``seqsurv.adjusted.fit_mple`` and
``SequentialMonitor.step``) with wrappers that record one span per call:
name, start, end, parent span and the unit (replicate or look) it belongs
to.  Spans stay in memory until the run ends.  Nothing is installed outside
``Tracer.active()``, so untraced runs call the program unchanged.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import json
import time
from collections import Counter, defaultdict
from pathlib import Path

import seqsurv
import seqsurv.adjusted
import seqsurv.comparators
import seqsurv.gsdesign
import seqsurv.sim

LAYERS = ("data", "cox", "adjusted", "comparators", "gsdesign", "sim")

# (owner, attribute, span name).  Names are "<defining module>.<function>".
_TARGETS = (
    (seqsurv, "run_oc", "sim.run_oc"),
    (seqsurv, "calibrate_analysis_times", "sim.calibrate_analysis_times"),
    (seqsurv, "build_design", "sim.build_design"),
    (seqsurv.sim, "generate_columns", "sim.generate_columns"),
    (seqsurv, "ingest_csv", "data.ingest_csv"),
    (seqsurv, "to_columns", "data.to_columns"),
    (seqsurv, "snapshot", "data.snapshot"),
    (seqsurv.sim, "snapshot", "data.snapshot"),
    (seqsurv, "compare_sp", "adjusted.compare_sp"),
    (seqsurv.sim, "compare_sp", "adjusted.compare_sp"),
    (seqsurv.adjusted, "variance_components", "adjusted.variance_components"),
    (seqsurv.adjusted, "fit_mple", "cox.fit_mple"),
    (seqsurv.comparators, "fit_mple", "cox.fit_mple"),
    (seqsurv, "km_compare", "comparators.km_compare"),
    (seqsurv.sim, "km_compare", "comparators.km_compare"),
    (seqsurv, "cox_wald", "comparators.cox_wald"),
    (seqsurv.sim, "cox_wald", "comparators.cox_wald"),
    (seqsurv, "boundaries", "gsdesign.boundaries"),
    (seqsurv.sim, "boundaries", "gsdesign.boundaries"),
    (seqsurv.gsdesign.SequentialMonitor, "step", "gsdesign.step"),
    (seqsurv.gsdesign.MonitoringState, "rebuild_monitor", "gsdesign.rebuild_monitor"),
    (seqsurv, "monitor", "gsdesign.monitor"),
    (seqsurv, "design_from_text", "gsdesign.design_from_text"),
    (seqsurv, "state_from_text", "gsdesign.state_from_text"),
    (seqsurv, "state_to_text", "gsdesign.state_to_text"),
)

_GENERATE_SIGNATURE = inspect.signature(seqsurv.sim.generate_columns)
_START, _END, _ERROR = 1, 2, 5
SETUP_UNIT = "setup"


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []   # [name, start_ns, end_ns, parent index, unit, error class]
        self.unit = ""                # label given to spans that start from now on
        self.newton_iterations = 0
        self.fits_returned = 0
        self._stack: list[int] = []

    def _wrap(self, name: str, fn):
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if name == "sim.generate_columns":
                bound = _GENERATE_SIGNATURE.bind(*args, **kwargs).arguments
                self.unit = f"replicate {bound['seed']}:{bound.get('replicate', 0)}"
            idx = len(spans)
            spans.append([name, 0, 0, stack[-1] if stack else -1, self.unit, None])
            stack.append(idx)
            start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            except Exception as exc:
                spans[idx][_ERROR] = type(exc).__name__
                raise
            finally:
                spans[idx][_END] = time.perf_counter_ns()
                spans[idx][_START] = start
                stack.pop()
            if name == "cox.fit_mple":
                self.newton_iterations += result.iterations
                self.fits_returned += 1
            return result

        return wrapper

    @contextlib.contextmanager
    def active(self):
        saved = [(owner, attr, owner.__dict__[attr]) for owner, attr, _ in _TARGETS]
        try:
            for owner, attr, name in _TARGETS:
                setattr(owner, attr, self._wrap(name, owner.__dict__[attr]))
            yield self
        finally:
            for owner, attr, original in reversed(saved):
                setattr(owner, attr, original)

    def write(self, path: Path) -> None:
        path.write_text(
            json.dumps({"fields": ["name", "start_ns", "end_ns", "parent", "unit", "error"],
                        "spans": self.spans}),
            encoding="utf-8",
        )

    def summary(self) -> dict:
        """Per-name totals: calls, inclusive ns, self ns; plus root time and errors."""
        calls: Counter = Counter()
        total: Counter = Counter()
        child: Counter = Counter()
        for name, start, end, parent, _, _ in self.spans:
            calls[name] += 1
            total[name] += end - start
            if parent >= 0:
                child[parent] += end - start
        self_ns: Counter = Counter()
        root_ns = 0
        gsdesign_self_ns = 0
        errors: dict[str, Counter] = defaultdict(Counter)
        for idx, (name, start, end, parent, unit, error) in enumerate(self.spans):
            own = end - start - child[idx]
            self_ns[name] += own
            if unit == SETUP_UNIT:
                continue
            if parent < 0:
                root_ns += end - start
            if name.startswith("gsdesign."):
                gsdesign_self_ns += own
            if error is not None:
                errors[name.split(".", 1)[0]][error] += 1
        return {
            "calls": calls, "total_ns": total, "self_ns": self_ns, "root_ns": root_ns,
            "gsdesign_self_ns": gsdesign_self_ns, "errors": errors,
        }


def layer_metrics(tracer: Tracer, units: int, tied_fraction: float, spending_gap_max: float,
                  overhead_fraction: float) -> tuple[dict, dict]:
    """The per-layer metrics BENCHMARK.json declares, and the error classes.

    ``units`` is the number of traced replicates (or analysis stages); call
    counts are reported per unit so that runs of different length compare.
    """
    s = tracer.summary()
    calls, total, self_ns = s["calls"], s["total_ns"], s["self_ns"]

    def per_call(name: str, ns: Counter) -> float:
        return ns[name] / calls[name] / 1e6 if calls[name] else 0.0

    values = {
        "gsdesign.step.calls": calls["gsdesign.step"] / units,
        "gsdesign.step.ms_per_call": per_call("gsdesign.step", total),
        "gsdesign.share": s["gsdesign_self_ns"] / s["root_ns"] if s["root_ns"] else 0.0,
        "gsdesign.rebuild_monitor.ms_per_call": per_call("gsdesign.rebuild_monitor", total),
        "gsdesign.boundaries.ms": per_call("gsdesign.boundaries", total),
        "gsdesign.spending_gap_max": spending_gap_max,
        "cox.fit_mple.calls": calls["cox.fit_mple"] / units,
        "cox.fit_mple.ms_per_call": per_call("cox.fit_mple", total),
        "cox.newton_iters_per_fit": (
            tracer.newton_iterations / tracer.fits_returned if tracer.fits_returned else 0.0
        ),
        "adjusted.compare_sp.self_ms_per_call": per_call("adjusted.compare_sp", self_ns),
        "adjusted.variance_components.ms_per_call": per_call("adjusted.variance_components", total),
        "comparators.km_compare.ms_per_call": per_call("comparators.km_compare", total),
        "comparators.cox_wald.self_ms_per_call": per_call("comparators.cox_wald", self_ns),
        "data.ingest_csv.ms_per_call": per_call("data.ingest_csv", total),
        "data.to_columns.ms_per_call": per_call("data.to_columns", total),
        "data.snapshot.ms_per_call": per_call("data.snapshot", total),
        "data.tied_event_fraction": tied_fraction,
        "sim.generate_columns.ms_per_call": per_call("sim.generate_columns", total),
        "sim.run_oc.self_ms": per_call("sim.run_oc", self_ns),
        "trace.overhead_fraction": overhead_fraction,
    }
    for layer in LAYERS:
        values[f"{layer}.errors"] = sum(s["errors"][layer].values())
    return values, {layer: dict(s["errors"][layer]) for layer in LAYERS if s["errors"][layer]}
