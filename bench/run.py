"""seqsurv benchmark: three closed-loop workloads, each driven by one client
that waits for every result.  See bench/README.md for what each workload is
for and which layer metric should move which end-to-end metric.

Run from the repository root:

    python3 bench/run.py --workload oc_nph_null --seed 1 --seconds 30 --trace 0

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` additionally
runs every timed unit under the tracer and prints the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.  Spans, the
environment and every extra figure go to ``.bench_work/``.
"""

from __future__ import annotations

import argparse
import hashlib
import itertools
import json
import os
import platform
import random
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

ROOT = Path.cwd()
BENCH = Path(__file__).resolve().parent
WORK = ROOT / ".bench_work"
WORKLOADS = ("oc_nph_null", "calib_nph_null", "interim_ties")
SETUP_PROBES = 3
# Workloads whose units are scaled to the reference core (speed.py).  The
# kernel tracks their single-process Python and small-array work.  It does
# not track oc_nph_null, whose time is grid integration on 4001-point arrays
# in one or two processes: in five-seed trials, scaling doubled that
# workload's run-to-run spread.
SCALED_UNITS = ("calib_nph_null", "interim_ties")


def import_program():
    """Import seqsurv from this checkout's src/, and nowhere else."""
    package = ROOT / "src" / "seqsurv"
    if not (package / "__init__.py").is_file():
        sys.exit(f"error: {package} not found; run from the root of a seqsurv checkout")
    sys.path.insert(0, str(ROOT / "src"))
    import seqsurv

    if Path(seqsurv.__file__).resolve().parent != package.resolve():
        sys.exit(f"error: imported seqsurv from {seqsurv.__file__}, not from {package}")
    return seqsurv


def environment() -> dict:
    import ctypes

    import numpy as np
    import scipy

    blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
    threads = None
    with open("/proc/self/maps", encoding="utf-8") as fh:
        libs = {ln.split()[-1] for ln in fh if "openblas" in ln.lower() and "/" in ln}
    for lib in sorted(libs):
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(ctypes.CDLL(lib), symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                threads = fn()
                break
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, timeout=10).stdout.strip() or None
    except OSError:
        sha = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src" / "seqsurv").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_default": threads,
        "git_sha": sha,
        "source_sha256": digest.hexdigest(),
    }


def measure_setup(workload: str, speed) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_PROBES fresh interpreters, on the reference
    core (see speed.py) and unscaled."""
    scaled, raw = [], []
    for _ in range(SETUP_PROBES):
        _, _, out = speed.measure(lambda: subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), workload, str(WORK)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        ))
        raw.append(float(out.stdout.split()[-1]))
        scaled.append(speed.scale(raw[-1]))
    return scaled, raw


def unit_seeds(seed: int, reserved: int):
    rng = random.Random(seed)
    while True:
        s = rng.randrange(1, 2**31)
        if s != reserved:
            yield s


def quantile(samples: list[float], p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump when
    the quantile falls between two clusters of samples, as the median of
    interim_ties does (looks 3 and 4 replay different numbers of stages)."""
    from scipy.special import betainc

    xs = np.sort(samples)
    n = xs.size
    edges = betainc(p * (n + 1), (1 - p) * (n + 1), np.arange(n + 1) / n)
    return float(np.diff(edges) @ xs)


def tail(samples: list[float]) -> tuple[float, float]:
    """Estimate at the highest percentile with at least ten samples above it,
    and that percentile; the maximum when that percentile would not exceed
    the median."""
    n = len(samples)
    if n - 11 <= n // 2:
        return max(samples), 100.0
    p = (n - 10) / n
    return quantile(samples, p), 100.0 * p


class Run:
    """Counts, problems and figures of one benchmark run."""

    def __init__(self, args, reference: dict, tracer, speed=None) -> None:
        self.args = args
        self.ref = reference
        self.tracer = tracer
        self.speed = speed
        self.raw: dict[str, list[float]] = {}   # unscaled seconds of timed units
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []   # output checks that failed
        self.errors: list[str] = []     # units that raised
        self.extra: dict = {}
        self.workers = [1]              # worker counts the run measured

    def check(self, label: str, messages: list[str]) -> None:
        self.attempted += 1
        if messages:
            self.failed += 1
            self.problems += [f"{label}: {m}" for m in messages]

    def units(self, attempted: int, failed: int) -> None:
        self.attempted += attempted
        self.failed += failed

    def timed(self, key: str, fn, *args):
        """Call fn; returns (seconds, result), the seconds on the reference
        core when the run has a ``speed``.  Unscaled seconds are kept under ``key``."""
        if self.speed is None:
            start = time.perf_counter()
            result = fn(*args)
            scaled = secs = time.perf_counter() - start
        else:
            scaled, secs, result = self.speed.measure(fn, *args)
        self.raw.setdefault(key, []).append(secs)
        return scaled, result

    def traced(self, unit: str, fn, *args):
        """Call fn under the tracer with spans labelled ``unit``; returns
        (unscaled seconds, result)."""
        self.tracer.unit = unit
        with self.tracer.active():
            start = time.perf_counter()
            result = fn(*args)
            return time.perf_counter() - start, result


# -- workloads -------------------------------------------------------------------

def oc_nph_null(run: Run, seqsurv, workloads, checks, spans) -> dict:
    ref = run.ref["oc_nph_null"]
    calibration = workloads.calibration_from_inputs(ref["inputs"]["calibration"])
    n_units = workloads.OC_REPLICATES * len(workloads.METHODS)
    if run.tracer:
        _, design = run.traced(spans.SETUP_UNIT, workloads.setup, "oc_nph_null", WORK)
    else:
        design = workloads.setup("oc_nph_null", WORK)
    gap = workloads.spending_gap(design)
    run.check("spending gap", checks.check_spending_gap(gap, ref["expected"]["spending_gap_limit"]))

    def call(seed, workers, traced=False):
        fn = workloads.oc_call
        args = (seed, workers, design, calibration)
        try:
            if traced:
                secs, oc = run.traced(f"call {seed}", fn, *args)
            else:
                secs, oc = run.timed(f"workers={workers}", fn, *args)
        except seqsurv.SeqSurvError as exc:
            run.units(n_units, n_units)
            run.errors.append(f"run_oc seed {seed} workers {workers}: {exc}")
            return None, None
        run.units(n_units, sum(oc.failures.values()))
        return secs, oc

    # Reference unit: warms up, and is checked against the recorded outputs.
    texts = {}
    for workers in (1, 2):
        _, oc = call(workloads.REFERENCE_SEED, workers)
        if oc is not None:
            run.check(f"reference workers={workers}",
                      checks.check_oc(workloads.oc_outputs(oc, design), ref["expected"]))
            texts[f"workers={workers}"] = seqsurv.oc_to_csv(oc)
    if texts:
        run.check("reference oc_to_csv", checks.check_identical("oc_to_csv", texts))
    run.raw.clear()

    w1, w2, traced_secs = [], [], []
    deadline = time.perf_counter() + run.args.seconds
    for seed in unit_seeds(run.args.seed, workloads.REFERENCE_SEED):
        passes = {1: call(seed, 1), 2: call(seed, 2)}
        if run.tracer:
            passes["traced"] = call(seed, 1, traced=True)
        if all(oc is not None for _, oc in passes.values()):
            w1.append(passes[1][0])
            w2.append(passes[2][0])
            if run.tracer:
                traced_secs.append(passes["traced"][0])
            run.check(f"seed {seed} oc_to_csv", checks.check_identical(
                "oc_to_csv",
                {("workers=1", "workers=2", "traced")[i]: seqsurv.oc_to_csv(oc)
                 for i, (_, oc) in enumerate(passes.values())}))
        if time.perf_counter() >= deadline:
            break

    n = workloads.OC_REPLICATES
    scaling = [a / (2.0 * b) for a, b in zip(w1, w2)]
    run.extra.update(
        replicates_per_call=n,
        calls=len(w2),
        throughput_workers1_per_s=n * len(w1) / sum(w1),
        scaling_efficiency=statistics.median(scaling),
    )
    run.workers = [1, 2]
    raw = run.raw["workers=2"]
    result = {"throughput": n * len(w2) / sum(w2), "latency_s": w2,
              "raw_throughput": n * len(raw) / sum(raw)}
    if run.tracer:
        snap = seqsurv.snapshot(seqsurv.generate_columns(workloads.NPH_NULL, seed),
                                calibration.analysis_times[-1])
        result["layer"] = dict(units=n * len(traced_secs),
                               tied_fraction=workloads.tied_event_fraction(snap),
                               spending_gap_max=gap,
                               overhead_fraction=sum(traced_secs) / sum(w1) - 1.0)
    return result


def calib_nph_null(run: Run, seqsurv, workloads, checks, spans) -> dict:
    ref = run.ref["calib_nph_null"]

    def call(seed, traced=False):
        fn = workloads.calib_call
        try:
            if traced:
                secs, cal = run.traced(f"call {seed}", fn, seed)
            else:
                secs, cal = run.timed("call", fn, seed)
        except seqsurv.SeqSurvError as exc:
            run.units(1, 1)
            run.errors.append(f"calibrate_analysis_times seed {seed}: {exc}")
            return None, None
        per_replicate = len(cal.grid_times) + len(workloads.METHODS) - 1
        run.units(cal.replicates * per_replicate, cal.failures)
        return secs, cal

    _, cal = call(workloads.REFERENCE_SEED)
    if cal is not None:
        run.check("reference", checks.check_calibration(workloads.calib_outputs(cal), ref["expected"]))
    run.raw.clear()

    untraced, traced_secs, paired_secs = [], [], []
    deadline = time.perf_counter() + run.args.seconds
    for seed in unit_seeds(run.args.seed, workloads.REFERENCE_SEED):
        secs, cal = call(seed)
        if cal is not None:
            untraced.append(secs)
            if run.tracer:
                t_secs, t_cal = call(seed, traced=True)
                if t_cal is not None:
                    paired_secs.append(run.raw["call"][-1])   # unscaled, like t_secs
                    traced_secs.append(t_secs)
                    run.check(f"seed {seed} traced", checks.check_calibration(
                        workloads.calib_outputs(t_cal), workloads.calib_outputs(cal)))
        if time.perf_counter() >= deadline:
            break

    n = workloads.CALIB_REPLICATES
    run.extra.update(replicates_per_call=n, calls=len(untraced))
    raw = run.raw["call"]
    result = {"throughput": n * len(untraced) / sum(untraced), "latency_s": untraced,
              "raw_throughput": n * len(raw) / sum(raw)}
    if run.tracer:
        snap = seqsurv.snapshot(seqsurv.generate_columns(workloads.NPH_NULL, seed),
                                workloads.NPH_NULL.study_length)
        result["layer"] = dict(units=n * len(traced_secs),
                               tied_fraction=workloads.tied_event_fraction(snap),
                               spending_gap_max=0.0,
                               overhead_fraction=sum(traced_secs) / sum(paired_secs) - 1.0)
    return result


def interim_ties(run: Run, seqsurv, workloads, checks, spans) -> dict:
    ref = run.ref["interim_ties"]
    totals = ref["inputs"]["total_information"]
    if run.tracer:
        _, design_path = run.traced(spans.SETUP_UNIT, workloads.setup, "interim_ties", WORK)
    else:
        design_path = workloads.setup("interim_ties", WORK)
    design = seqsurv.design_from_text(design_path.read_text(encoding="utf-8"))
    gap = workloads.spending_gap(design)
    run.check("spending gap", checks.check_spending_gap(gap, ref["expected"]["spending_gap_limit"]))
    run.check("design", checks.check_critical_values(design.critical_values,
                                                     ref["expected"]["critical_values"]))
    csv_path = WORK / "trial.csv"

    def check_reference_session(out) -> float:
        """Check the reference session and its CLI replay; returns the seconds taken."""
        start = time.perf_counter()
        run.check("reference stages", checks.check_stages(out["stages"], ref["expected"]["stages"]))
        method = workloads.METHODS[run.args.seed % len(workloads.METHODS)]
        looks = {method: len(out["stages"][method])}
        cli = workloads.cli_session(csv_path, design_path, WORK / "cli", totals, looks)
        decisions = {method: [r[1] for r in out["stages"][method]]}
        run.check(f"cli equivalence ({method})", checks.check_cli(cli, out["rows"], decisions))
        return time.perf_counter() - start

    def session(seed, traced=False):
        state_dir = WORK / ("traced" if traced else "api")
        label = None
        if traced:
            label = lambda look, m: setattr(run.tracer, "unit", f"trial {seed} look {look}")
            with run.tracer.active():
                out = workloads.run_session(csv_path, design_path, state_dir, totals, label)
        else:
            out = workloads.run_session(csv_path, design_path, state_dir, totals,
                                        timer=lambda fn, *a: run.timed("stage", fn, *a))
        run.units(len(out["latencies"]) + len(out["errors"]), len(out["errors"]))
        run.errors += [f"trial {seed}: {e}" for e in out["errors"]]
        out["rows"] = {m: workloads.state_rows(state_dir, m) for m in workloads.METHODS}
        return out

    # The first session is the reference trial, checked against the recorded
    # stages; one of its methods (chosen by --seed) is then replayed through
    # cli.main, untimed.
    cells, traced_secs, untraced_secs, ties = {}, [], [], []
    sessions = 0
    deadline = time.perf_counter() + run.args.seconds
    trials = itertools.chain([workloads.REFERENCE_SEED],
                             unit_seeds(run.args.seed, workloads.REFERENCE_SEED))
    for seed in trials:
        workloads.write_trial_csv(csv_path, seed)
        out = session(seed)
        for cell, secs in out["latencies"].items():
            cells.setdefault(cell, []).append(secs)
        sessions += 1
        if seed == workloads.REFERENCE_SEED:
            deadline += check_reference_session(out)
        if run.tracer:
            traced = session(seed, traced=True)
            raw = run.raw.get("stage", [])
            untraced_secs.append(sum(raw[len(raw) - len(out["latencies"]):]))   # unscaled
            traced_secs.append(sum(traced["latencies"].values()))
            run.check(f"trial {seed} traced", checks.check_identical(
                "state rows", {"untraced": out["rows"], "traced": traced["rows"]}))
            data = seqsurv.to_columns(seqsurv.ingest_csv(csv_path))
            ties.append(workloads.tied_event_fraction(seqsurv.snapshot(data, workloads.LOOK_DAYS[-1])))
        if time.perf_counter() >= deadline:
            break

    run.extra.update(sessions=sessions)
    # One latency per look x method cell: the median over the run's trials.
    # Trials that stop early or fail a stage then leave the mix of looks,
    # whose stages differ sevenfold in cost, unchanged.
    per_cell = [statistics.median(v) for v in cells.values()]
    raw = run.raw["stage"]
    run.extra.update(stages=len(raw), cells=len(cells))
    result = {"throughput": len(per_cell) / sum(per_cell), "latency_s": per_cell,
              "raw_throughput": len(raw) / sum(raw)}
    if run.tracer:
        result["layer"] = dict(units=len(raw), tied_fraction=statistics.median(ties),
                               spending_gap_max=gap,
                               overhead_fraction=sum(traced_secs) / sum(untraced_secs) - 1.0)
    return result


# -- main ---------------------------------------------------------------------------

def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reference", default=str(BENCH / "reference.json"),
                        help="recorded outputs to check against")
    args = parser.parse_args(argv)

    seqsurv = import_program()
    import checks
    import spans
    import workloads
    from speed import Speed

    WORK.mkdir(exist_ok=True)
    env = environment()
    speed = Speed()
    setup_times, raw_setup_times = measure_setup(args.workload, speed)
    reference = json.loads(Path(args.reference).read_text(encoding="utf-8"))
    tracer = spans.Tracer() if args.trace else None
    run = Run(args, reference, tracer, speed if args.workload in SCALED_UNITS else None)
    body = globals()[args.workload](run, seqsurv, workloads, checks, spans)
    env["workers"] = run.workers

    rss_kb = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
              + resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    lat_ms = [1000.0 * s for s in body["latency_s"]]
    tail_ms, tail_pct = tail(lat_ms)
    e2e = {
        "throughput_per_s": (body["throughput"], "1/s"),
        "latency_p50_ms": (quantile(lat_ms, 0.5), "ms"),
        "latency_tail_ms": (tail_ms, "ms"),
        "setup_s": (statistics.median(setup_times), "s"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }
    run.extra.update(
        latency_samples=len(lat_ms),
        latency_tail_percentile=tail_pct,
        latency_samples_ms=[round(x, 2) for x in lat_ms],
        setup_samples_s=setup_times,
        failed_fraction=run.failed / max(run.attempted, 1),
        kernel_ms_median=1000.0 * statistics.median(speed.ticks),
        raw_throughput_per_s=body["raw_throughput"],
        raw_setup_s=statistics.median(raw_setup_times),
    )
    if args.trace:
        layer, error_classes = spans.layer_metrics(tracer, **body["layer"])
        layer["sim.scaling_efficiency"] = run.extra.get("scaling_efficiency", 0.0)
        declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))["per_layer"]
        metrics = {d["name"]: {"value": layer[d["name"]], "unit": d["unit"]} for d in declared}
        run.extra["errors_by_class"] = error_classes
        tracer.write(WORK / f"spans-{args.workload}.json")
    else:
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in e2e.items()}

    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "environment": env, "metrics": metrics,
        "end_to_end": {k: v for k, (v, _) in e2e.items()}, "extra": run.extra,
        "problems": run.problems, "errors": run.errors,
    }
    (WORK / f"result-{args.workload}-{args.seed}-{args.trace}.json").write_text(
        json.dumps(record, indent=1), encoding="utf-8")

    print(f"# environment: {json.dumps(env)}")
    for name, (value, unit) in e2e.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# latency_tail_ms is p{tail_pct:.1f} of {len(lat_ms)} samples")
    for name, value in run.extra.items():
        if name != "latency_samples_ms":
            print(f"# {name} = {value}")
    if args.trace:
        for name, m in metrics.items():
            print(f"# {name} = {m['value']:.6g} {m['unit']}")
    for p in run.problems:
        print(f"# check failed: {p}")
    for e in run.errors:
        print(f"# unit raised: {e}")
    print(json.dumps({
        "correct": not run.problems,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
