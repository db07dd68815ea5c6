"""Workload inputs and the closed-loop units of work the benchmark times.

Every call into the program goes through an attribute of the ``seqsurv``
package (``seqsurv.run_oc(...)``, never a name bound at import), so the
tracer in ``spans.py`` sees the calls the benchmark makes when it replaces
those attributes.  Inputs are generated here from seeds; the program only
ever receives the generated scenarios, CSV files and design files.
"""

from __future__ import annotations

import contextlib
import io
import math
import time
from dataclasses import replace
from pathlib import Path

import numpy as np

import seqsurv
from seqsurv import cli

METHODS = ("adjusted", "km", "cox")

# -- oc_nph_null and calib_nph_null ------------------------------------------
# ROADMAP's fixed scenario: crossing hazards at the equal-survival null,
# 400 per arm, one normal covariate, three stages.
_NPH = seqsurv.Scenario(
    n0=400, n1=400, tau=1.0, alpha0=2.0, alpha1=-1.0,
    covariate_scheme="normal1", phi=math.log(1.5), accrual=2.0, censor_rate=0.0,
    k_analyses=3, total_alpha=0.05, spending_rho=3.0,
    target_info_fractions=(0.5, 0.75, 1.0),
)
NPH_NULL = replace(_NPH, beta_w=seqsurv.null_beta_w(_NPH))

OC_CALIBRATION_SEED = 20240317   # seed of the calibration that fixes the OC inputs
OC_CALIBRATION_REPLICATES = 400
OC_REPLICATES = 4                # replicates per run_oc call
CALIB_REPLICATES = 8             # replicates per calibrate_analysis_times call
REFERENCE_SEED = 7               # seed of each workload's reference unit

# -- interim_ties --------------------------------------------------------------
# The staged-monitoring demo's trial at 2000 per arm under a null PH effect.
# Times are written in whole days, so event times tie.
TIES_TRIAL = seqsurv.Scenario(
    n0=2000, n1=2000, tau=2.0, alpha0=1.0, alpha1=0.0, beta_w=0.0,
    covariate_scheme="bernoulli2", phi=0.4, accrual=6.0, censor_rate=0.01,
    k_analyses=6, target_info_fractions=tuple((k + 1) / 6 for k in range(6)),
)
DAYS_PER_YEAR = 365.25
LOOK_DAYS = tuple(float(round(y * DAYS_PER_YEAR)) for y in (3, 4, 5, 6, 7, 8))
T0_DAYS = 730.0
TIES_SPENDING = seqsurv.SpendingFunction(0.05, "power", rho=3.0, sidedness="two_sided")


def calibration_from_inputs(inputs: dict) -> seqsurv.CalibrationResult:
    """The fixed analysis times and method totals recorded in reference.json."""
    return seqsurv.CalibrationResult(
        analysis_times=tuple(inputs["analysis_times"]),
        total_information=inputs["method_totals"]["adjusted"],
        method_totals=dict(inputs["method_totals"]),
        grid_times=(),
        mean_info=(),
        isotonic_applied=False,
        replicates=OC_CALIBRATION_REPLICATES,
        seed=OC_CALIBRATION_SEED,
        failures=0,
    )


def setup(workload: str, work_dir: Path):
    """The set-up a user pays before the first unit: the design solve.

    Returns the design (``oc_nph_null``), the design file path
    (``interim_ties``) or None (``calib_nph_null``, which needs no design).
    """
    if workload == "oc_nph_null":
        return seqsurv.build_design(NPH_NULL)
    if workload == "interim_ties":
        design = seqsurv.boundaries(TIES_SPENDING, TIES_TRIAL.target_info_fractions)
        path = work_dir / "design.txt"
        path.write_text(seqsurv.design_to_text(design), encoding="utf-8")
        return path
    return None


# -- units ---------------------------------------------------------------------

def oc_call(seed: int, workers: int, design, calibration) -> seqsurv.OperatingCharacteristics:
    return seqsurv.run_oc(
        NPH_NULL, design, METHODS, replicates=OC_REPLICATES, seed=seed,
        calibration=calibration, workers=workers,
    )


def oc_outputs(oc: seqsurv.OperatingCharacteristics, design) -> dict:
    return {
        "critical_values": list(design.critical_values),
        "method_totals": dict(oc.method_totals),
        "rejection_counts": {
            m: [round(p * oc.used_replicates[m]) for p in oc.cumulative_rejection[m]]
            for m in oc.methods
        },
        "failures": dict(oc.failures),
    }


def calib_call(seed: int) -> seqsurv.CalibrationResult:
    return seqsurv.calibrate_analysis_times(
        NPH_NULL, replicates=CALIB_REPLICATES, seed=seed, methods=METHODS, workers=1,
    )


def calib_outputs(cal: seqsurv.CalibrationResult) -> dict:
    return {
        "analysis_times": list(cal.analysis_times),
        "method_totals": dict(cal.method_totals),
        "failures": cal.failures,
    }


def write_trial_csv(path: Path, seed: int) -> None:
    """One simulated trial as a CSV in whole days: entry rounded, time rounded up."""
    cols = seqsurv.generate_columns(TIES_TRIAL, seed)
    entry = np.rint(cols.entry * DAYS_PER_YEAR).astype(np.int64)
    time_days = np.maximum(1, np.ceil(cols.time_on_study * DAYS_PER_YEAR)).astype(np.int64)
    lines = ["id,arm,entry,time,event,z1,z2"]
    rows = zip(cols.ids, cols.arm.tolist(), entry.tolist(), time_days.tolist(),
               cols.event.tolist(), cols.covariates.tolist())
    for sid, arm, e, t, d, (z1, z2) in rows:
        lines.append(f"{sid},{arm},{e},{t},{int(d)},{z1!r},{z2!r}")
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def tied_event_fraction(snap: seqsurv.Snapshot) -> float:
    """1 - distinct event times / events, pooled over both arms."""
    times = snap.follow_up[snap.event_observed]
    return 1.0 - np.unique(times).size / times.size if times.size else 0.0


_STATISTICS = {
    "adjusted": lambda snap: _z_info(seqsurv.compare_sp(snap, T0_DAYS)),
    "km": lambda snap: _z_info(seqsurv.km_compare(snap, T0_DAYS)),
    "cox": lambda snap: _z_info(seqsurv.cox_wald(snap)),
}


def _z_info(result) -> tuple[float, float]:
    return result.z, result.info_level


def analyze_stage(csv_path: Path, design_path: Path, state_path: Path, method: str,
                  u: float, total_information: float) -> seqsurv.StageResult:
    """The public calls ``seqsurv analyze`` makes for one stage, in its order."""
    design = seqsurv.design_from_text(design_path.read_text(encoding="utf-8"))
    if state_path.exists():
        state = seqsurv.state_from_text(state_path.read_text(encoding="utf-8"))
    else:
        state = seqsurv.MonitoringState(
            design=design, total_information=total_information, method=method
        )
    data = seqsurv.to_columns(seqsurv.ingest_csv(csv_path))
    snap = seqsurv.snapshot(data, u)
    z, info = _STATISTICS[method](snap)
    result = seqsurv.monitor(state, info, z, calendar_time=u)
    state_path.write_text(seqsurv.state_to_text(state), encoding="utf-8")
    return result


def _timed(fn, *args):
    start = time.perf_counter()
    result = fn(*args)
    return time.perf_counter() - start, result


def run_session(csv_path: Path, design_path: Path, state_dir: Path, totals: dict,
                on_stage=None, timer=_timed) -> dict:
    """Six looks, every method at each look, until each method's monitoring ends.

    Returns per-stage latencies keyed by (look, method), the stage rows per
    method and the stages that raised.  ``on_stage(look, method)`` runs before
    each stage (the tracer uses it to label spans).  ``timer(fn, *args)`` runs
    one stage and returns (seconds, result).
    """
    state_dir.mkdir(parents=True, exist_ok=True)
    for m in METHODS:
        (state_dir / f"{m}.state").unlink(missing_ok=True)
    active = dict.fromkeys(METHODS, True)
    latencies: dict[tuple[int, str], float] = {}
    stages: dict[str, list] = {m: [] for m in METHODS}
    errors: list[str] = []
    for look, u in enumerate(LOOK_DAYS, start=1):
        for m in METHODS:
            if not active[m]:
                continue
            if on_stage is not None:
                on_stage(look, m)
            try:
                secs, res = timer(analyze_stage, csv_path, design_path,
                                  state_dir / f"{m}.state", m, u, totals[m])
            except Exception as exc:  # a failed stage is counted, not fatal
                errors.append(f"{m} look {look}: {type(exc).__name__}: {exc}")
                active[m] = False
                continue
            latencies[look, m] = secs
            stages[m].append([look, res.decision, res.boundary, res.z, res.info_level])
            active[m] = res.decision == "continue"
    return {"latencies": latencies, "stages": stages, "errors": errors}


def state_rows(state_dir: Path, method: str) -> list[str]:
    path = state_dir / f"{method}.state"
    if not path.exists():
        return []
    return [ln for ln in path.read_text(encoding="utf-8").splitlines() if ln.startswith("stage =")]


def cli_session(csv_path: Path, design_path: Path, state_dir: Path, totals: dict,
                looks_per_method: dict) -> dict:
    """Drive ``seqsurv analyze`` through ``cli.main`` for the methods and numbers
    of looks given; returns each method's exit codes and state-file stage rows."""
    state_dir.mkdir(parents=True, exist_ok=True)
    out = {}
    for m, looks in looks_per_method.items():
        (state_dir / f"{m}.state").unlink(missing_ok=True)
        codes = []
        for u in LOOK_DAYS[:looks]:
            argv = [
                "analyze", str(csv_path), "--design", str(design_path),
                "--t0", repr(T0_DAYS), "--u", repr(u), "--method", m,
                "--state", str(state_dir / f"{m}.state"), "--total-info", repr(totals[m]),
            ]
            with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
                codes.append(cli.main(argv))
        out[m] = {"exit_codes": codes, "rows": state_rows(state_dir, m)}
    return out


def spending_gap(design) -> float:
    """max |crossing probability - spending increment| over the design's stages."""
    increments = np.diff(np.concatenate(([0.0], design.alpha_spent)))
    return float(np.max(np.abs(seqsurv.crossing_probabilities(design) - increments)))
