"""Record the benchmark's fixed inputs and reference outputs in reference.json.

The fixed inputs are the OC analysis times and method totals (one
``calibrate_analysis_times`` at OC_CALIBRATION_SEED) and the interim total
information per method.  The reference outputs are those of each workload's
reference unit, which every run recomputes and checks.  Run from the root
of the checkout whose outputs become the reference:

    python3 bench/record_reference.py
"""

from __future__ import annotations

import json
import sys

from run import BENCH, WORK, import_program

SPENDING_GAP_LIMIT = 1e-6   # acceptance criterion 7


def main() -> int:
    seqsurv = import_program()
    import workloads as w

    WORK.mkdir(exist_ok=True)
    cal = seqsurv.calibrate_analysis_times(
        w.NPH_NULL, replicates=w.OC_CALIBRATION_REPLICATES, seed=w.OC_CALIBRATION_SEED,
        methods=w.METHODS, workers=1,
    )
    inputs = {"analysis_times": list(cal.analysis_times), "method_totals": dict(cal.method_totals)}
    design = w.setup("oc_nph_null", WORK)
    oc = w.oc_call(w.REFERENCE_SEED, 1, design, w.calibration_from_inputs(inputs))
    oc_ref = {
        "inputs": {"calibration": inputs},
        "expected": {**w.oc_outputs(oc, design), "spending_gap_limit": SPENDING_GAP_LIMIT},
    }

    calib_ref = {"expected": w.calib_outputs(w.calib_call(w.REFERENCE_SEED))}

    # Total information per method: the reference trial's final-look information.
    csv_path = WORK / "trial.csv"
    w.write_trial_csv(csv_path, w.REFERENCE_SEED)
    snap = seqsurv.snapshot(seqsurv.to_columns(seqsurv.ingest_csv(csv_path)), w.LOOK_DAYS[-1])
    totals = {m: w._STATISTICS[m](snap)[1] for m in w.METHODS}
    design_path = w.setup("interim_ties", WORK)
    ties_design = seqsurv.design_from_text(design_path.read_text(encoding="utf-8"))
    session = w.run_session(csv_path, design_path, WORK / "api", totals)
    if session["errors"]:
        sys.exit(f"reference session failed: {session['errors']}")
    ties_ref = {
        "inputs": {"total_information": totals},
        "expected": {
            "critical_values": list(ties_design.critical_values),
            "stages": session["stages"],
            "spending_gap_limit": SPENDING_GAP_LIMIT,
        },
    }

    reference = {"oc_nph_null": oc_ref, "calib_nph_null": calib_ref, "interim_ties": ties_ref}
    (BENCH / "reference.json").write_text(json.dumps(reference, indent=1) + "\n", encoding="utf-8")
    print(json.dumps(reference, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
