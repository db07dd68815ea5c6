"""Self-test of the benchmark: every output check must fail on a perturbed
value, and every workload must complete a minimum-size run.

Run from the repository root:

    python3 bench/selftest.py

1. Computes each workload's reference-unit outputs once and checks them
   against reference.json (all must pass).  Then, for each check, perturbs
   one recorded reference value (or, for the determinism, CLI and
   spending-gap checks, one of the values compared) and requires that the
   check reports a mismatch.
2. Runs calib_nph_null once against a perturbed reference file and
   requires ``correct: false``.
3. Runs every workload for one second, untraced and traced, and requires
   ``correct: true``.
"""

from __future__ import annotations

import copy
import dataclasses
import json
import subprocess
import sys

from run import BENCH, ROOT, WORK, WORKLOADS, import_program


def reference_outputs(seqsurv, w) -> dict:
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    design = w.setup("oc_nph_null", WORK)
    calibration = w.calibration_from_inputs(ref["oc_nph_null"]["inputs"]["calibration"])
    ocs = {f"workers={k}": w.oc_call(w.REFERENCE_SEED, k, design, calibration) for k in (1, 2)}

    totals = ref["interim_ties"]["inputs"]["total_information"]
    design_path = w.setup("interim_ties", WORK)
    ties_design = seqsurv.design_from_text(design_path.read_text(encoding="utf-8"))
    csv_path = WORK / "trial.csv"
    w.write_trial_csv(csv_path, w.REFERENCE_SEED)
    session = w.run_session(csv_path, design_path, WORK / "api", totals)
    looks = {m: len(rows) for m, rows in session["stages"].items()}
    return {
        "oc": w.oc_outputs(ocs["workers=1"], design),
        "oc_design": design,
        "csvs": {k: seqsurv.oc_to_csv(oc) for k, oc in ocs.items()},
        "calib": w.calib_outputs(w.calib_call(w.REFERENCE_SEED)),
        "ties_design": ties_design,
        "stages": session["stages"],
        "rows": {m: w.state_rows(WORK / "api", m) for m in w.METHODS},
        "cli": w.cli_session(csv_path, design_path, WORK / "cli", totals, looks),
    }


def evaluate(ref: dict, out: dict, w, checks) -> list[str]:
    oc, ties = ref["oc_nph_null"]["expected"], ref["interim_ties"]["expected"]
    decisions = {m: [r[1] for r in rows] for m, rows in out["stages"].items()}
    return (
        checks.check_oc(out["oc"], oc)
        + checks.check_spending_gap(w.spending_gap(out["oc_design"]), oc["spending_gap_limit"])
        + checks.check_identical("oc_to_csv", out["csvs"])
        + checks.check_calibration(out["calib"], ref["calib_nph_null"]["expected"])
        + checks.check_critical_values(out["ties_design"].critical_values, ties["critical_values"])
        + checks.check_spending_gap(w.spending_gap(out["ties_design"]), ties["spending_gap_limit"])
        + checks.check_stages(out["stages"], ties["stages"])
        + checks.check_cli(out["cli"], out["rows"], decisions)
    )


def _shift_first_boundary(design, by: float):
    values = list(design.critical_values)
    values[0] += by
    return dataclasses.replace(design, critical_values=tuple(values))


def _bump(values: list, index: int, by) -> None:
    values[index] += by


PERTURBATIONS = {
    "oc critical value +2e-5": lambda r, o: _bump(r["oc_nph_null"]["expected"]["critical_values"], 1, 2e-5),
    "oc rejection count +1": lambda r, o: _bump(r["oc_nph_null"]["expected"]["rejection_counts"]["km"], 2, 1),
    "oc method total x(1+1e-5)": lambda r, o: r["oc_nph_null"]["expected"]["method_totals"].update(
        cox=r["oc_nph_null"]["expected"]["method_totals"]["cox"] * (1 + 1e-5)),
    "oc design boundary +1e-3 (spending gap)": lambda r, o: o.update(
        oc_design=_shift_first_boundary(o["oc_design"], 1e-3)),
    "oc_to_csv of workers=2 changed": lambda r, o: o["csvs"].update(
        {"workers=2": o["csvs"]["workers=2"].replace(",", ";", 1)}),
    "calibration time x(1+1e-5)": lambda r, o: _bump(
        r["calib_nph_null"]["expected"]["analysis_times"], 0, r["calib_nph_null"]["expected"]["analysis_times"][0] * 1e-5),
    "calibration total x(1+1e-5)": lambda r, o: r["calib_nph_null"]["expected"]["method_totals"].update(
        km=r["calib_nph_null"]["expected"]["method_totals"]["km"] * (1 + 1e-5)),
    "interim critical value +2e-5": lambda r, o: _bump(r["interim_ties"]["expected"]["critical_values"], 3, 2e-5),
    "interim design boundary +1e-3 (spending gap)": lambda r, o: o.update(
        ties_design=_shift_first_boundary(o["ties_design"], 1e-3)),
    "interim decision flipped": lambda r, o: r["interim_ties"]["expected"]["stages"]["km"][2].__setitem__(1, "reject"),
    "interim boundary +2e-5": lambda r, o: _bump(r["interim_ties"]["expected"]["stages"]["cox"][4], 2, 2e-5),
    "cli exit code changed": lambda r, o: o["cli"]["adjusted"]["exit_codes"].__setitem__(0, 2),
    "cli state row changed": lambda r, o: o["cli"]["cox"]["rows"].__setitem__(
        -1, o["cli"]["cox"]["rows"][-1].replace("accept", "reject")),
}


def run_bench(workload: str, trace: int, *extra: str) -> dict:
    out = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", "1",
         "--seconds", "1", "--trace", str(trace), *extra],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    return json.loads(out.stdout.splitlines()[-1])


def main() -> int:
    seqsurv = import_program()
    import checks
    import workloads as w

    WORK.mkdir(exist_ok=True)
    ref = json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))
    out = reference_outputs(seqsurv, w)
    failures = []
    baseline = evaluate(ref, out, w, checks)
    print(f"unperturbed: {'pass' if not baseline else baseline}")
    failures += [f"unperturbed: {p}" for p in baseline]
    for label, perturb in PERTURBATIONS.items():
        r, o = copy.deepcopy(ref), dict(out, csvs=dict(out["csvs"]), cli=copy.deepcopy(out["cli"]))
        perturb(r, o)
        found = evaluate(r, o, w, checks)
        print(f"{label}: {'detected' if found else 'NOT DETECTED'} {found[:1]}")
        if not found:
            failures.append(f"{label} not detected")

    bad_ref = copy.deepcopy(ref)
    _bump(bad_ref["calib_nph_null"]["expected"]["analysis_times"], 1, 1e-3)
    bad_path = WORK / "perturbed-reference.json"
    bad_path.write_text(json.dumps(bad_ref), encoding="utf-8")
    result = run_bench("calib_nph_null", 0, "--reference", str(bad_path))
    print(f"run against a perturbed reference: correct = {result['correct']}")
    if result["correct"]:
        failures.append("run against a perturbed reference reported correct")

    for workload in WORKLOADS:
        for trace in (0, 1):
            result = run_bench(workload, trace)
            print(f"smoke {workload} trace={trace}: correct = {result['correct']}, "
                  f"attempted = {result['attempted']}, failed = {result['failed']}")
            if not result["correct"]:
                failures.append(f"smoke {workload} trace={trace} not correct")

    print("SELFTEST", "FAILED: " + "; ".join(failures) if failures else "PASSED")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
