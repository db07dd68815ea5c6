"""The benchmark replaces program attributes by name, calls the program in a
fixed shape and checks its outputs against recorded references.  These tests
run the same lookups, calls and checks, so a change that would crash the
benchmark or make it report wrong outputs fails here first."""

import importlib.util
import json
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _reference():
    return json.loads((BENCH / "reference.json").read_text(encoding="utf-8"))


def test_traced_names_resolve():
    spans = _load("spans")
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, _ in spans._TARGETS
        if attr not in owner.__dict__
    ]
    assert spans._TARGETS
    assert missing == []


def test_oc_reference_unit_matches(tmp_path):
    workloads, checks = _load("workloads"), _load("checks")
    ref = _reference()["oc_nph_null"]
    design = workloads.setup("oc_nph_null", tmp_path)
    calibration = workloads.calibration_from_inputs(ref["inputs"]["calibration"])
    oc = workloads.oc_call(workloads.REFERENCE_SEED, 1, design, calibration)
    assert checks.check_oc(workloads.oc_outputs(oc, design), ref["expected"]) == []


def test_calibration_reference_unit_matches():
    workloads, checks = _load("workloads"), _load("checks")
    ref = _reference()["calib_nph_null"]
    cal = workloads.calib_call(workloads.REFERENCE_SEED)
    assert checks.check_calibration(workloads.calib_outputs(cal), ref["expected"]) == []


def test_interim_ties_reference_session_matches(tmp_path):
    workloads, checks = _load("workloads"), _load("checks")
    ref = _reference()["interim_ties"]
    totals = ref["inputs"]["total_information"]
    design_path = workloads.setup("interim_ties", tmp_path)
    csv_path = tmp_path / "trial.csv"
    workloads.write_trial_csv(csv_path, workloads.REFERENCE_SEED)
    out = workloads.run_session(csv_path, design_path, tmp_path / "api", totals)
    assert out["errors"] == []
    assert checks.check_stages(out["stages"], ref["expected"]["stages"]) == []
    rows = {m: workloads.state_rows(tmp_path / "api", m) for m in workloads.METHODS}
    for m in workloads.METHODS:
        decisions = [stage[1] for stage in out["stages"][m]]
        cli = workloads.cli_session(csv_path, design_path, tmp_path / "cli", totals,
                                    {m: len(decisions)})
        assert checks.check_cli(cli, rows, {m: decisions}) == []
