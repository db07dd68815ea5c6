import math
from contextlib import nullcontext

import numpy as np
import pytest

from seqsurv import (
    Scenario,
    build_design,
    compare_sp,
    design_from_text,
    generate_columns,
    ingest_csv,
    null_beta_w,
    scenario_to_text,
    snapshot,
)
from seqsurv.cli import EXIT_ERROR, EXIT_OK, EXIT_REJECT, main
from seqsurv.sim import method_statistic
from conftest import columns


def write_csv(path, cols):
    p = cols.covariates.shape[1]
    header = "id,arm,entry,time,event" + "".join(f",z{k + 1}" for k in range(p))
    lines = [header]
    rows = zip(cols.ids, cols.arm.tolist(), cols.entry.tolist(), cols.time_on_study.tolist(),
               cols.event.tolist(), cols.covariates.tolist())
    for sid, arm, entry, time_on_study, event, zs in rows:
        covariates = "".join(f",{v!r}" for v in zs)
        lines.append(f"{sid},{arm},{entry!r},{time_on_study!r},{int(event)}{covariates}")
    path.write_text("\n".join(lines) + "\n")


def test_design_command_three_stage_table(tmp_path, capsys):
    out = tmp_path / "design.txt"
    code = main([
        "design", "--alpha", "0.05", "--sides", "2", "--spending", "power:3",
        "--info-fractions", "0.5,0.75,1", "--out", str(out),
    ])
    assert code == EXIT_OK
    table = capsys.readouterr().out
    assert "stage" in table and "boundary" in table
    design = design_from_text(out.read_text())
    assert design.n_stages == 3
    assert design.alpha_spent[-1] == pytest.approx(0.05)
    assert design.critical_values[0] == pytest.approx(2.7344, abs=2e-4)


def test_design_command_single_stage_quantile(tmp_path, capsys):
    code = main(["design", "--alpha", "0.05", "--info-fractions", "1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "1.959964" in out


def test_design_defaults_alpha_with_notice(capsys):
    code = main(["design", "--info-fractions", "0.5,1"])
    assert code == EXIT_OK
    out = capsys.readouterr().out
    assert "defaulting to 0.05" in out


def test_design_rejects_bad_fractions(capsys):
    code = main(["design", "--alpha", "0.05", "--info-fractions", "0.9,0.5"])
    assert code == EXIT_ERROR


def test_design_rejects_nan_fraction(capsys):
    code = main(["design", "--alpha", "0.05", "--info-fractions", "nan,0.75,1"])
    assert code == EXIT_ERROR
    assert "information fractions must be finite" in capsys.readouterr().err


_SPENDING_FORMS = "expected power, power:RHO, obf, pocock or custom:IF:ALPHA;IF:ALPHA"


@pytest.mark.parametrize("spec, message", [
    ("power:nan", "rho must be finite, got nan"),
    ("power:inf", "rho must be finite, got inf"),
    ("custom:0.5:nan;1:0.05", "custom spending table entries must be finite"),
    ("custom:bad", "custom spending 'custom:bad' is not of the form custom:IF:ALPHA;IF:ALPHA"),
    ("custom:-0.5:0.01;1:0.05",
     "custom spending table fractions must lie in (0, 1], got ((-0.5, 0.01), (1.0, 0.05))"),
    ("custom:0:0.01;1:0.05",
     "custom spending table fractions must lie in (0, 1], got ((0.0, 0.01), (1.0, 0.05))"),
    # text that only starts with "power" once designed with rho = 3
    ("power2", f"unknown spending specification 'power2'; {_SPENDING_FORMS}\n"),
    ("powerful", f"unknown spending specification 'powerful'; {_SPENDING_FORMS}\n"),
])
def test_design_rejects_a_bad_spending_spec(capsys, spec, message):
    code = main(["design", "--alpha", "0.05", f"--spending={spec}", "--info-fractions", "0.5,1"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err.startswith(f"error: {message}")


@pytest.mark.parametrize("spec, rho", [("power", 3.0), ("power:2", 2.0)])
def test_design_reads_power_and_power_rho(tmp_path, spec, rho):
    out = tmp_path / "design.txt"
    assert main(["design", f"--spending={spec}", "--info-fractions", "0.5,1", "--out", str(out)]) == EXIT_OK
    text = out.read_text()
    assert f"spending = power:{rho!r}" in text
    assert design_from_text(text).alpha_spent[0] == 0.05 * 0.5**rho


@pytest.mark.parametrize("fractions", ["1e-12,1", "0.5,0.500000001,1"])
def test_design_refuses_fractions_closer_than_the_minimum_step(capsys, fractions):
    code = main(["design", "--info-fractions", fractions])
    assert code == EXIT_ERROR
    assert "information fractions must be strictly increasing, each by more than 1e-09" in capsys.readouterr().err


def test_analyze_mirrored_arms_continue(tmp_path, capsys):
    base = [(0.7, True, 0.4), (1.3, True, -0.2), (2.2, False, 0.9), (1.6, True, 0.1)]
    rows = []
    for i, (t, d, z) in enumerate(base):
        rows.append((f"c{i}", 0, 0.0, t, d, (z,)))
        rows.append((f"t{i}", 1, 0.0, t, d, (z,)))
    data = tmp_path / "data.csv"
    write_csv(data, columns(rows))
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--spending", "power:3",
          "--info-fractions", "0.5,1", "--out", str(design_file)])
    state = tmp_path / "state.txt"
    code = main([
        "analyze", str(data), "--design", str(design_file), "--t0", "1.0", "--u", "3.0",
        "--method", "adjusted", "--state", str(state), "--total-info", "100",
    ])
    out = capsys.readouterr().out
    assert code == EXIT_OK
    assert "continue" in out
    assert "sha256" in out
    assert state.exists()


def test_analyze_requires_total_info_on_fresh_state(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_csv(data, columns([("a", 0, 0.0, 1.0, True, ()),
                             ("b", 1, 0.0, 1.0, True, ())]))
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "1", "--out", str(design_file)])
    code = main(["analyze", str(data), "--design", str(design_file),
                 "--t0", "0.5", "--u", "2.0"])
    assert code == EXIT_ERROR


def test_analyze_resume_rejects_a_contradicting_total_info(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_csv(data, generate_columns(Scenario(n0=30, n1=30, tau=1.0, accrual=1.0), seed=4))
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "0.5,0.75,1",
          "--out", str(design_file)])
    state = tmp_path / "state.txt"

    def look(u, *total_info):
        return main(["analyze", str(data), "--design", str(design_file), "--t0", "0.5",
                     "--u", u, "--method", "km", "--state", str(state), *total_info])

    assert look("0.8", "--total-info", "1000") == EXIT_OK
    before = state.read_text()
    capsys.readouterr()
    assert look("1.0", "--total-info", "2000") == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "2000.0" in err and "1000.0" in err
    assert state.read_text() == before
    # the recorded total stands when the flag is repeated or left out
    assert look("1.0", "--total-info", "1000") == EXIT_OK
    assert look("1.2") == EXIT_OK


def test_analyze_state_without_total_information_is_an_error(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_csv(data, columns([("a", 0, 0.0, 1.0, True, ()),
                             ("b", 1, 0.0, 1.0, True, ())]))
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "1", "--out", str(design_file)])
    state = tmp_path / "state.txt"
    state.write_text("method = km\ndesign_begin\n" + design_file.read_text() + "design_end\n")
    code = main(["analyze", str(data), "--design", str(design_file), "--t0", "0.5",
                 "--u", "2.0", "--method", "km", "--state", str(state)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "total_information" in err


def huge_effect_columns(seed=0):
    sc = Scenario(n0=150, n1=150, tau=1.0, alpha0=1.0, beta_w=-2.5,
                  covariate_scheme="normal1", phi=0.3, accrual=1.0)
    return generate_columns(sc, seed)


def test_analyze_huge_effect_rejects_at_stage_one(tmp_path, capsys):
    # pick a replicate whose first-stage statistic clears the boundary
    design = build_design(
        Scenario(n0=2, n1=2, tau=1.0, k_analyses=2, target_info_fractions=(0.5, 1.0))
    )
    chosen = None
    for seed in range(20):
        cols = huge_effect_columns(seed)
        res = compare_sp(snapshot(cols, 2.0), 1.0)
        if abs(res.z) > design.critical_values[0] + 0.5:
            chosen = (cols, res)
            break
    assert chosen is not None
    data = tmp_path / "data.csv"
    write_csv(data, chosen[0])
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--spending", "power:3",
          "--info-fractions", "0.5,1", "--out", str(design_file)])
    state = tmp_path / "state.txt"
    code = main([
        "analyze", str(data), "--design", str(design_file), "--t0", "1.0", "--u", "2.0",
        "--method", "adjusted", "--state", str(state),
        "--total-info", str(2 * chosen[1].info_level),
    ])
    assert code == EXIT_REJECT
    assert "reject" in capsys.readouterr().out

    # a further stage must be refused: the state shows a terminal decision
    code = main([
        "analyze", str(data), "--design", str(design_file), "--t0", "1.0", "--u", "3.0",
        "--method", "adjusted", "--state", str(state),
    ])
    assert code == EXIT_ERROR


def test_analyze_stage_regression_rejected(tmp_path, capsys):
    base = [(0.7, True), (1.3, True), (2.2, False), (1.6, True)]
    rows = []
    for i, (t, d) in enumerate(base):
        rows.append((f"c{i}", 0, 0.0, t, d, ()))
        rows.append((f"t{i}", 1, 0.0, t + 0.05, d, ()))
    data = tmp_path / "data.csv"
    write_csv(data, columns(rows))
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "0.5,1",
          "--out", str(design_file)])
    state = tmp_path / "state.txt"
    assert main([
        "analyze", str(data), "--design", str(design_file), "--t0", "1.0", "--u", "3.0",
        "--method", "km", "--state", str(state), "--total-info", "1000",
    ]) == EXIT_OK
    code = main([
        "analyze", str(data), "--design", str(design_file), "--t0", "1.0", "--u", "3.0",
        "--method", "km", "--state", str(state),
    ])
    assert code == EXIT_ERROR
    assert "calendar" in capsys.readouterr().err


def test_analyze_refuses_a_state_file_with_a_stage_after_a_rejection(tmp_path, capsys):
    data = tmp_path / "data.csv"
    write_csv(data, columns([("a", 0, 0.0, 1.0, True, ()), ("b", 1, 0.0, 1.5, True, ()),
                             ("c", 0, 0.0, 2.0, False, ()), ("d", 1, 0.0, 2.5, True, ())]))
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "0.5,1", "--out", str(design_file)])
    state = tmp_path / "state.txt"
    state.write_text(
        "total_information = 100.0\nmethod = km\ndesign_begin\n" + design_file.read_text()
        + "design_end\n"
        + "stage = 1,2.0,50.0,0.5,2.7,5.0,reject,0.00625\n"
        + "stage = 2,3.0,80.0,0.8,2.0,0.1,continue,0.02\n"
    )
    capsys.readouterr()
    code = main(["analyze", str(data), "--design", str(design_file), "--t0", "0.5",
                 "--u", "4.0", "--method", "km", "--state", str(state)])
    assert code == EXIT_ERROR
    assert "line 14: monitoring already ended with decision 'reject'" in capsys.readouterr().err


@pytest.mark.parametrize("rows, replace, message", [
    (("stage = 1,1.0,50.0,0.5,2.7,0.1,reject,0.00625",), None,
     "line 13: decision 'reject' does not follow"),
    (("stage = 1,1.0,50.0,0.5,2.7,0.1,continue,0.00625",
      "stage = 2,2.0,100.0,1.0,2.0,0.1,continue,0.05"), None,
     "line 14: decision 'continue' does not follow"),
    (("stage = 1,1.0,50.0,0.5,2.7,3.5,continue,0.00625",), None,
     "line 13: decision 'continue' does not follow"),
    ((), ("alpha = 0.05\n", "alpha = 0.05\nalpha = 0.05\n"),
     "state file line 6: key 'alpha' repeats line 5"),
])
def test_analyze_refuses_a_state_file_a_live_monitor_cannot_write(tmp_path, capsys, rows, replace,
                                                                 message):
    data = tmp_path / "data.csv"
    write_csv(data, columns([("a", 0, 0.0, 1.0, True, ()), ("b", 1, 0.0, 1.5, True, ()),
                             ("c", 0, 0.0, 2.0, False, ()), ("d", 1, 0.0, 2.5, True, ())]))
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "0.5,1", "--out", str(design_file)])
    text = ("total_information = 100.0\nmethod = km\ndesign_begin\n" + design_file.read_text()
            + "design_end\n" + "".join(row + "\n" for row in rows))
    state = tmp_path / "state.txt"
    state.write_text(text.replace(*replace) if replace else text)
    capsys.readouterr()
    code = main(["analyze", str(data), "--design", str(design_file), "--t0", "0.5",
                 "--u", "4.0", "--method", "km", "--state", str(state)])
    assert code == EXIT_ERROR
    assert message in capsys.readouterr().err


def test_analyze_method_mismatch_rejected(tmp_path, capsys):
    cols = columns([("a", 0, 0.0, 0.9, True, ()),
                    ("b", 1, 0.0, 1.1, True, ()),
                    ("c", 0, 0.0, 1.4, True, ()),
                    ("d", 1, 0.0, 1.7, False, ())])
    data = tmp_path / "data.csv"
    write_csv(data, cols)
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "0.5,1",
          "--out", str(design_file)])
    state = tmp_path / "state.txt"
    main(["analyze", str(data), "--design", str(design_file), "--t0", "1.0", "--u", "2.0",
          "--method", "km", "--state", str(state), "--total-info", "1000"])
    code = main(["analyze", str(data), "--design", str(design_file), "--t0", "1.0",
                 "--u", "3.0", "--method", "cox", "--state", str(state)])
    assert code == EXIT_ERROR


def test_analyze_km_without_events_by_t0_is_an_error(tmp_path, capsys):
    # the first event falls at 3.0, after both t0 = 1 and the analysis at u = 2
    cols = columns([("a", 0, 0.0, 3.0, True, ()),
                    ("b", 1, 0.0, 4.0, True, ()),
                    ("c", 0, 0.0, 5.0, False, ()),
                    ("d", 1, 0.0, 5.0, False, ())])
    data = tmp_path / "data.csv"
    write_csv(data, cols)
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "0.5,1", "--out", str(design_file)])
    capsys.readouterr()
    code = main(["analyze", str(data), "--design", str(design_file), "--t0", "1", "--u", "2",
                 "--method", "km", "--total-info", "100"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: Kaplan-Meier comparison at t0 = 1 has zero variance")
    assert "no events by t0 in either arm" in err


@pytest.mark.parametrize("t0", ["nan", "-1", "0", "inf"])
@pytest.mark.parametrize("method", ["adjusted", "km", "cox"])
def test_analyze_rejects_a_t0_that_is_not_finite_and_positive(tmp_path, capsys, method, t0):
    cols = columns([("a", 0, 0.0, 0.9, True, ()),
                    ("b", 1, 0.0, 1.1, True, ()),
                    ("c", 0, 0.0, 1.4, True, ()),
                    ("d", 1, 0.0, 1.7, False, ())])
    data = tmp_path / "data.csv"
    write_csv(data, cols)
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "0.5,1", "--out", str(design_file)])
    capsys.readouterr()
    state = tmp_path / "state.txt"
    code = main(["analyze", str(data), "--design", str(design_file), "--t0", t0, "--u", "2.0",
                 "--method", method, "--state", str(state), "--total-info", "100"])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: t0 must be finite and positive, got {float(t0)!r}\n"
    assert not state.exists()


def test_analyze_design_mismatch_rejected(tmp_path, capsys):
    cols = columns([("a", 0, 0.0, 0.9, True, ()),
                    ("b", 1, 0.0, 1.1, True, ()),
                    ("c", 0, 0.0, 1.4, True, ()),
                    ("d", 1, 0.0, 1.7, False, ())])
    data = tmp_path / "data.csv"
    write_csv(data, cols)
    first, other = tmp_path / "design.txt", tmp_path / "other.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "0.5,1", "--out", str(first)])
    main(["design", "--alpha", "0.05", "--info-fractions", "0.4,1", "--out", str(other)])
    state = tmp_path / "state.txt"
    assert main(["analyze", str(data), "--design", str(first), "--t0", "1.0", "--u", "2.0",
                 "--method", "km", "--state", str(state), "--total-info", "1000"]) == EXIT_OK
    recorded = state.read_text()
    capsys.readouterr()
    code = main(["analyze", str(data), "--design", str(other), "--t0", "1.0", "--u", "3.0",
                 "--method", "km", "--state", str(state)])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "differs from the design recorded" in err
    assert state.read_text() == recorded


def simulate_args(tmp_path, scenario_file, out, seed="7", workers="1"):
    return [
        "simulate", str(scenario_file), "--replicates", "40", "--seed", seed,
        "--workers", workers, "--calibration-replicates", "20",
        "--out", str(out),
    ]


def test_simulate_deterministic_byte_identical(tmp_path, capsys):
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(scenario_to_text(Scenario(n0=40, n1=40, tau=1.0, accrual=1.0)))
    outs = [tmp_path / f"oc{k}.csv" for k in range(3)]
    for out, workers in zip(outs, ("1", "1", "2")):
        args = simulate_args(tmp_path, scenario_file, out, workers=workers)
        # KM runs out of subjects at t0 in some replicates; workers = 2 warns
        # inside the pool's processes
        km_warns = (pytest.warns(RuntimeWarning, match="carrying the last Kaplan-Meier value forward")
                    if workers == "1" else nullcontext())
        with km_warns:
            assert main(args + ["--methods", "adjusted,km,cox"]) == EXIT_OK
    assert outs[0].read_bytes() == outs[1].read_bytes() == outs[2].read_bytes()
    header = outs[0].read_text().splitlines()
    assert header[1] == "# seed = 7, replicates = 40, calibration replicates = 20"
    capsys.readouterr()


def test_simulate_near_nominal_alpha_small(tmp_path, capsys):
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(scenario_to_text(Scenario(n0=60, n1=60, tau=1.0, accrual=1.0)))
    out = tmp_path / "oc.csv"
    plot = tmp_path / "plot.csv"
    code = main([
        "simulate", str(scenario_file), "--replicates", "150", "--seed", "3",
        "--calibration-replicates", "40", "--out", str(out),
        "--plot-data", str(plot),
    ])
    assert code == EXIT_OK
    text = out.read_text()
    final = float(text.strip().splitlines()[-1].split(",")[2])
    assert 0.0 <= final <= 0.12
    plot_lines = plot.read_text().splitlines()
    assert plot_lines[0].startswith("stage,calendar_time,info_fraction,nominal_spend")
    assert len(plot_lines) == 4
    capsys.readouterr()


def test_simulate_malformed_scenario_reports_line(tmp_path, capsys):
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text("n0 = 40\nn1 = 40\ntau : 1.0\n")
    code = main(["simulate", str(scenario_file), "--replicates", "5"])
    assert code == EXIT_ERROR
    assert "line 3" in capsys.readouterr().err


def test_simulate_zero_replicates_is_an_error(tmp_path, capsys):
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(scenario_to_text(Scenario(n0=20, n1=20, tau=1.0, accrual=1.0)))
    code = main(["simulate", str(scenario_file), "--replicates", "0",
                 "--calibration-replicates", "10"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "replicates must be at least 1, got 0" in err


def test_simulate_zero_workers_is_an_error(tmp_path, capsys):
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(scenario_to_text(Scenario(n0=20, n1=20, tau=1.0, accrual=1.0)))
    out = tmp_path / "oc.csv"
    code = main(simulate_args(tmp_path, scenario_file, out, workers="0"))
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == "error: workers must be at least 1, got 0\n"
    assert not out.exists()


@pytest.mark.parametrize("methods, message", [
    ("KM", "unknown method 'KM'; choose from ('adjusted', 'km', 'cox')"),
    ("bogus", "unknown method 'bogus'; choose from ('adjusted', 'km', 'cox')"),
    ("", "at least one method is required; choose from ('adjusted', 'km', 'cox')"),
    ("km,km", "method(s) 'km' given more than once"),
])
def test_simulate_refuses_a_bad_method_list(tmp_path, capsys, methods, message):
    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(scenario_to_text(Scenario(n0=20, n1=20, tau=1.0, accrual=1.0)))
    out = tmp_path / "oc.csv"
    code = main(simulate_args(tmp_path, scenario_file, out) + ["--methods", methods])
    assert code == EXIT_ERROR
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


def test_simulate_non_finite_scenario_value_is_an_error(tmp_path, capsys):
    scenario_file = tmp_path / "scenario.txt"
    text = scenario_to_text(Scenario(n0=20, n1=20, tau=1.0, accrual=1.0))
    scenario_file.write_text(text.replace("tau = 1.0", "tau = nan"))
    code = main(["simulate", str(scenario_file), "--replicates", "5",
                 "--calibration-replicates", "5"])
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "tau must be finite, got nan" in err


def test_simulate_refuses_a_draw_float64_cannot_hold(tmp_path, capsys):
    scenario_file = tmp_path / "scenario.txt"
    scenario = Scenario(n0=20, n1=20, tau=1.0, covariate_scheme="normal1", phi=800.0)
    scenario_file.write_text(scenario_to_text(scenario))
    out = tmp_path / "oc.csv"
    code = main(simulate_args(tmp_path, scenario_file, out))
    assert code == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith("error: phi = 800.0 gives a subject an event rate or event time of 0 or infinity at seed 7")
    assert not out.exists()


@pytest.mark.parametrize("argv, message", [
    (["design", "--alpha", "abc", "--info-fractions", "0.5,1"], "argument --alpha: invalid float value: 'abc'"),
    (["design", "--alpha", "0.05", "--info-fractions", "0.5,abc"], "argument --info-fractions: '0.5,abc'"),
    (["design", "--alpha", "0.05"], "the following arguments are required: --info-fractions"),
    (["analyze", "data.csv", "--design", "design.txt", "--t0", "zz", "--u", "1"],
     "argument --t0: invalid float value: 'zz'"),
    (["simulate", "s.txt", "--replicates", "ten"], "argument --replicates: invalid int value: 'ten'"),
])
def test_usage_errors_exit_1_not_the_rejection_code(capsys, argv, message):
    assert main(argv) == EXIT_ERROR
    err = capsys.readouterr().err
    assert err.startswith(f"error: seqsurv {argv[0]}: ") and message in err


@pytest.mark.parametrize("argv", [["--help"], ["design", "--help"]])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_OK


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_analyze_raises_a_look_whose_information_did_not_grow(tmp_path, capsys):
    # every subject is followed past t0 = 0.5 by u = 1.5, so the Kaplan-Meier
    # information at u = 2.0 equals the previous look's
    data = tmp_path / "data.csv"
    write_csv(data, generate_columns(Scenario(n0=30, n1=30, tau=0.5, accrual=1.0), seed=3))
    design_file = tmp_path / "design.txt"
    main(["design", "--alpha", "0.05", "--info-fractions", "0.5,1", "--out", str(design_file)])
    state = tmp_path / "state.txt"

    def look(u):
        return main(["analyze", str(data), "--design", str(design_file), "--t0", "0.5",
                     "--u", u, "--method", "km", "--state", str(state), "--total-info", "130"])

    assert look("1.5") == EXIT_OK
    assert "raised" not in capsys.readouterr().out
    assert look("2.0") == EXIT_OK
    out = capsys.readouterr().out
    assert ("#   information level raised from the observed 64.90384615384612 to "
            f"{64.90384615384612 * 1.005!r}, the least growth the monitor allows") in out
    row = state.read_text().splitlines()[-1].split("=", 1)[1].split(",")
    assert len(row) == 9
    assert float(row[2]) == 64.90384615384612 * 1.005
    assert float(row[8]) == 64.90384615384612


@pytest.mark.parametrize("method", ["adjusted", "km", "cox"])
def test_analyze_prints_the_estimate_behind_z(tmp_path, capsys, method):
    data = tmp_path / "data.csv"
    write_csv(data, generate_columns(Scenario(n0=40, n1=40, tau=0.5, covariate_scheme="normal1",
                                              phi=0.3, accrual=1.0), seed=4))
    design_file = tmp_path / "design.txt"
    main(["design", "--info-fractions", "0.5,1", "--out", str(design_file)])
    capsys.readouterr()
    code = main(["analyze", str(data), "--design", str(design_file), "--t0", "0.5",
                 "--u", "1.5", "--method", method, "--total-info", "500"])
    assert code == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    stat = method_statistic(method, snapshot(ingest_csv(data), 1.5), 0.5)
    provenance = out[out.index("# provenance") + 3:-1]
    if method == "cox":
        expected = [f"#   estimate = beta_w = {stat.estimate!r}, se = {stat.se!r}, "
                    f"hazard ratio = {math.exp(stat.estimate)!r}"]
    else:
        expected = [f"#   estimate = S1(t0) - S0(t0) = {stat.estimate!r}, se = {stat.se!r}",
                    f"#   S(t0) = {stat.s_hat[0]!r} (arm 0), {stat.s_hat[1]!r} (arm 1)"]
    if method != "km":
        assert stat.fit.iterations > 0
        expected.append(f"#   fit: {stat.fit.iterations} Newton iterations, "
                        f"{stat.fit.step_halvings} step halvings, singular_information = False")
    assert provenance == expected
