import ast
import contextlib
import io
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.stats import multivariate_normal, norm

from seqsurv import (
    GSDesign,
    MonitoringState,
    Scenario,
    SequentialMonitor,
    SpendingFunction,
    boundaries,
    build_design,
    calibrate_analysis_times,
    crossing_probabilities,
    design_from_text,
    design_to_text,
    monitor,
    null_beta_w,
    run_oc,
    spend,
    state_from_text,
    state_to_text,
)
from oracles import gs_crossing_by_simulation
from seqsurv import gsdesign
from seqsurv.cli import EXIT_ERROR, EXIT_OK, main
from seqsurv.gsdesign import _GRID_R, _Propagator, _jt_offsets


def power3(alpha=0.05, sides="two_sided"):
    return SpendingFunction(alpha, "power", rho=3.0, sidedness=sides)


def test_power_spending_at_full_information():
    assert spend(power3(), 1.0) == pytest.approx(0.05)


def test_power_spending_at_half_information():
    assert spend(power3(), 0.5) == pytest.approx(0.00625)


def test_spending_zero_at_zero():
    for family in ("power", "obf_like", "pocock_like"):
        sf = SpendingFunction(0.05, family)
        assert spend(sf, 0.0) == 0.0


def test_spending_clamps_above_one():
    assert spend(power3(), 1.7) == pytest.approx(0.05)


def test_spending_rejects_negative_fraction():
    with pytest.raises(ValueError):
        spend(power3(), -0.1)
    with pytest.raises(ValueError, match="information fraction must be >= 0, got nan"):
        spend(power3(), math.nan)


@given(st.floats(0, 1), st.floats(0, 1))
@settings(max_examples=200)
def test_power_spending_monotone(a, b):
    a, b = min(a, b), max(a, b)
    sf = power3()
    assert spend(sf, a) <= spend(sf, b) + 1e-15


def test_obf_and_pocock_anchor_at_total_alpha():
    for family in ("obf_like", "pocock_like"):
        sf = SpendingFunction(0.05, family)
        assert spend(sf, 1.0) == pytest.approx(0.05)
        assert 0.0 < spend(sf, 0.5) < 0.05


@pytest.mark.parametrize("alpha", [1e-4, 0.025, 0.05, 0.2, 0.5])
def test_obf_spending_equals_the_normal_oracle(alpha):
    sf = SpendingFunction(alpha, "obf_like")
    za = norm.ppf(1.0 - alpha / 2.0)
    for t in (1e-3, 0.3, 0.5, 0.99):
        assert spend(sf, t) == float(2.0 - 2.0 * norm.cdf(za / math.sqrt(t)))


# scipy subpackages that no design, analyze or run_oc path needs; scipy.optimize
# also pulls in scipy.linalg and scipy.sparse
_COLD_START_UNLOADED = {"stats", "optimize", "linalg", "sparse"}
_DESIGN = "from seqsurv import cli; assert cli.main(['design', '--info-fractions', '0.5,0.75,1', '--out', 'design.txt']) == 0"
_TRIAL_CSV = "id,arm,entry,time,event,z1\n" + "".join(
    f"{arm}{i},{arm},0.0,{t},{d},{z}\n"
    for i, (t, d, z) in enumerate([(0.7, 1, 0.4), (1.3, 1, -0.2), (2.2, 0, 0.9), (1.6, 1, 0.1)])
    for arm in (0, 1)
)
_SMALL = "seqsurv.Scenario(n0=20, n1=20, tau=1.0, accrual=1.0)"


def _scipy_subpackages_after(code, cwd):
    """The scipy subpackages loaded once ``code`` has run in a fresh interpreter."""
    src = Path(gsdesign.__file__).parents[1]
    probe = f"{code}\nimport sys\nprint(sorted({{m.split('.')[1] for m in sys.modules if m.startswith('scipy.')}}))"
    env = {**os.environ, "PYTHONPATH": str(src)}
    run = subprocess.run([sys.executable, "-c", probe], cwd=cwd, env=env, capture_output=True,
                         text=True, check=True)
    return set(ast.literal_eval(run.stdout.splitlines()[-1]))


@pytest.mark.parametrize("code", [
    "import seqsurv",
    "import seqsurv.cli",
    _DESIGN,
    _DESIGN + "; assert cli.main(['analyze', 'trial.csv', '--design', 'design.txt', '--t0', '1.0', "
              "'--u', '3.0', '--state', 'state.txt', '--total-info', '100']) == 0",
    f"import seqsurv; sc = {_SMALL}; seqsurv.run_oc(sc, seqsurv.build_design(sc), ('adjusted',), 2, 0, "
    "calibration=seqsurv.CalibrationResult((1.5, 1.75, 2.0), 20.0, {'adjusted': 20.0}, (), (), False, 0, 0, 0))",
], ids=["import seqsurv", "import seqsurv.cli", "design", "analyze", "run_oc"])
def test_cold_paths_leave_scipy_stats_and_optimize_unloaded(code, tmp_path):
    (tmp_path / "trial.csv").write_text(_TRIAL_CSV)
    assert not _scipy_subpackages_after(code, tmp_path) & _COLD_START_UNLOADED


def test_calibration_loads_scipy_optimize_when_called(tmp_path):
    code = (f"import seqsurv; cal = seqsurv.calibrate_analysis_times({_SMALL}, replicates=3); "
            "assert cal.analysis_times[-1] == 2.0 and cal.total_information > 0")
    loaded = _scipy_subpackages_after(code, tmp_path)
    assert {"optimize", "linalg"} <= loaded and "stats" not in loaded


def test_custom_table_interpolates():
    sf = SpendingFunction(
        0.05, "custom", table=((0.5, 0.01), (1.0, 0.05)), sidedness="two_sided"
    )
    assert spend(sf, 0.5) == pytest.approx(0.01)
    assert spend(sf, 0.25) == pytest.approx(0.005)
    assert spend(sf, 0.75) == pytest.approx(0.03)


def test_single_stage_boundary_is_normal_quantile():
    d = boundaries(power3(), [1.0])
    assert d.critical_values[0] == pytest.approx(norm.ppf(1 - 0.025), abs=1e-6)
    d1 = boundaries(power3(sides="one_sided_upper"), [1.0])
    assert d1.critical_values[0] == pytest.approx(norm.ppf(1 - 0.05), abs=1e-6)


def test_two_stage_one_sided_against_bivariate_quadrature():
    sf = SpendingFunction(0.025, "power", rho=3.0, sidedness="one_sided_upper")
    d = boundaries(sf, [0.5, 1.0])
    assert d.alpha_spent == pytest.approx((0.003125, 0.025))
    c1, c2 = d.critical_values
    assert c1 == pytest.approx(norm.ppf(1 - 0.003125), abs=1e-9)
    # P(Z1 >= c1) + P(Z1 < c1, Z2 >= c2) must equal 0.025; check the joint
    # term with the bivariate normal CDF at correlation sqrt(1/2)
    corr = math.sqrt(0.5)
    cov = [[1.0, corr], [corr, 1.0]]
    p_joint = multivariate_normal.cdf([c1, c2], mean=[0, 0], cov=cov)
    total = (1 - norm.cdf(c1)) + (norm.cdf(c1) - p_joint)
    assert total == pytest.approx(0.025, abs=1e-5)


def test_pocock_like_spending_nearly_constant_boundaries():
    sf = SpendingFunction(0.05, "pocock_like", sidedness="two_sided")
    d = boundaries(sf, [1 / 3, 2 / 3, 1.0])
    spreads = max(d.critical_values) - min(d.critical_values)
    assert spreads < 0.02
    # direct constant-boundary search oracle
    from scipy.optimize import brentq

    def total_crossing(c):
        probe = GSDesign(
            spending=sf,
            info_fractions=(1 / 3, 2 / 3, 1.0),
            critical_values=(c, c, c),
            alpha_spent=(0.0, 0.0, 0.05),
        )
        return float(crossing_probabilities(probe, 0.0).sum())

    c_const = brentq(lambda c: total_crossing(c) - 0.05, 1.5, 4.0, xtol=1e-10)
    assert all(abs(c - c_const) < 0.02 for c in d.critical_values)


def test_crossing_probabilities_reproduce_spending_increments():
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    probs = crossing_probabilities(d, 0.0)
    increments = np.diff(np.concatenate(([0.0], d.alpha_spent)))
    assert probs == pytest.approx(increments, abs=1e-6)
    assert probs.sum() == pytest.approx(0.05, abs=1e-6)


def test_single_stage_crossing_is_alpha():
    d = boundaries(power3(), [1.0])
    assert crossing_probabilities(d, 0.0) == pytest.approx([0.05], abs=1e-9)


def test_three_stage_power_drift_against_mc_oracle():
    from scipy.optimize import brentq

    sf = power3()
    d = boundaries(sf, [0.5, 0.75, 1.0])
    target = 0.80
    total = lambda theta: float(crossing_probabilities(d, theta).sum()) - target
    theta = brentq(total, 1.0, 5.0, xtol=1e-8)
    probs = crossing_probabilities(d, theta)
    assert probs.sum() == pytest.approx(0.80, abs=1e-4)
    sim = gs_crossing_by_simulation(
        d.info_fractions, d.critical_values, "two_sided", theta, draws=10**6, seed=99
    )
    se = math.sqrt(0.8 * 0.2 / 10**6)
    assert sim.sum() == pytest.approx(probs.sum(), abs=3 * se)
    for k in range(3):
        se_k = math.sqrt(max(probs[k] * (1 - probs[k]), 1e-12) / 10**6)
        assert sim[k] == pytest.approx(probs[k], abs=4 * se_k)


def test_boundaries_shrink_when_alpha_grows():
    d1 = boundaries(power3(0.01), [0.5, 1.0])
    d2 = boundaries(power3(0.05), [0.5, 1.0])
    assert all(c2 < c1 for c1, c2 in zip(d1.critical_values, d2.critical_values))


def test_grid_refinement_stability(monkeypatch):
    # the Jennison-Turnbull mesh at its size r against one twice as fine
    sf = power3()
    assert np.array_equal(gsdesign._OFFSETS, _jt_offsets(_GRID_R))
    coarse = boundaries(sf, [0.4, 0.7, 1.0])
    monkeypatch.setattr(gsdesign, "_OFFSETS", _jt_offsets(2 * _GRID_R))
    fine = boundaries(sf, [0.4, 0.7, 1.0])
    for a, b in zip(coarse.critical_values, fine.critical_values):
        assert abs(a - b) < 1e-5


def test_zero_increment_stage_gets_infinite_boundary():
    sf = SpendingFunction(
        0.05, "custom", table=((0.5, 0.0), (0.75, 0.0), (1.0, 0.05)), sidedness="two_sided"
    )
    d = boundaries(sf, [0.5, 0.75, 1.0])
    assert math.isinf(d.critical_values[0])
    assert math.isinf(d.critical_values[1])
    assert d.critical_values[2] == pytest.approx(norm.ppf(1 - 0.025), abs=1e-6)


def test_nonincreasing_fractions_rejected():
    with pytest.raises(ValueError):
        boundaries(power3(), [0.5, 0.5, 1.0])
    with pytest.raises(ValueError):
        boundaries(power3(), [0.8, 0.4])


def test_monitor_continue_below_boundary():
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    mon = SequentialMonitor(d, total_information=100.0)
    res = mon.step(50.0, 0.4)
    assert res.decision == "continue"
    assert res.boundary == pytest.approx(norm.ppf(1 - 0.003125), abs=1e-9)


def test_monitor_exact_boundary_rejects():
    d = boundaries(power3(), [0.5, 1.0])
    mon = SequentialMonitor(d, total_information=100.0)
    c1 = mon.step(50.0, norm.ppf(1 - 0.003125)).boundary  # exactly at the boundary
    assert mon.results[0].decision == "reject"
    assert mon.results[0].z == pytest.approx(c1)


def test_monitor_matches_design_when_observed_equals_planned():
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    mon = SequentialMonitor(d, total_information=200.0)
    for frac, c in zip(d.info_fractions, d.critical_values):
        res = mon.step(200.0 * frac, 0.0)
        assert res.boundary == c  # bit for bit


def test_monitor_overrun_clamps_and_finalizes():
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    mon = SequentialMonitor(d, total_information=100.0)
    mon.step(50.0, 0.1)
    res = mon.step(120.0, 0.2)  # IF > 1 at stage 2: clamp, spend the rest
    assert res.info_fraction == 1.0
    assert res.alpha_spent == pytest.approx(0.05)
    assert res.decision == "accept"
    with pytest.raises(ValueError, match="ended"):
        mon.step(130.0, 3.0)


def test_monitor_underrun_final_spends_remaining_alpha():
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    mon = SequentialMonitor(d, total_information=100.0)
    mon.step(50.0, 0.1)
    mon.step(75.0, 0.2)
    res = mon.step(90.0, 0.3)  # final stage despite IF = 0.9
    assert res.alpha_spent == pytest.approx(0.05)
    assert res.decision == "accept"


@pytest.mark.parametrize("observed", [50.0, 49.0])
def test_monitor_raises_information_that_does_not_grow(observed):
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    mon = SequentialMonitor(d, total_information=100.0)
    first = mon.step(50.0, 0.0)
    assert first.info_level == first.observed_info_level == 50.0
    res = mon.step(observed, 0.0)
    assert res.info_level == 50.0 * 1.005
    assert res.observed_info_level == observed
    assert res.info_fraction == 50.0 * 1.005 / 100.0
    planned = SequentialMonitor(d, total_information=100.0)
    planned.step(50.0, 0.0)
    assert res.boundary == planned.step(50.0 * 1.005, 0.0).boundary


def test_monitor_all_alpha_spent_means_infinite_final_boundary():
    sf = SpendingFunction(
        0.05, "custom", table=((0.5, 0.05), (1.0, 0.05)), sidedness="two_sided"
    )
    d = boundaries(sf, [0.5, 1.0])
    mon = SequentialMonitor(d, total_information=100.0)
    mon.step(50.0, 1.0)
    res = mon.step(100.0, 5.0)
    assert math.isinf(res.boundary)
    assert res.decision == "accept"


def test_monitoring_state_roundtrip_and_resume():
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    state = MonitoringState(design=d, total_information=150.0, method="adjusted")
    monitor(state, 80.0, 0.7, calendar_time=2.0)
    text = state_to_text(state)
    revived = state_from_text(text)
    assert revived.total_information == state.total_information
    assert revived.results == state.results
    res = monitor(revived, 120.0, 1.1, calendar_time=3.0)
    fresh = MonitoringState(design=d, total_information=150.0, method="adjusted")
    monitor(fresh, 80.0, 0.7, calendar_time=2.0)
    res_fresh = monitor(fresh, 120.0, 1.1, calendar_time=3.0)
    assert res == res_fresh


_GOOD_ROWS = (
    "stage = 1,2.0,80.0,0.5,2.9626,0.7,continue,0.00625",
    "stage = 2,3.0,120.0,0.75,2.4,1.1,continue,0.0211",
)


@pytest.mark.parametrize(
    "rows, bad, message",
    [
        ((_GOOD_ROWS[0], _GOOD_ROWS[1].replace("continue", "maybe")), 1, "decision must be one of"),
        (("stage = 2,2.0,80.0,0.5,2.9626,0.7,continue,0.00625",), 0, "expected stage 1"),
        ((_GOOD_ROWS[0], _GOOD_ROWS[0].replace(",2.0,", ",3.0,")), 1, "expected stage 2"),
        (_GOOD_ROWS + ("stage = 3,4.0,140.0,0.9,2.2,0.2,continue,0.04",
                       "stage = 4,5.0,150.0,1.0,2.1,0.3,accept,0.05"), 2,
         "decision 'continue' does not follow .* at stage 3 of 3"),
        ((_GOOD_ROWS[0].replace("80.0", "nan"),), 0, "info_level must be finite"),
        ((_GOOD_ROWS[0].replace(",0.5,", ",inf,"),), 0, "info_fraction must be finite"),
        ((_GOOD_ROWS[0].replace("0.7", "-inf"),), 0, "z must be finite"),
        ((_GOOD_ROWS[0].replace("0.00625", "nan"),), 0, "alpha_spent must be finite"),
        ((_GOOD_ROWS[0].replace("2.9626", "nan"),), 0, "boundary must not be NaN"),
        ((_GOOD_ROWS[0].replace(",2.0,", ",inf,"),), 0, "calendar time must be finite"),
        ((_GOOD_ROWS[0].replace("80.0", "eighty"),), 0, "key 'info_level': 'eighty' is not a number"),
        ((_GOOD_ROWS[0].replace("0.7", "abc"),), 0, "key 'z': 'abc' is not a number"),
        ((_GOOD_ROWS[0].replace("stage = 1", "stage = 1.0"),), 0,
         "key 'stage': '1.0' is not an integer"),
        ((_GOOD_ROWS[0] + ",80.0,extra",), 0, "malformed stage row"),
        ((_GOOD_ROWS[0] + ",nan",), 0, "observed_info_level must be finite"),
        ((_GOOD_ROWS[0] + ",80.5",), 0, "observed_info_level 80.5 exceeds info_level 80.0"),
        ((_GOOD_ROWS[0], "", "stages = 2"), 2, "unexpected line"),
    ],
)
def test_state_text_rejects_malformed_stage_rows(rows, bad, message):
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    head = state_to_text(MonitoringState(design=d, total_information=150.0, method="adjusted"))
    text = head + "\n".join(rows) + "\n"
    lineno = head.count("\n") + bad + 1
    with pytest.raises(ValueError, match=f"state file line {lineno}: .*{message}"):
        state_from_text(text)


@pytest.mark.parametrize(
    "value, message",
    [
        ("nan", "must be finite and positive, got nan"),
        ("-3", "must be finite and positive, got -3.0"),
        ("0", "must be finite and positive, got 0.0"),
        ("inf", "must be finite and positive, got inf"),
        ("abc", "'abc' is not a number"),
    ],
)
def test_state_text_rejects_bad_total_information(value, message):
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    text = state_to_text(MonitoringState(design=d, total_information=150.0))
    assert "total_information = 150.0\n" in text
    with pytest.raises(ValueError, match=f"key 'total_information'.*{message}"):
        state_from_text(text.replace("total_information = 150.0", f"total_information = {value}"))


def test_state_text_accepts_recorded_infinite_boundary_and_missing_time():
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    state = MonitoringState(design=d, total_information=150.0)
    text = state_to_text(state) + "stage = 1,nan,80.0,0.5,inf,0.7,continue,0.0\n"
    revived = state_from_text(text)
    assert math.isinf(revived.results[0].boundary)
    assert math.isnan(revived.calendar_times[0])


def test_monitor_refuses_stage_regression_in_calendar_time():
    d = boundaries(power3(), [0.5, 1.0])
    state = MonitoringState(design=d, total_information=100.0)
    monitor(state, 50.0, 0.1, calendar_time=2.0)
    with pytest.raises(ValueError, match="calendar"):
        monitor(state, 60.0, 0.2, calendar_time=2.0)


def test_monitor_refuses_stages_after_reject():
    d = boundaries(power3(), [0.5, 1.0])
    state = MonitoringState(design=d, total_information=100.0)
    monitor(state, 50.0, 5.0, calendar_time=2.0)
    assert state.results[-1].decision == "reject"
    with pytest.raises(ValueError, match="ended"):
        monitor(state, 80.0, 5.0, calendar_time=3.0)


def _state_text_with_rows(*rows):
    d = boundaries(power3(), [0.5, 1.0])
    head = state_to_text(MonitoringState(design=d, total_information=100.0))
    return head + "".join(row + "\n" for row in rows), head.count("\n")


def test_state_file_refuses_a_stage_after_a_terminal_decision():
    text, head = _state_text_with_rows(
        "stage = 1,2.0,50.0,0.5,2.7,5.0,reject,0.00625",
        "stage = 2,3.0,80.0,0.8,2.0,0.1,continue,0.02",
    )
    with pytest.raises(ValueError, match=f"state file line {head + 2}: monitoring already ended"):
        state_from_text(text)


def test_state_file_refuses_calendar_times_that_go_backwards():
    text, head = _state_text_with_rows(
        "stage = 1,2.0,50.0,0.5,2.7,0.1,continue,0.00625",
        "stage = 2,1.0,80.0,0.8,2.0,0.1,accept,0.05",
    )
    with pytest.raises(ValueError, match=f"state file line {head + 2}: calendar time must increase"):
        state_from_text(text)


_DECISION_ROWS = {
    "rejection below the boundary": (
        ("stage = 1,1.0,50.0,0.5,2.7,0.1,reject,0.00625",), 1,
        "decision 'reject' does not follow from z = 0.1 against boundary 2.7 at stage 1 of 2, "
        "information fraction 0.5: a live look decides 'continue'",
    ),
    "continue at the final stage": (
        ("stage = 1,1.0,50.0,0.5,2.7,0.1,continue,0.00625",
         "stage = 2,2.0,100.0,1.0,2.0,0.1,continue,0.05"), 2,
        "decision 'continue' does not follow from z = 0.1 against boundary 2.0 at stage 2 of 2, "
        "information fraction 1.0: a live look decides 'accept'",
    ),
    "crossing recorded as continue": (
        ("stage = 1,1.0,50.0,0.5,2.7,3.5,continue,0.00625",), 1,
        "decision 'continue' does not follow from z = 3.5 against boundary 2.7 at stage 1 of 2, "
        "information fraction 0.5: a live look decides 'reject'",
    ),
}


@pytest.mark.parametrize("case", sorted(_DECISION_ROWS))
def test_state_file_refuses_a_row_whose_decision_does_not_follow(case):
    rows, bad, message = _DECISION_ROWS[case]
    text, head = _state_text_with_rows(*rows)
    with pytest.raises(ValueError) as error:
        state_from_text(text)
    assert str(error.value) == f"state file line {head + bad}: {message}"


def test_state_file_names_its_own_line_of_a_repeated_design_key():
    text, _ = _state_text_with_rows()
    assert text.splitlines()[4] == "alpha = 0.05"
    with pytest.raises(ValueError, match="^state file line 6: key 'alpha' repeats line 5$"):
        state_from_text(text.replace("alpha = 0.05\n", "alpha = 0.05\nalpha = 0.05\n"))


def test_calendar_times_increase_past_looks_given_none():
    state = MonitoringState(design=boundaries(power3(), [0.3, 0.6, 1.0]), total_information=100.0)
    state.step(30.0, 0.1, calendar_time=2.0)
    state.step(60.0, 0.1)
    with pytest.raises(ValueError, match=r"calendar time must increase across stages \(1\.5 after 2\)"):
        state.step(90.0, 0.1, calendar_time=1.5)


@pytest.mark.parametrize("calendar_time", [math.inf, -math.inf])
def test_monitor_refuses_an_infinite_calendar_time(calendar_time):
    state = MonitoringState(design=boundaries(power3(), [0.5, 1.0]), total_information=100.0)
    with pytest.raises(ValueError, match="calendar time must be finite"):
        monitor(state, 50.0, 0.1, calendar_time=calendar_time)
    assert state.results == [] and state.calendar_times == []


@pytest.mark.parametrize("total", [-5.0, 0.0, math.nan, math.inf])
def test_monitoring_state_refuses_a_bad_total_at_construction(total):
    with pytest.raises(ValueError, match="total_information must be finite and positive"):
        MonitoringState(design=boundaries(power3(), [0.5, 1.0]), total_information=total)


def test_monitoring_state_replays_the_stages_it_is_given():
    d = boundaries(power3(), [0.5, 0.75, 1.0])
    live = MonitoringState(d, 100.0)
    live.step(50.0, 0.2, calendar_time=1.0)
    live.step(70.0, 0.4, calendar_time=2.0)
    resumed = MonitoringState(d, 100.0, list(live.calendar_times), list(live.results))
    assert resumed == live
    assert resumed.step(90.0, 1.0) == live.step(90.0, 1.0)
    assert SequentialMonitor is MonitoringState
    with pytest.raises(ValueError, match="one entry per stage"):
        MonitoringState(d, 100.0, [1.0], [])
    with pytest.raises(ValueError, match="monitoring already ended"):
        MonitoringState(d, 100.0, [*live.calendar_times, 5.0], live.results + live.results[-1:])


# Written before this version: the same session with 8-column rows (no level
# raised) and with 9-column rows (the second look's level raised from 26.0),
# each with the next look's boundary, decision and spending target at that version.
_OLD_STATE_HEAD = """total_information = 100.0
method = km
design_begin
stages = 4
alpha = 0.05
sidedness = two_sided
spending = power:3.0
info_fractions = 0.25,0.5,0.75,1.0
critical_values = 3.359353717934327,2.7603969931240324,2.359363409084888,2.02930062301283
alpha_spent = 0.00078125,0.00625,0.02109375,0.05
grid = jt:32
design_end
stage = 1,1.0,27.0,0.27,3.295019072686863,1.1,continue,0.0009841500000000003"""
_OLD_STATE_FILES = {
    "8 columns": (
        _OLD_STATE_HEAD + "\nstage = 2,2.0,52.0,0.52,2.723993586348896,-0.8,continue,0.007030400000000001\n",
        2.3310353859097734,
    ),
    "9 columns": (
        _OLD_STATE_HEAD + ",27.0\nstage = 2,2.0,27.134999999999998,0.27135,3.3730567351088547,-0.8,"
        "continue,0.0009989861842687497,26.0\n",
        2.2862573122415455,
    ),
}


@pytest.mark.parametrize("name", sorted(_OLD_STATE_FILES))
def test_state_files_of_earlier_versions_give_the_same_next_look(name):
    text, boundary = _OLD_STATE_FILES[name]
    state = state_from_text(text)
    res = monitor(state, 77.0, 1.9, calendar_time=3.0)
    assert (res.boundary, res.decision, res.alpha_spent) == (boundary, "continue", 0.022826650000000004)


def test_design_text_roundtrip():
    zero_spend = SpendingFunction(0.05, "custom", table=((0.5, 0.0), (0.75, 0.0), (1.0, 0.05)))
    for sf, fractions in (
        (power3(), [0.5, 1.0]),
        (SpendingFunction(0.05, "power", rho=1.265625), [0.5, 1.0]),
        (SpendingFunction(0.025, "obf_like", sidedness="one_sided_upper"), [0.5, 1.0]),
        (SpendingFunction(0.05, "custom", table=((0.5, 0.01), (1.0, 0.05))), [0.5, 1.0]),
        (zero_spend, [0.5, 0.75, 1.0]),
    ):
        d = boundaries(sf, fractions)
        revived = design_from_text(design_to_text(d))
        assert revived == d
    # the zero-spend stages write and read back an infinite boundary
    assert "critical_values = inf,inf," in design_to_text(boundaries(zero_spend, [0.5, 0.75, 1.0]))


@pytest.mark.parametrize(
    "legacy, key",
    [("grid_points = 4001", "grid_points"), ("grid = jt:18", "grid")],
)
def test_design_text_rejects_other_grid_rules(legacy, key):
    text = design_to_text(boundaries(power3(), [0.5, 1.0]))
    assert "grid = jt:32\n" in text
    with pytest.raises(ValueError, match=f"key '{key}'"):
        design_from_text(text.replace("grid = jt:32", legacy))


@pytest.mark.parametrize(
    "info_level, z",
    [(100.0, math.nan), (math.nan, 1.0), (math.inf, 1.0), (0.0, 1.0), (-5.0, 1.0), (50.0, -math.inf)],
)
def test_monitor_rejects_non_finite_input(info_level, z):
    mon = SequentialMonitor(boundaries(power3(), [0.5, 0.75, 1.0]), total_information=100.0)
    with pytest.raises(ValueError, match="finite"):
        mon.step(info_level, z)
    assert mon.results == []


@pytest.mark.parametrize("fractions", [[math.nan, 0.75, 1.0], [0.5, math.nan, 1.0], [0.5, math.inf]])
def test_boundaries_reject_non_finite_fractions(fractions):
    with pytest.raises(ValueError, match="finite"):
        boundaries(power3(), fractions)


@pytest.mark.parametrize(
    "old, new, message",
    [
        ("stages = 3", "stages = 5", "stages = 5"),
        ("info_fractions = 0.5,0.75,1.0", "info_fractions = 0.5,nan,1.0", "finite"),
        ("info_fractions = 0.5,0.75,1.0", "info_fractions = 0.75,0.5,1.0", "strictly increasing"),
        # the trailing "#" comments out the values the design wrote
        ("critical_values = ", "critical_values = nan,nan,nan #", "key 'critical_values' must be >= 0"),
        ("critical_values = ", "critical_values = 2.7,-1.0,2.0 #", "key 'critical_values' must be >= 0"),
        ("critical_values = ", "critical_values = 2.7,abc,2.0 #", "key 'critical_values': 'abc' is not"),
        ("alpha_spent = ", "alpha_spent = nan,0.01,0.05 #", "key 'alpha_spent' must be nondecreasing"),
        ("alpha_spent = ", "alpha_spent = 0.00625,0.02,inf #", "key 'alpha_spent' must be nondecreasing"),
        ("alpha_spent = ", "alpha_spent = 0.02,0.01,0.05 #", "key 'alpha_spent' must be nondecreasing"),
        ("alpha_spent = ", "alpha_spent = -0.01,0.02,0.05 #", "key 'alpha_spent' must be nondecreasing"),
        ("alpha_spent = ", "alpha_spent = 0.00625,0.02,0.06 #", "key 'alpha_spent' must be nondecreasing"),
        ("stages = 3", "stages = x", "^key 'stages': 'x' is not an integer$"),
        ("spending = power:3.0", "spending = power:abc", "^key 'spending': 'abc' is not a number$"),
        ("spending = power:3.0", "spending = custom:0.5:x;1:0.05", "^key 'spending': 'x' is not a number$"),
    ],
)
def test_design_text_validates_the_schedule(old, new, message):
    text = design_to_text(boundaries(power3(), [0.5, 0.75, 1.0]))
    assert old in text
    with pytest.raises(ValueError, match=message):
        design_from_text(text.replace(old, new))


def test_design_text_refuses_a_repeated_key():
    text = design_to_text(boundaries(power3(), [0.5, 1.0]))
    assert text.startswith("stages = 2\nalpha = 0.05\n")
    with pytest.raises(ValueError, match="^line 3: key 'alpha' repeats line 2$"):
        design_from_text(text.replace("alpha = 0.05\n", "alpha = 0.05\nalpha = 0.1\n"))


def test_state_text_refuses_a_repeated_header_key():
    text = state_to_text(MonitoringState(design=boundaries(power3(), [0.5, 1.0]), total_information=150.0))
    with pytest.raises(ValueError, match="line 2: key 'total_information' repeats line 1"):
        state_from_text("total_information = 90.0\n" + text)


def test_design_text_rejects_garbage():
    with pytest.raises(ValueError):
        design_from_text("alpha : 0.05\n")
    with pytest.raises(ValueError, match="missing key"):
        design_from_text("alpha = 0.05\n")


@pytest.mark.parametrize("sides", ["one_sided_upper", "one_sided_lower"])
def test_one_sided_boundaries_solve_and_cross(sides):
    sf = SpendingFunction(0.025, "power", rho=2.0, sidedness=sides)
    d = boundaries(sf, [0.3, 0.6, 1.0])
    probs = crossing_probabilities(d, 0.0)
    increments = np.diff(np.concatenate(([0.0], d.alpha_spent)))
    assert probs == pytest.approx(increments, abs=1e-6)
    drift = 3.0 if sides == "one_sided_upper" else -3.0
    assert crossing_probabilities(d, drift).sum() > 0.5


def test_boundary_solves_stop_at_the_rounding_floor(monkeypatch):
    crossing_at, solve = _Propagator._crossing_at, _Propagator.solve_boundary
    calls = [0]
    solves = []

    def counted_crossing_at(self, if_k):
        crossing = crossing_at(self, if_k)

        def counted_crossing(c):
            calls[0] += 1
            return crossing(c)

        return counted_crossing

    def recorded_solve(self, if_k, increment):
        calls[0] = 0
        c = solve(self, if_k, increment)
        if 0.0 < c < math.inf:
            solves.append((calls[0], abs(crossing_at(self, if_k)(c)[0] - increment)))
        return c

    monkeypatch.setattr(_Propagator, "_crossing_at", counted_crossing_at)
    monkeypatch.setattr(_Propagator, "solve_boundary", recorded_solve)
    # crossing-hazard null; workers=1 so the patched methods are the ones called
    sc = Scenario(n0=100, n1=100, tau=1.0, alpha0=2.0, alpha1=-1.0,
                  covariate_scheme="normal1", phi=math.log(1.5))
    sc = Scenario(**{**sc.__dict__, "beta_w": null_beta_w(sc)})
    cal = calibrate_analysis_times(sc, replicates=20, seed=5,
                                   methods=("adjusted", "km"))
    run_oc(sc, build_design(sc), ("adjusted", "km"), replicates=12, seed=5, calibration=cal)
    assert sum(1 for n, _ in solves if n > 0) >= 24
    assert max(n for n, _ in solves) <= 8
    assert max(gap for _, gap in solves) <= 1e-12


_TOTAL_INFORMATION = 100.0


# -- the half mesh of the two-sided null ---------------------------------------

@pytest.fixture
def full_mesh(monkeypatch):
    """A switch that makes every propagator gsdesign builds from then on use
    the full mesh.

    A drift of 1e-300 shifts no stage mean by more than 1e-300, but it is not
    the zero drift under which a two-sided propagator keeps only x >= 0.
    """
    def full(sidedness, drift=0.0):
        return _Propagator(sidedness, drift=drift or 1e-300)

    return lambda: monkeypatch.setattr(gsdesign, "_Propagator", full)


def test_the_two_sided_null_propagates_on_the_half_mesh(full_mesh):
    half = _Propagator("two_sided")
    half.advance(0.5, 2.5)
    full_mesh()
    full = gsdesign._Propagator("two_sided")
    full.advance(0.5, 2.5)
    assert half._x.min() == 0.0 and full._x.min() < 0.0
    assert half._x.size == (full._x.size + 1) // 2
    np.testing.assert_allclose(half._x, full._x[full._x >= 0.0], rtol=0.0, atol=1e-299)


_HALF_MESH_DESIGNS = {
    "bench_3_stage": (power3(), (0.5, 0.75, 1.0)),
    "bench_6_stage": (power3(), tuple((k + 1) / 6 for k in range(6))),
    "obf_like": (SpendingFunction(0.05, "obf_like"), (0.2, 0.45, 0.7, 1.0)),
    "pocock_like": (SpendingFunction(0.05, "pocock_like"), (0.33, 0.67, 1.0)),
    "custom": (
        SpendingFunction(0.05, "custom", table=((0.3, 0.0), (0.6, 0.01), (1.0, 0.05))),
        (0.3, 0.6, 1.0),
    ),
}


@pytest.mark.parametrize("name", sorted(_HALF_MESH_DESIGNS))
def test_half_mesh_designs_match_the_full_mesh(full_mesh, name):
    sf, fractions = _HALF_MESH_DESIGNS[name]
    half = boundaries(sf, fractions)
    half_probs = crossing_probabilities(half)
    full_mesh()
    full = boundaries(sf, fractions)
    assert half.alpha_spent == full.alpha_spent
    np.testing.assert_allclose(half.critical_values, full.critical_values, rtol=0.0, atol=1e-12)
    np.testing.assert_allclose(half_probs, crossing_probabilities(full), rtol=0.0, atol=1e-12)


@pytest.mark.parametrize("name", sorted(_HALF_MESH_DESIGNS))
def test_half_mesh_monitor_steps_match_the_full_mesh(full_mesh, name):
    sf, fractions = _HALF_MESH_DESIGNS[name]
    design = boundaries(sf, fractions)
    # observed fractions off the planned ones, statistics that never reject
    observed = [0.9 * f + 0.03 * k for k, f in enumerate(fractions)]

    def run():
        mon = SequentialMonitor(design, _TOTAL_INFORMATION)
        for f in observed:
            mon.step(f * _TOTAL_INFORMATION, 0.25)
        return mon.results

    half = run()
    full_mesh()
    full = run()
    assert [r.decision for r in half] == [r.decision for r in full]
    assert [r.alpha_spent for r in half] == [r.alpha_spent for r in full]
    np.testing.assert_allclose(
        [r.boundary for r in half], [r.boundary for r in full], rtol=0.0, atol=1e-12
    )


def test_a_full_mesh_state_file_replays_on_the_half_mesh(full_mesh):
    design = boundaries(power3(), (0.25, 0.5, 0.75, 1.0))
    state = MonitoringState(design=design, total_information=_TOTAL_INFORMATION)
    looks = [(27.0, 1.1), (52.0, -0.8), (77.0, 1.9), (98.0, 0.4)]
    for k, (info, z) in enumerate(looks[:2], start=1):
        monitor(state, info, z, calendar_time=float(k))
    text = state_to_text(state)
    half = state_from_text(text)
    half_rest = [monitor(half, info, z) for info, z in looks[2:]]
    full_mesh()
    full = state_from_text(text)
    full_rest = [monitor(full, info, z) for info, z in looks[2:]]
    assert [r.decision for r in half_rest] == [r.decision for r in full_rest]
    np.testing.assert_allclose(
        [r.boundary for r in half_rest], [r.boundary for r in full_rest], rtol=0.0, atol=1e-12
    )


# -- properties of the monitor ---------------------------------------------------

@st.composite
def monitoring_runs(draw):
    """A design and one observed sequence of (information, z), one per stage.

    Information can overrun the total, which clamps and ends monitoring early,
    and after the first stage it can repeat or fall (staying positive), which
    the monitor raises.
    """
    k = draw(st.integers(1, 4))
    planned = sorted(draw(st.sets(st.integers(1, 19), min_size=k - 1, max_size=k - 1)))
    sf = SpendingFunction(
        draw(st.sampled_from((0.01, 0.025, 0.05, 0.1))),
        draw(st.sampled_from(("power", "obf_like", "pocock_like"))),
        rho=draw(st.floats(0.5, 4.0)),
        sidedness=draw(st.sampled_from(("two_sided", "one_sided_upper", "one_sided_lower"))),
    )
    design = boundaries(sf, [p / 20.0 for p in planned] + [1.0])
    infos = [draw(st.floats(5.0, 60.0))]
    for _ in range(k - 1):
        infos.append(draw(st.one_of(
            st.floats(5.0, 60.0).map(lambda step: infos[-1] + step),   # grows
            st.just(infos[-1]),                                        # repeats
            st.floats(0.5, 0.99).map(lambda share: infos[-1] * share),  # falls
        )))
    zs = draw(st.lists(st.floats(-5.0, 5.0), min_size=k, max_size=k))
    return design, list(zip(infos, zs))


def _run_live(design, stages):
    mon = SequentialMonitor(design, _TOTAL_INFORMATION)
    for info, z in stages:
        if mon.finished:
            break
        mon.step(info, z)
    return mon


@settings(max_examples=60, deadline=None)
@given(monitoring_runs())
def test_property_spent_alpha_nondecreasing_and_within_total(run):
    design, stages = run
    spent = [r.alpha_spent for r in _run_live(design, stages).results]
    assert all(b >= a for a, b in zip(spent, spent[1:]))
    assert all(0.0 <= a <= design.spending.total_alpha for a in spent)


@settings(max_examples=60, deadline=None)
@given(monitoring_runs())
def test_property_reject_iff_statistic_crosses_boundary(run):
    design, stages = run
    side = design.spending.sidedness
    for r in _run_live(design, stages).results:
        if side == "two_sided":
            crossed = abs(r.z) >= r.boundary
        elif side == "one_sided_upper":
            crossed = r.z >= r.boundary
        else:
            crossed = r.z <= -r.boundary
        assert (r.decision == "reject") == crossed


@settings(max_examples=40, deadline=None)
@given(monitoring_runs())
def test_property_state_replayed_from_text_matches_live_monitor(run):
    design, stages = run
    live = SequentialMonitor(design, _TOTAL_INFORMATION)
    state = MonitoringState(design=design, total_information=_TOTAL_INFORMATION)
    for stage, (info, z) in enumerate(stages, start=1):
        if live.finished:
            break
        state = state_from_text(state_to_text(state))
        assert monitor(state, info, z, calendar_time=float(stage)) == live.step(info, z)


@settings(max_examples=40, deadline=None)
@given(
    monitoring_runs(),
    st.integers(0, 3),
    st.sampled_from((math.nan, math.inf, -math.inf)),
    st.booleans(),
)
def test_property_non_finite_input_always_raises(run, done, bad, bad_is_z):
    design, stages = run
    mon = _run_live(design, stages[:done])
    before = list(mon.results)
    info = stages[-1][0] + 10.0
    with pytest.raises(ValueError, match="finite"):
        if bad_is_z:
            mon.step(info, bad)
        else:
            mon.step(bad, 0.0)
    assert mon.results == before


@settings(max_examples=40, deadline=None)
@given(monitoring_runs(), st.data())
def test_property_replay_admits_what_a_live_step_admits(run, data):
    design, stages = run
    state = MonitoringState(design=design, total_information=_TOTAL_INFORMATION)
    for stage, (info, z) in enumerate(stages, start=1):
        if state.finished:
            break
        state.step(info, z, calendar_time=float(stage))
    text = state_to_text(state)
    replayed = state_from_text(text)
    assert replayed.results == state.results
    assert replayed.calendar_times == state.calendar_times
    assert state.finished   # every drawn session runs to a decision

    rows = text.splitlines()
    first_row = len(rows) - len(state.results)
    n = len(state.results)
    if n >= 2 and data.draw(st.booleans(), label="lower a calendar time"):
        # lower row j's calendar time to at most row j - 1's
        j = data.draw(st.integers(1, n - 1), label="row")
        lowered = j - data.draw(st.floats(0.0, 3.0), label="by")
        cells = rows[first_row + j].split(",")
        rows[first_row + j] = ",".join([cells[0], repr(lowered), *cells[2:]])
        live = MonitoringState(design=design, total_information=_TOTAL_INFORMATION)
        for t, r in zip(state.calendar_times[:j], state.results[:j]):
            live.step(r.observed_info_level, r.z, calendar_time=t)
        look = (state.results[j].observed_info_level, state.results[j].z, lowered)
    else:
        # a further row after the terminal one
        last = state.results[-1]
        rows.append(f"stage = {n + 1},{n + 1.0!r},{last.info_level!r},{last.info_fraction!r},"
                    f"{last.boundary!r},{last.z!r},continue,{last.alpha_spent!r}")
        j, live = n, state
        look = (last.info_level, last.z, n + 1.0)
    with pytest.raises(ValueError) as replay_error:
        state_from_text("\n".join(rows) + "\n")
    with pytest.raises(ValueError) as live_error:
        live.step(look[0], look[1], calendar_time=look[2])
    lineno = first_row + j + 1
    assert str(replay_error.value) == f"state file line {lineno}: {live_error.value}"


@settings(max_examples=40, deadline=None)
@given(monitoring_runs(), st.data())
def test_property_replay_refuses_a_row_with_another_decision(run, data):
    design, stages = run
    state = _run_live(design, stages)
    text = state_to_text(state)
    rows = text.splitlines()
    n = len(state.results)
    j = data.draw(st.integers(0, n - 1), label="row")
    other = data.draw(st.sampled_from(
        [d for d in ("continue", "reject", "accept") if d != state.results[j].decision]
    ), label="decision")
    first_row = len(rows) - n
    cells = rows[first_row + j].split(",")
    cells[6] = other
    rows[first_row + j] = ",".join(cells)
    with pytest.raises(ValueError, match=f"^state file line {first_row + j + 1}: decision '{other}' "):
        state_from_text("\n".join(rows) + "\n")


_ANY_FLOAT = st.one_of(
    st.sampled_from((math.nan, math.inf, -math.inf, 0.0, 1.0, -1.0)), st.floats(0.0, 1.0), st.floats()
)


@st.composite
def spending_tables(draw, total_alpha, corrupt=False):
    """Valid (IF, cumulative alpha) tables or, when ``corrupt``, ones with one
    entry replaced by any float."""
    fracs = sorted(draw(st.sets(st.floats(0.01, 0.99), max_size=3))) + [1.0]
    alphas = sorted(draw(st.lists(st.floats(0.0, 1.0), min_size=len(fracs) - 1,
                                  max_size=len(fracs) - 1)))
    table = [[f, a * total_alpha] for f, a in zip(fracs, alphas + [1.0])]
    if corrupt:
        table[draw(st.integers(0, len(table) - 1))][draw(st.integers(0, 1))] = draw(_ANY_FLOAT)
    return tuple(map(tuple, table))


def _fraction_lists():
    schedules = st.sets(st.floats(0.01, 0.99), max_size=4).map(lambda s: sorted(s) + [1.0])
    return st.one_of(schedules, st.lists(_ANY_FLOAT, max_size=4))


@st.composite
def spending_fields(draw):
    """Valid SpendingFunction fields with at most one of them, or one table
    entry, replaced by an arbitrary value."""
    total_alpha = draw(st.floats(0.001, 0.5))
    fields = dict(
        total_alpha=total_alpha,
        family=draw(st.sampled_from(("power", "obf_like", "pocock_like", "custom"))),
        rho=draw(st.floats(0.1, 10.0)),
        sidedness=draw(st.sampled_from(("two_sided", "one_sided_upper", "one_sided_lower"))),
        table=draw(spending_tables(total_alpha)),
    )
    replacements = {
        "total_alpha": _ANY_FLOAT, "rho": _ANY_FLOAT, "family": st.text(max_size=8),
        "sidedness": st.text(max_size=8), "table": st.one_of(
            st.none(), spending_tables(total_alpha, corrupt=True)),
    }
    name = draw(st.sampled_from([None, *replacements]))
    if name is not None:
        fields[name] = draw(replacements[name])
    return fields


def _check_design(design):
    assert not any(math.isnan(c) for c in design.critical_values)
    spent = design.alpha_spent
    assert all(0.0 <= a <= design.spending.total_alpha for a in spent)
    assert spent[-1] == design.spending.total_alpha


@settings(max_examples=300, deadline=None)
@given(spending_fields(), _fraction_lists())
@example(dict(total_alpha=0.05, rho=math.nan), [0.5, 1.0])
@example(dict(total_alpha=0.05, family="custom", table=((0.5, math.nan), (1.0, 0.05))), [0.5, 1.0])
@example(dict(total_alpha=0.9999999999999999, family="obf_like"), [0.5, 1.0])
@example(dict(total_alpha=0.05, family="custom", table=((0.5, 0.05 + 1e-13), (1.0, 0.05 + 1e-13))),
         [0.5, 1.0])
def test_property_spending_fields_build_a_design_or_raise_value_error(fields, fractions):
    try:
        design = boundaries(SpendingFunction(**fields), fractions)
    except ValueError:
        return
    _check_design(design)


@st.composite
def design_flags(draw):
    number = _ANY_FLOAT.map(repr)
    pair = st.tuples(number, number).map(":".join)
    spending = st.one_of(
        st.sampled_from(("obf", "pocock", "power", "obf_like", "pocock_like")),
        number.map("power:{}".format),
        st.lists(pair, min_size=1, max_size=3).map(lambda ps: "custom:" + ";".join(ps)),
        st.booleans().flatmap(lambda corrupt: spending_tables(0.05, corrupt)).map(
            lambda t: "custom:" + ";".join(f"{f!r}:{a!r}" for f, a in t)),
        st.text(max_size=12),
    )
    fractions = st.one_of(_fraction_lists().map(lambda fs: ",".join(map(repr, fs))),
                          st.text(max_size=12))
    return [
        "design", f"--alpha={draw(st.sampled_from(('0.05', '0.025')) | number)}",
        f"--sides={draw(st.sampled_from(('1', '2', 'one_sided_upper', 'one_sided_lower', '3')))}",
        f"--spending={draw(spending)}", f"--info-fractions={draw(fractions)}",
    ]


@settings(max_examples=300, deadline=None)
@given(design_flags())
@example(["design", "--spending=power:nan", "--info-fractions=0.5,1"])
@example(["design", "--spending=custom:0.5:nan;1:0.05", "--info-fractions=0.5,1"])
def test_property_design_flags_build_a_design_or_exit_with_an_error(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    assert (code, err.getvalue()[:7]) in ((EXIT_OK, ""), (EXIT_ERROR, "error: "))
