import math
import os
import re
import signal
import time
from concurrent.futures.process import BrokenProcessPool
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from scipy.stats import kstest

from seqsurv import (
    DegenerateDataError,
    Scenario,
    SeqSurvError,
    SpendingFunction,
    analytic_power,
    boundaries,
    build_design,
    calibrate_analysis_times,
    calibrate_effect,
    compare_sp,
    compare_sp_batch,
    cox_wald_batch,
    crossing_probabilities,
    generate_columns,
    km_compare,
    km_compare_batch,
    null_beta_w,
    oc_to_csv,
    run_oc,
    scenario_from_text,
    scenario_to_text,
    snapshot,
)
from conftest import PH_ALT_BASE, WORKERS, columns
from oracles import pool_adjacent_violators, weibull_survival
from seqsurv import sim


def base_scenario(**overrides):
    params = dict(
        n0=100,
        n1=100,
        tau=1.0,
        alpha0=1.0,
        alpha1=0.0,
        beta_w=0.0,
        covariate_scheme="none",
        phi=0.0,
        accrual=2.0,
        censor_rate=0.0,
    )
    params.update(overrides)
    return Scenario(**params)


def test_scenario_validation():
    with pytest.raises(ValueError, match="alpha0 \\+ alpha1"):
        base_scenario(alpha0=1.0, alpha1=-1.0)
    with pytest.raises(ValueError, match="increasing"):
        base_scenario(target_info_fractions=(0.75, 0.5, 1.0))
    with pytest.raises(ValueError, match="end at 1"):
        base_scenario(target_info_fractions=(0.3, 0.6, 0.9))
    with pytest.raises(ValueError, match="covariate_scheme"):
        base_scenario(covariate_scheme="weird")
    with pytest.raises(ValueError, match="n0 must be an integer >= 1, got 2.5"):
        base_scenario(n0=2.5)
    with pytest.raises(ValueError, match="k_analyses must be an integer >= 1, got 0"):
        base_scenario(k_analyses=0, target_info_fractions=())
    # numpy integers are integers
    assert base_scenario(n1=np.int64(7)).n1 == 7


@pytest.mark.parametrize("field, value", [
    ("tau", math.nan), ("tau", math.inf), ("alpha0", math.inf), ("alpha1", math.nan),
    ("gamma0", math.nan), ("beta_w", math.inf), ("phi", math.nan), ("accrual", math.nan),
    ("censor_rate", math.inf), ("total_alpha", math.nan), ("spending_rho", math.nan),
    ("target_info_fractions", (0.5, math.nan, 1.0)),
    ("target_info_fractions", (math.nan, 0.75, 1.0)),
    ("target_info_fractions", (0.5, 0.75, math.nan)),
])
def test_scenario_rejects_non_finite_fields(field, value):
    # a NaN passes every `<=` check, so each field is checked for finiteness first
    with pytest.raises(ValueError, match=f"^{field} must be finite"):
        Scenario(**{"n0": 20, "n1": 20, "tau": 1.0, field: value})


@pytest.mark.parametrize("fields, message", [
    # exp(800) overflows (every treated event at time 0), exp(-800) is 0 (never an event)
    ({"beta_w": 800.0}, "^beta_w = 800.0 puts exp"),
    ({"beta_w": -800.0}, "^beta_w = -800.0 puts exp"),
    # gamma0 is small enough that gamma0 * exp(750) is finite, but exp(750) is not
    ({"gamma0": 1e-300, "beta_w": 750.0}, "^beta_w = 750.0 puts exp"),
    ({"gamma0": 1e-320}, "^gamma0 = 1e-320 is outside float64's"),
    # the default gamma0 = log 2 / tau**alpha0: tau**alpha0 overflows, or is 0
    ({"tau": 1e300, "alpha0": 5.0}, "^tau = 1e\\+300 and alpha0 = 5.0 put the default gamma0"),
    ({"tau": 1e-300, "alpha0": 5.0}, "^tau = 1e-300 and alpha0 = 5.0 put the default gamma0"),
])
def test_scenario_refuses_a_rate_float64_cannot_hold(fields, message):
    with pytest.raises(ValueError, match=message):
        Scenario(**{"n0": 20, "n1": 20, "tau": 1.0, **fields})


def test_scenario_text_names_the_line_of_a_rate_float64_cannot_hold():
    text = "n0 = 20\nn1 = 20\ntau = 1.0\n# effect\nbeta_w = {}\n"
    with pytest.raises(ValueError, match="^scenario file line 5: beta_w = 800.0 puts exp"):
        scenario_from_text(text.format(800))
    # near the edge of the range every drawn time is still finite
    sc = scenario_from_text(text.format(700))
    assert np.all(np.isfinite(generate_columns(sc, seed=1).time_on_study))


def test_null_beta_w_values():
    assert null_beta_w(base_scenario(tau=1.0, alpha0=2.0, alpha1=-1.0)) == 0.0
    assert null_beta_w(base_scenario(tau=3.0, alpha0=2.0, alpha1=-1.0)) == pytest.approx(
        math.log(3.0)
    )
    assert null_beta_w(base_scenario(tau=3.0, alpha1=0.0)) == 0.0


def test_gamma0_default_halves_baseline_survival_at_tau():
    sc = base_scenario(tau=2.0, alpha0=1.5)
    assert weibull_survival(2.0, 1.5, sc.gamma0_value) == pytest.approx(0.5)


def test_exact_allocation_and_accrual_window():
    sc = base_scenario(n0=60, n1=40, accrual=3.0)
    cols = generate_columns(sc, seed=1)
    assert int((cols.arm == 0).sum()) == 60
    assert int((cols.arm == 1).sum()) == 40
    assert cols.entry.min() >= 0.0 and cols.entry.max() <= 3.0


def test_marginal_survival_matches_weibull_analytics():
    sc = base_scenario(n0=5000, n1=5000)
    cols = generate_columns(sc, seed=13)
    emp = float(np.mean(cols.time_on_study > sc.tau))
    expected = weibull_survival(sc.tau, sc.alpha0, sc.gamma0_value)
    se = math.sqrt(expected * (1 - expected) / 10000)
    assert abs(emp - expected) < 3 * se


def test_event_times_probability_transform_uniform():
    # exp(-rate * t^shape) of each subject's own parameters is uniform
    sc = base_scenario(
        n0=5000, n1=5000, alpha0=2.0, alpha1=-1.0, covariate_scheme="bernoulli2",
        phi=math.log(1.5),
    )
    sc = Scenario(**{**sc.__dict__, "beta_w": null_beta_w(sc)})
    cols = generate_columns(sc, seed=17)
    shape = sc.alpha0 + sc.alpha1 * cols.arm
    rate = sc.gamma0_value * np.exp(
        sc.beta_w * cols.arm + cols.covariates @ sc.covariate_effects
    )
    u = np.exp(-rate * cols.time_on_study**shape)
    for arm in (0, 1):
        stat = kstest(u[cols.arm == arm], "uniform")
        assert stat.pvalue > 0.01


def test_null_construction_equalizes_survival_at_tau():
    sc = base_scenario(n0=20000, n1=20000, alpha0=2.0, alpha1=-1.0)
    sc = Scenario(**{**sc.__dict__, "beta_w": null_beta_w(sc)})
    cols = generate_columns(sc, seed=23)
    s0 = float(np.mean(cols.time_on_study[cols.arm == 0] > sc.tau))
    s1 = float(np.mean(cols.time_on_study[cols.arm == 1] > sc.tau))
    se = math.sqrt(2 * 0.25 / 20000)
    assert abs(s1 - s0) < 3 * se


def test_censoring_fraction_five_percent_per_year():
    rate = -math.log(0.95)
    sc = base_scenario(n0=20000, n1=20000, censor_rate=rate)
    rng_cols = generate_columns(sc, seed=31)
    # among subjects whose event would land beyond one year, the chance of
    # being randomly censored within the year is 1 - 0.95
    censored_first_year = (~rng_cols.event) & (rng_cols.time_on_study <= 1.0)
    frac = float(censored_first_year.sum()) / len(rng_cols.event)
    # P(C <= 1, C < T): C ~ exp(rate); integrate against the event law
    # rather than deriving exactly, use a generous tolerance around 5%
    assert 0.01 < frac < 0.06
    # and the censoring mechanism alone satisfies P(C > 1) = 0.95
    c_draws = np.random.Generator(np.random.Philox(key=5)).exponential(1 / rate, 200000)
    assert float(np.mean(c_draws > 1.0)) == pytest.approx(0.95, abs=0.005)


def test_streams_reproducible_and_replicate_independent():
    sc = base_scenario()
    a = generate_columns(sc, seed=7, replicate=5)
    b = generate_columns(sc, seed=7, replicate=5)
    c = generate_columns(sc, seed=7, replicate=6)
    assert np.array_equal(a.time_on_study, b.time_on_study)
    assert not np.array_equal(a.time_on_study, c.time_on_study)


def test_calibration_times_monotone_and_end_at_study_end():
    sc = base_scenario()
    cal = calibrate_analysis_times(sc, replicates=40, seed=2)
    u = cal.analysis_times
    assert len(u) == 3
    assert u[0] < u[1] < u[2]
    assert u[2] == pytest.approx(sc.study_length)
    assert cal.total_information > 0


def test_calibration_single_target_is_study_end():
    sc = base_scenario(k_analyses=1, target_info_fractions=(1.0,))
    cal = calibrate_analysis_times(sc, replicates=20, seed=3)
    assert cal.analysis_times == (sc.study_length,)


def test_calibration_self_consistency_under_more_replicates():
    sc = base_scenario(n0=150, n1=150)
    cal1 = calibrate_analysis_times(sc, replicates=150, seed=4)
    cal2 = calibrate_analysis_times(sc, replicates=300, seed=4)
    grid_spacing = cal1.grid_times[1] - cal1.grid_times[0]
    for a, b in zip(cal1.analysis_times, cal2.analysis_times):
        assert abs(a - b) <= grid_spacing


def test_calibration_curve_is_monotone_output():
    sc = base_scenario(n0=60, n1=60)
    cal = calibrate_analysis_times(sc, replicates=30, seed=6)
    assert all(b >= a - 1e-9 for a, b in zip(cal.mean_info, cal.mean_info[1:]))


def test_calibration_pools_a_dip_in_mean_information(monkeypatch):
    # every replicate's adjusted information halves at one grid time, so the
    # mean curve dips there; the pooled curve is reported and inverted
    sc = base_scenario(n0=60, n1=60)
    real = sim.STATISTICS["adjusted"]
    dip = 6
    returned = []

    def adjusted_with_a_dip(snaps, t0):
        batch = real(snaps, t0)
        info = list(batch.info_level)
        info[dip] *= 0.5
        returned.append(info)
        return batch._replace(info_level=info)

    monkeypatch.setitem(sim.STATISTICS, "adjusted", adjusted_with_a_dip)
    cal = calibrate_analysis_times(sc, replicates=8, seed=6)
    assert cal.failures == 0 and len(returned) == 8
    assert cal.isotonic_applied
    means = np.mean(returned, axis=0)
    assert means[dip] < means[dip - 1]
    pooled = pool_adjacent_violators(means)
    assert cal.mean_info == pytest.approx(pooled, rel=1e-12, abs=0.0)
    assert pooled[dip - 2] == pooled[dip]  # the dip pools with the two times before it
    assert cal.total_information == pytest.approx(means[-1], rel=1e-12, abs=0.0)
    # the first two looks fall on segments that pooling changed
    want = [np.interp(f * means[-1], pooled, cal.grid_times) for f in (0.5, 0.75)]
    assert cal.analysis_times == pytest.approx(want + [sc.study_length], rel=1e-12, abs=0.0)
    assert cal.grid_times[3] < cal.analysis_times[0] < cal.grid_times[4]
    assert cal.grid_times[6] < cal.analysis_times[1] < cal.grid_times[7]


def test_calibration_identical_across_workers():
    # per-replicate information is added in replicate order, so the worker
    # count (which sets the block layout) cannot change the last bits
    sc = Scenario(n0=60, n1=60, tau=1.0, accrual=1.0, covariate_scheme="normal1", phi=0.3)
    cals = [
        calibrate_analysis_times(sc, replicates=30, seed=17, methods=("adjusted", "km", "cox"),
                                 workers=w)
        for w in (1, 2)
    ]
    assert cals[0] == cals[1]


def test_run_oc_deterministic_across_workers_and_runs():
    sc = base_scenario(n0=50, n1=50)
    design = build_design(sc)
    cal = calibrate_analysis_times(sc, replicates=30, seed=8, methods=("adjusted", "km"))
    oc1 = run_oc(sc, design, ("adjusted", "km"), replicates=60, seed=8, calibration=cal, workers=1)
    oc2 = run_oc(sc, design, ("adjusted", "km"), replicates=60, seed=8, calibration=cal, workers=2)
    oc3 = run_oc(sc, design, ("adjusted", "km"), replicates=60, seed=8, calibration=cal, workers=1)
    assert oc_to_csv(oc1) == oc_to_csv(oc2) == oc_to_csv(oc3)


def test_run_oc_cumulative_rejection_nondecreasing():
    sc = base_scenario(n0=80, n1=80, beta_w=-0.6)
    design = build_design(sc)
    cal = calibrate_analysis_times(sc, replicates=40, seed=9)
    oc = run_oc(sc, design, ("adjusted",), replicates=80, seed=9, calibration=cal)
    cum = oc.cumulative_rejection["adjusted"]
    assert all(b >= a for a, b in zip(cum, cum[1:]))
    ses = oc.standard_errors["adjusted"]
    for p, se in zip(cum, ses):
        assert se == pytest.approx(math.sqrt(p * (1 - p) / oc.used_replicates["adjusted"]))


def test_run_oc_takes_no_look_after_a_rejection(monkeypatch):
    sc = base_scenario(n0=50, n1=50)
    design = build_design(sc)
    cal = calibrate_analysis_times(sc, replicates=20, seed=8)
    real = sim.STATISTICS["adjusted"]
    z_first = 50.0

    def statistic(risk_sets, t0):
        # z_first at the first look; no statistic at any later look
        batch = real(risk_sets, t0)
        unavailable = [z_first is None or snap.calendar_time > cal.analysis_times[0]
                       for snap in risk_sets.snapshots]
        return batch._replace(
            z=[math.nan if u else z_first for u in unavailable],
            info_level=[math.nan if u else info for u, info in zip(unavailable, batch.info_level)],
            errors=[SeqSurvError("statistic unavailable") if u else e
                    for u, e in zip(unavailable, batch.errors)],
        )

    monkeypatch.setitem(sim.STATISTICS, "adjusted", statistic)
    oc = run_oc(sc, design, ("adjusted",), replicates=4, seed=3, calibration=cal, workers=1)
    assert oc.failures == {"adjusted": 0}
    assert oc.cumulative_rejection["adjusted"] == (1.0, 1.0, 1.0)
    # a statistic that fails at the first look still fails the replicate
    z_first = None
    with pytest.raises(SeqSurvError, match="4 of 4 replicates failed"):
        run_oc(sc, design, ("adjusted",), replicates=4, seed=3, calibration=cal, workers=1)


# Small trials under a strong effect: in 64 replicates some monitors reject at
# the first look, some at later looks, some never, and some fail.
_MIXED = Scenario(n0=15, n1=15, tau=1.0, beta_w=-1.0, covariate_scheme="normal1", phi=0.5,
                  accrual=2.0)


@pytest.fixture(scope="module")
def mixed_block():
    cal = calibrate_analysis_times(_MIXED, replicates=40, seed=3, methods=sim.METHODS)
    return (_MIXED, build_design(_MIXED), sim.METHODS, cal.analysis_times, cal.method_totals, 5)


def _monitor_alone(scenario, design, methods, analysis_times, method_totals, seed, r):
    """Replicate r's stages from one snapshot and one method_statistic per
    look and running method, the replicate monitored on its own."""
    cols = generate_columns(scenario, seed, r)
    stage = dict.fromkeys(methods, 0)
    monitors = dict.fromkeys(methods)
    for k, u in enumerate(analysis_times, start=1):
        snap = snapshot(cols, u)
        for m in [m for m in methods if m in monitors]:
            try:
                z, info = sim.method_statistic(m, snap, scenario.tau)
                if monitors[m] is None:
                    monitors[m] = sim.MonitoringState(design, method_totals[m])
                decision = monitors[m].step(info, z).decision
            except (SeqSurvError, ValueError):
                stage[m] = -1
                del monitors[m]
                continue
            if decision == "reject":
                stage[m] = k
            if decision != "continue":
                del monitors[m]
    return tuple(stage[m] for m in methods)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_replicates_stages_do_not_depend_on_its_block(mixed_block):
    wide = sim._monitor_block(*mixed_block, range(64))
    stages = [s for row in wide for s in row]
    assert 1 in stages and -1 in stages and 0 in stages
    assert [row[0] for row in wide].count(1) > 0  # adjusted monitors stopping at look 1
    for start in (0, 32):
        assert sim._monitor_block(*mixed_block, range(start, start + 32)) == wide[start:start + 32]
    for r in range(64):
        alone = sim._monitor_block(*mixed_block, range(r, r + 1))
        assert alone == [wide[r]] == [_monitor_alone(*mixed_block, r)]


@pytest.fixture(scope="module")
def mixed_alone(mixed_block):
    return [_monitor_alone(*mixed_block, r) for r in range(9)]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(replicates=st.integers(1, 9), workers=st.integers(1, 3), block=st.integers(1, 4))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_replicates_stages_do_not_depend_on_the_block_layout(
    mixed_block, mixed_alone, replicates, workers, block
):
    # the pool is kept across calls, so at most 3 worker processes exist at a time
    with mock.patch.object(sim, "_BLOCK_REPLICATES", block):
        stages = sim._map_replicates(sim._monitor_block, mixed_block, replicates, workers)
    assert stages == mixed_alone[:replicates]


def _recording_statistics(monkeypatch):
    """Wrap every STATISTICS entry; each call appends (method, rows, looks)."""
    calls = []

    def recording(m, real):
        def statistic(risk_sets, t0):
            times = {snap.calendar_time for snap in risk_sets.snapshots}
            calls.append((m, len(risk_sets.snapshots), len(times)))
            return real(risk_sets, t0)
        return statistic

    for m, real in list(sim.STATISTICS.items()):
        monkeypatch.setitem(sim.STATISTICS, m, recording(m, real))
    return calls


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_a_small_block_sends_consecutive_looks_in_one_call(monkeypatch, mixed_block, mixed_alone):
    calls = _recording_statistics(monkeypatch)
    # 2 replicates x 3 looks fit in 32 rows: one call per method
    assert sim._monitor_block(*mixed_block, range(2)) == mixed_alone[:2]
    assert calls == [(m, 6, 3) for m in sim.METHODS]
    # a full block takes one look per call
    calls.clear()
    sim._monitor_block(*mixed_block, range(32))
    assert calls[:3] == [(m, 32, 1) for m in sim.METHODS]
    assert all(looks == 1 for _, _, looks in calls)
    # no call holds more than _BLOCK_REPLICATES rows, whatever the block size
    for block in (1, 2, 3, 4):
        calls.clear()
        with mock.patch.object(sim, "_BLOCK_REPLICATES", block):
            stages = sim._map_replicates(sim._monitor_block, mixed_block, 9, 1)
        assert stages == mixed_alone
        assert max(rows for _, rows, _ in calls) <= block


# _MIXED with six looks: block sizes 1, 5, 10, 16 and 32 monitor it in chunks
# of 6, 6, 3 + 3, 2 + 2 + 2 and 1 look while every replicate runs, and some
# monitors stop inside a chunk
_MIXED_SIX = replace(_MIXED, k_analyses=6, target_info_fractions=tuple(k / 6 for k in range(1, 7)))


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_chunks_that_split_a_designs_looks_give_each_replicates_stages():
    cal = calibrate_analysis_times(_MIXED_SIX, replicates=40, seed=3, methods=sim.METHODS)
    fixed = (_MIXED_SIX, build_design(_MIXED_SIX), sim.METHODS, cal.analysis_times,
             cal.method_totals, 5)
    alone = [_monitor_alone(*fixed, r) for r in range(32)]
    stages = {s for row in alone for s in row}
    assert {-1, 0, 1, 4, 5, 6} <= stages  # stops inside 6-look, 3-look and 2-look chunks
    for block in (1, 5, 10, 16, 32):
        blocks = [range(start, min(start + block, 32)) for start in range(0, 32, block)]
        assert [row for rs in blocks for row in sim._monitor_block(*fixed, rs)] == alone


# study-end KM and Cox-Wald fail at replicates 2, 5, 6, 9 and 11 of seed 5
_TINY = Scenario(n0=4, n1=4, tau=1.0, beta_w=-3.0, covariate_scheme="normal1", phi=0.5,
                 accrual=2.0)


def _calibration_alone(scenario, grid, methods, seed, r):
    """Replicate r's calibration row from one method_statistic per grid time
    and, at the study end, per other method; NaN where the statistic raised."""
    cols = generate_columns(scenario, seed, sim._CALIBRATION_STREAM_OFFSET + r)
    looks = [("adjusted", u) for u in grid] + [(m, grid[-1]) for m in methods[1:]]
    row = []
    for m, u in looks:
        try:
            row.append(sim.method_statistic(m, snapshot(cols, u), scenario.tau)[1])
        except SeqSurvError:
            row.append(math.nan)
    return row


@pytest.fixture(scope="module")
def tiny_calibration():
    grid = tuple(np.linspace(_TINY.tau, _TINY.study_length, sim._CALIBRATION_GRID_SIZE))
    fixed = (_TINY, grid, sim.METHODS, 5)
    alone = np.array([_calibration_alone(*fixed, r) for r in range(12)])
    failed = np.isnan(alone[:, len(grid):]).any(axis=1)
    assert list(np.flatnonzero(failed)) == [2, 5, 6, 9, 11]  # failed study-end rows to align
    return fixed, alone


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(replicates=st.integers(1, 12), workers=st.integers(1, 3), block=st.integers(1, 4),
       end_rows=st.integers(1, 4))
@settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_a_replicates_calibration_row_does_not_depend_on_its_block_or_group(
    tiny_calibration, replicates, workers, block, end_rows
):
    fixed, alone = tiny_calibration
    # a forked worker keeps the group size it was forked with
    if workers > 1:
        end_rows = sim._END_BATCH_ROWS
    with mock.patch.object(sim, "_BLOCK_REPLICATES", block), \
            mock.patch.object(sim, "_END_BATCH_ROWS", end_rows):
        rows = sim._map_replicates(sim._calibration_block, fixed, replicates, workers)
    assert np.array_equal(np.array(rows), alone[:replicates], equal_nan=True)


def _special_rows():
    """A KM zero-variance row, a one-arm row (Cox-Wald's treatment variance
    is 0) and a row with no events (the Cox fits fail)."""
    no_events_by_t0 = snapshot(columns([
        ("a", 0, 0.0, 5.0, False, (0.3,)), ("b", 0, 0.0, 4.0, False, (-0.2,)),
        ("c", 1, 0.0, 5.0, False, (0.1,)), ("d", 1, 0.0, 3.0, True, (0.5,)),
    ]), 10.0)
    one_arm = snapshot(columns([
        ("a", 0, 0.0, 0.5, True, (0.3,)), ("b", 0, 0.0, 0.8, True, (-0.2,)),
        ("c", 0, 0.0, 2.0, False, (0.1,)),
    ]), 10.0)
    no_events = snapshot(columns([
        ("a", 0, 0.0, 5.0, False, (0.3,)), ("b", 1, 0.0, 4.0, False, (-0.2,)),
    ]), 10.0)
    return [no_events_by_t0, one_arm, no_events]


_BATCHES = {
    "adjusted": lambda snaps: compare_sp_batch(snaps, 1.0),
    "km": lambda snaps: km_compare_batch(snaps, 1.0),
    "cox": cox_wald_batch,
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("method", sim.METHODS)
def test_batch_statistic_rows_equal_their_batch_of_one(method):
    trials = [generate_columns(_MIXED, 9, r) for r in range(4)]
    snaps = [snapshot(cols, u) for cols in trials for u in (1.0, 1.8, 3.0)]
    special = _special_rows()
    snaps = snaps[:3] + special[:1] + snaps[3:7] + special[1:2] + snaps[7:] + special[2:]
    batch = _BATCHES[method](snaps)
    failed = 0
    for b, snap in enumerate(snaps):
        alone = _BATCHES[method]([snap])
        assert repr((batch.z[b], batch.info_level[b])) == repr((alone.z[0], alone.info_level[0]))
        assert type(batch.errors[b]) is type(alone.errors[0])
        assert str(batch.errors[b]) == str(alone.errors[0])
        if batch.errors[b] is None:
            assert (batch.z[b], batch.info_level[b]) == sim.method_statistic(method, snap, 1.0)
        else:
            failed += 1
            with pytest.raises(type(batch.errors[b]), match=re.escape(str(batch.errors[b]))):
                sim.method_statistic(method, snap, 1.0)
    assert batch.errors[:3] == [None] * 3 and batch.errors[4:8] == [None] * 4
    assert failed >= 2
    messages = [str(e) for e in batch.errors if e is not None]
    expected = {
        "adjusted": ["variance estimate is not positive", "both arms must be present"],
        "km": ["has zero variance: no events by t0 in either arm", "stratum 1 has no subjects"],
        "cox": ["treatment coefficient variance is not positive", "no observed events"],
    }[method]
    for text in expected:
        assert any(text in msg for msg in messages)


@pytest.mark.parametrize("t0", [math.nan, -1.0, 0.0, math.inf])
@pytest.mark.parametrize("method", sim.METHODS)
def test_statistics_reject_a_t0_that_is_not_finite_and_positive(hand_snapshot, method, t0):
    message = f"^t0 must be finite and positive, got {t0!r}$"
    with pytest.raises(ValueError, match=message):
        sim.method_statistic(method, hand_snapshot, t0)
    direct = {"adjusted": compare_sp, "km": km_compare}
    if method in direct:
        with pytest.raises(ValueError, match=message):
            direct[method](hand_snapshot, t0)


def test_statistics_keep_the_calendar_time_message(hand_snapshot):
    for statistic in (compare_sp, km_compare):
        with pytest.raises(ValueError, match="^survival time 6 exceeds the snapshot's calendar time 5$"):
            statistic(hand_snapshot, 6.0)


def test_run_oc_requires_matching_stage_counts():
    sc = base_scenario()
    design = build_design(Scenario(**{**sc.__dict__, "k_analyses": 2,
                                      "target_info_fractions": (0.5, 1.0)}))
    cal = calibrate_analysis_times(sc, replicates=10, seed=1)
    with pytest.raises(ValueError, match="stages"):
        run_oc(sc, design, ("adjusted",), replicates=10, seed=1, calibration=cal)


def test_scenario_text_roundtrip():
    sc = base_scenario(covariate_scheme="bernoulli2", phi=math.log(2), censor_rate=0.05)
    text = scenario_to_text(sc)
    revived = scenario_from_text(text)
    assert revived == sc


def test_scenario_text_null_keyword_and_default_gamma():
    text = (
        "n0 = 50\nn1 = 50\ntau = 2.0\nalpha0 = 2.0\nalpha1 = -1.0\n"
        "beta_w = null\ngamma0 = default\n"
    )
    sc = scenario_from_text(text)
    assert sc.beta_w == pytest.approx(math.log(2.0))
    assert sc.gamma0 is None


def test_scenario_text_errors_carry_line_numbers():
    with pytest.raises(ValueError, match="line 2"):
        scenario_from_text("n0 = 50\nbogus_key = 3\n")
    with pytest.raises(ValueError, match="line 1"):
        scenario_from_text("n0 fifty\n")
    with pytest.raises(ValueError, match="missing required"):
        scenario_from_text("n0 = 50\nn1 = 50\n")


@pytest.mark.parametrize(
    "text, message",
    [
        ("n0 = 5\nn1 = 5\nn0 = 7\ntau = 1.0\n", "^scenario file line 3: key 'n0' repeats line 1$"),
        ("n0 = 2.5\nn1 = 5\ntau = 1.0\n", "^scenario file line 1: key 'n0': '2.5' is not an integer$"),
        ("n0 = 5\nn1 = 5\ntau = 1.0\ntarget_info_fractions = 0.5,abc\n",
         "^scenario file line 4: key 'target_info_fractions': 'abc' is not a number$"),
        ("n0 = 5\nn1 = 5\ntau = one\n", "^scenario file line 3: key 'tau': 'one' is not a number$"),
    ],
)
def test_scenario_text_errors_name_the_line_and_key(text, message):
    with pytest.raises(ValueError, match=message):
        scenario_from_text(text)


def _effect_inputs(seed, **overrides):
    sc = base_scenario(n0=80, n1=80, **overrides)
    cal = calibrate_analysis_times(sc, replicates=40, seed=seed)
    return sc, build_design(sc), cal


def test_calibrate_effect_null_power_target_returns_null_value():
    sc, design, cal = _effect_inputs(14, alpha0=2.0, alpha1=-1.0)
    effect = calibrate_effect(sc, sc.total_alpha, design, calibration=cal, replicates=40, seed=14)
    # power equal to the significance level is met at the null, with no correction
    assert effect.beta_delta == null_beta_w(sc)
    assert [b for b, _ in effect.probes] == [null_beta_w(sc)] * 2


def test_calibrate_effect_inverts_the_analytic_power_with_two_probes(monkeypatch):
    sc, design, cal = _effect_inputs(15, covariate_scheme="normal1", phi=math.log(2.0))
    calls = []
    real_run_oc = sim.run_oc

    def counting_run_oc(*args, **kwargs):
        calls.append(args[0].beta_w)
        return real_run_oc(*args, **kwargs)

    monkeypatch.setattr(sim, "run_oc", counting_run_oc)
    effect = calibrate_effect(sc, 0.6, design, calibration=cal, replicates=40, seed=15)
    start = effect.probes[0][0]
    assert calls == [start, effect.beta_delta]
    assert effect.probes[1] == (effect.beta_delta, effect.power)
    assert null_beta_w(sc) - 4.0 <= effect.beta_delta <= null_beta_w(sc)

    # the analytic start's drift reproduces the target through the boundary engine
    drift = sim._adjusted_drift(sc, cal)(start)
    assert crossing_probabilities(design, drift).sum() == pytest.approx(0.6, abs=1e-9)
    # the fixed covariate sample stands in for the normal law: compare the
    # survival difference with 80-point Gauss-Hermite quadrature
    nodes, weights = np.polynomial.hermite_e.hermegauss(80)
    risks = np.exp(sc.phi * nodes)
    h = sc.gamma0_value * sc.tau**sc.alpha0
    delta = weights @ (np.exp(-h * math.exp(start) * risks) - np.exp(-h * risks))
    delta /= weights.sum()
    assert drift / math.sqrt(cal.method_totals["adjusted"]) == pytest.approx(delta, abs=1e-3)


def test_calibrate_effect_rejects_unreachable_targets():
    sc, design, cal = _effect_inputs(16)
    lower = boundaries(
        SpendingFunction(0.025, sidedness="one_sided_lower"), sc.target_info_fractions
    )
    with pytest.raises(SeqSurvError, match="one_sided_lower"):
        calibrate_effect(sc, 0.8, lower, calibration=cal, replicates=40)
    # at total information 1 the largest survival difference (about 0.49)
    # gives a drift far short of 80% power
    starved = replace(cal, method_totals={"adjusted": 1.0})
    with pytest.raises(SeqSurvError, match="out of reach"):
        calibrate_effect(sc, 0.8, design, calibration=starved, replicates=40)


@pytest.mark.parametrize("methods, message", [
    ((), "at least one method is required; choose from ('adjusted', 'km', 'cox')"),
    (("adjusted", "bogus"), "unknown method 'bogus'; choose from ('adjusted', 'km', 'cox')"),
    (("KM",), "unknown method 'KM'; choose from ('adjusted', 'km', 'cox')"),
    (("km", "km"), "method(s) 'km' given more than once"),
    (("adjusted", "km", "adjusted", "km"), "method(s) 'adjusted', 'km' given more than once"),
])
def test_simulation_entry_points_refuse_a_bad_method_list(effect_inputs, monkeypatch, methods, message):
    def no_replicates(*args):
        raise AssertionError("a replicate ran")

    monkeypatch.setattr(sim, "_map_replicates", no_replicates)
    sc, design, cal = effect_inputs
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        run_oc(sc, design, methods, replicates=4, calibration=cal)
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        calibrate_analysis_times(sc, replicates=4, methods=methods)


def test_simulation_entry_points_reject_zero_replicates():
    sc, design, cal = _effect_inputs(17)
    with pytest.raises(ValueError, match="replicates"):
        run_oc(sc, design, replicates=0, calibration=cal)
    with pytest.raises(ValueError, match="replicates"):
        calibrate_analysis_times(sc, replicates=0)
    with pytest.raises(ValueError, match="replicates"):
        calibrate_effect(sc, 0.8, design, calibration=cal, replicates=0)


@pytest.fixture(scope="module")
def effect_inputs():
    return _effect_inputs(17)


_TOTAL_ENTRY_POINTS = {
    "run_oc": lambda sc, design, cal: run_oc(sc, design, replicates=4, calibration=cal),
    "analytic_power": lambda sc, design, cal: analytic_power(sc, design, cal),
    "calibrate_effect": lambda sc, design, cal: calibrate_effect(
        sc, 0.8, design, calibration=cal, replicates=4),
}


@pytest.mark.parametrize("total", [0.0, math.nan, -5.0, math.inf])
@pytest.mark.parametrize("entry", sorted(_TOTAL_ENTRY_POINTS))
def test_entry_points_reject_a_total_information_that_is_not_finite_and_positive(
    effect_inputs, entry, total
):
    sc, design, cal = effect_inputs
    bad = replace(cal, method_totals={**cal.method_totals, "adjusted": total})
    message = (f"^calibration total information for method 'adjusted' must be finite "
               f"and positive, got {total!r}$")
    with pytest.raises(ValueError, match=message):
        _TOTAL_ENTRY_POINTS[entry](sc, design, bad)


def test_simulation_entry_points_reject_fewer_than_one_worker():
    sc, design, cal = _effect_inputs(17)
    message = "^workers must be at least 1, got 0$"
    with pytest.raises(ValueError, match=message):
        run_oc(sc, design, replicates=4, calibration=cal, workers=0)
    with pytest.raises(ValueError, match=message):
        calibrate_analysis_times(sc, replicates=4, workers=0)
    with pytest.raises(ValueError, match=message):
        calibrate_effect(sc, 0.8, design, calibration=cal, replicates=4, workers=0)
    # counts that are not integers (a bool is not a count) never reach the block layout
    entry_points = (
        lambda **counts: run_oc(sc, design, calibration=cal, **counts),
        lambda **counts: calibrate_analysis_times(sc, **counts),
        lambda **counts: calibrate_effect(sc, 0.8, design, calibration=cal, **counts),
    )
    bad_counts = [
        ("replicates", 2.5), ("replicates", "3"), ("replicates", True), ("replicates", None),
        ("workers", 1.5), ("workers", "2"), ("workers", True), ("workers", False),
    ]
    for entry in entry_points:
        for name, value in bad_counts:
            counts = {"replicates": 4, "workers": 1, name: value}
            with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
                entry(**counts)
        # numpy integers are counts
        assert entry(replicates=np.int64(2), workers=np.int32(1)) is not None


def test_calibration_evaluates_each_method_at_the_study_end_on_its_own(monkeypatch):
    # adjusted fails at the study end in every other replicate; km and cox are
    # still evaluated there, so their totals match an undisturbed run
    sc = base_scenario(n0=40, n1=40, covariate_scheme="normal1", phi=0.3)
    methods = ("adjusted", "km", "cox")
    clean = calibrate_analysis_times(sc, replicates=6, seed=5, methods=methods)
    real = sim.compare_sp_batch
    end_calls = []

    def compare_sp_batch_failing_at_the_end(snaps, t0):
        # each replicate's batch holds its grid-time snapshots, the study end last
        batch = real(snaps, t0)
        if snaps[-1].calendar_time == sc.study_length:
            end_calls.append(snaps[-1].calendar_time)
            if len(end_calls) % 2:
                errors = list(batch.errors)
                errors[-1] = DegenerateDataError("injected failure at the study end")
                return batch._replace(errors=errors)
        return batch

    monkeypatch.setattr(sim, "compare_sp_batch", compare_sp_batch_failing_at_the_end)
    cal = calibrate_analysis_times(sc, replicates=6, seed=5, methods=methods)
    assert len(end_calls) == 6
    assert cal.failures == clean.failures + 3
    assert math.isfinite(cal.method_totals["km"]) and math.isfinite(cal.method_totals["cox"])
    assert cal.method_totals["km"] == clean.method_totals["km"]
    assert cal.method_totals["cox"] == clean.method_totals["cox"]
    assert cal.method_totals["adjusted"] != clean.method_totals["adjusted"]


def test_calibrated_effect_replays_to_target_power(ph_alt_effect):
    effect = ph_alt_effect["effect"]
    scenario = Scenario(**{**PH_ALT_BASE.__dict__, "beta_w": effect.beta_delta})
    replay = run_oc(
        scenario, ph_alt_effect["design"], ("adjusted",), replicates=10000, seed=606,
        calibration=ph_alt_effect["calibration"], workers=WORKERS,
    )
    power = replay.final_rejection("adjusted")
    assert power == pytest.approx(0.80, abs=0.02)
    # the canonical joint distribution predicts the simulated power
    expected = analytic_power(scenario, ph_alt_effect["design"], ph_alt_effect["calibration"])
    assert abs(power - expected) <= 3 * replay.standard_errors["adjusted"][-1]


def test_oc_csv_layout():
    sc = base_scenario(n0=40, n1=40)
    design = build_design(sc)
    cal = calibrate_analysis_times(sc, replicates=20, seed=12)
    oc = run_oc(sc, design, ("adjusted",), replicates=20, seed=12, calibration=cal)
    lines = oc_to_csv(oc).splitlines()
    assert lines[0] == "stage,method,cum_rejection,se"
    assert len(lines) == 1 + 3
    assert lines[1].startswith("1,adjusted,")


def _worker_pid(_):
    time.sleep(0.05)  # long enough that every worker takes a block
    return os.getpid()


def _kill_own_process(_):
    os.kill(os.getpid(), signal.SIGKILL)


def _small_oc(workers):
    sc = base_scenario(n0=50, n1=50)
    cal = calibrate_analysis_times(sc, replicates=20, seed=8,
                                   methods=("adjusted", "km"))
    oc = run_oc(sc, build_design(sc), ("adjusted", "km"), replicates=16, seed=8,
                calibration=cal, workers=workers)
    return oc_to_csv(oc)


def test_worker_pool_is_reused_across_calls():
    first = set(sim._run_blocks(_worker_pid, list(range(4)), 2))
    second = set(sim._run_blocks(_worker_pid, list(range(4)), 2))
    assert os.getpid() not in first
    # a pool per call would have run the second call on two new processes
    assert len(first | second) <= 2


def test_run_oc_reruns_blocks_after_a_worker_is_killed():
    expected = _small_oc(1)
    assert _small_oc(2) == expected
    victim = sim._run_blocks(_worker_pid, list(range(4)), 2)[0]
    os.kill(victim, signal.SIGKILL)
    # the pool reaps its workers once it has noticed the break
    deadline = time.monotonic() + 30.0
    while time.monotonic() < deadline:
        try:
            os.kill(victim, 0)
        except ProcessLookupError:
            break
        time.sleep(0.01)
    else:
        pytest.fail("the killed worker was never reaped")
    assert _small_oc(2) == expected


def test_run_oc_identical_as_the_worker_count_changes():
    outputs = [_small_oc(w) for w in (2, 3, 2)]
    assert outputs[0] == outputs[1] == outputs[2]


def test_second_pool_break_raises():
    with pytest.raises(BrokenProcessPool):
        sim._run_blocks(_kill_own_process, [0, 1], 2)
    assert len(set(sim._run_blocks(_worker_pid, list(range(4)), 2))) <= 2
