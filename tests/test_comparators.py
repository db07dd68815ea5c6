import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from seqsurv import (
    DegenerateDataError,
    cox_wald,
    cox_wald_batch,
    fit_mple,
    km_compare,
    snapshot,
    variance_components,
)
from conftest import columns, random_dataset, snapshot_arrays
from oracles import fd_gradient, fd_hessian, naive_km, naive_log_pl


def test_km_product_limit_by_hand():
    # four subjects, events at 1 and 2: S(t0) = (3/4)(2/3) = 1/2 between 2 and 3;
    # the one treatment subject is censored, so all variance is the control arm's
    recs = columns([
        ("a", 0, 0.0, 1.0, True, ()),
        ("b", 0, 0.0, 2.0, True, ()),
        ("c", 0, 0.0, 3.0, False, ()),
        ("d", 0, 0.0, 4.0, False, ()),
        ("e", 1, 0.0, 4.0, False, ()),
    ])
    res = km_compare(snapshot(recs, 10.0), 2.5)
    assert res.s_hat == pytest.approx((0.5, 1.0))
    assert 0.0 < 1.0 / res.info_level < np.inf


def _tied_dataset():
    # times on a half-unit grid, so several events share a time
    cols = random_dataset(np.random.default_rng(12), n=16)
    return cols._replace(time_on_study=0.5 * np.round(2.0 * cols.time_on_study) + 0.5)


def test_km_matches_naive_oracle():
    # beyond an arm's last follow-up the estimate is carried flat, which is
    # also what the product over all of the arm's event times gives
    datasets = (random_dataset(np.random.default_rng(11), n=12), _tied_dataset())
    for recs in datasets:
        snap = snapshot(recs, 10.0)
        x, d, a, _ = snapshot_arrays(snap)
        arms = [
            ([xi for xi, ai in zip(x, a) if ai == arm], [di for di, ai in zip(d, a) if ai == arm])
            for arm in (0, 1)
        ]
        for t0 in (0.3, 0.8, 1.5, 3.0):
            naive = [naive_km(xs, ds, t0) for xs, ds in arms]
            total_var = naive[0][1] + naive[1][1]
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                if total_var == 0.0:
                    with pytest.raises(DegenerateDataError):
                        km_compare(snap, t0)
                    continue
                res = km_compare(snap, t0)
            assert len(caught) == sum(t0 > max(xs) for xs, _ in arms)
            assert res.s_hat == pytest.approx((naive[0][0], naive[1][0]))
            assert 1.0 / res.info_level == pytest.approx(total_var)
    tied = snapshot(datasets[1], 10.0)
    event_times = tied.follow_up[tied.event_observed]
    assert np.unique(event_times).size < event_times.size


def test_km_no_censoring_equals_empirical_survival():
    rng = np.random.default_rng(5)
    times = rng.exponential(1.0, 40)
    rows = [(f"s{j}", 0, 0.0, float(t), True, ()) for j, t in enumerate(times)]
    rows.append(("pad", 1, 0.0, 2.0, False, ()))
    snap = snapshot(columns(rows), 100.0)
    for t0 in (0.2, 0.7, 1.4):
        assert km_compare(snap, t0).s_hat[0] == pytest.approx(np.mean(times > t0))


@pytest.mark.filterwarnings("ignore:stratum .* no subjects under observation:RuntimeWarning")
def test_km_below_exp_nelson_aalen():
    rng = np.random.default_rng(6)
    snap = snapshot(random_dataset(rng, n=12, p=1), 10.0)
    # strip covariates so the p=0 fit gives the per-stratum Nelson-Aalen baseline;
    # beyond an arm's last follow-up both estimates stay flat
    bare_snap = replace(snap, covariates=np.empty((snap.n, 0)))
    fit = fit_mple(bare_snap)
    for t0 in (0.5, 1.0, 2.0):
        res = km_compare(bare_snap, t0)
        lam = variance_components(fit, t0).baseline_cumhaz_t0
        for stratum in (0, 1):
            fh_val = float(np.exp(-lam[stratum]))
            assert res.s_hat[stratum] <= fh_val + 1e-12


def test_km_compare_zero_events_raises_degenerate():
    recs = columns([
        ("a", 0, 0.0, 5.0, False, ()),
        ("b", 1, 0.0, 5.0, False, ()),
    ])
    with pytest.raises(DegenerateDataError, match="zero variance: no events by t0 in either arm"):
        km_compare(snapshot(recs, 10.0), 2.0)


def test_km_carried_flat_with_warning():
    recs = columns([
        ("a", 0, 0.0, 1.0, True, ()),
        ("b", 0, 0.0, 1.5, False, ()),
        ("c", 1, 0.0, 3.0, True, ()),
        ("d", 1, 0.0, 3.5, False, ()),
    ])
    snap = snapshot(recs, 10.0)
    with pytest.warns(RuntimeWarning, match="carrying"):
        res = km_compare(snap, 2.5)
    assert res.s_hat[0] == pytest.approx(0.5)


def test_km_z_form():
    rng = np.random.default_rng(21)
    recs = random_dataset(rng, n=12)
    res = km_compare(snapshot(recs, 10.0), 1.0)
    assert res.z == pytest.approx(res.estimate / res.se)
    assert res.info_level == pytest.approx(1.0 / res.se**2)


def test_cox_wald_symmetric_arms_zero():
    base = [(0.9, True), (1.7, True), (2.4, False)]
    rows = []
    for i, (t, d) in enumerate(base):
        rows.append((f"c{i}", 0, 0.0, t, d, ()))
        rows.append((f"t{i}", 1, 0.0, t, d, ()))
    res = cox_wald(snapshot(columns(rows), 10.0))
    assert res.estimate == pytest.approx(0.0, abs=1e-9)
    assert res.z == pytest.approx(0.0, abs=1e-9)


def test_cox_wald_equals_stratified_machinery_with_indicator(hand_snapshot):
    # the arm as the first covariate on a single stratum is the model
    # cox_wald fits, from the per-arm sums of its pooled kernel
    res = cox_wald(hand_snapshot)
    merged = replace(
        hand_snapshot,
        arm=np.zeros(hand_snapshot.n, dtype=np.int8),
        covariates=np.column_stack([hand_snapshot.arm, hand_snapshot.covariates]),
    )
    fit = fit_mple(merged)
    assert res.estimate == pytest.approx(fit.beta_hat[0], rel=1e-10)
    assert res.fit.beta_hat == pytest.approx(fit.beta_hat, rel=1e-10)
    cov = np.linalg.inv(fit.observed_information)
    assert res.se == pytest.approx(np.sqrt(cov[0, 0]), rel=1e-10)
    assert res.info_level == pytest.approx(1.0 / cov[0, 0], rel=1e-10)


def _cox_wald_row(snap):
    """``cox_wald_batch`` on one snapshot, with the texts of the warnings it gave."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        batch = cox_wald_batch([snap])
    return batch, [str(w.message) for w in caught]


def test_cox_wald_row_without_events_is_degenerate_and_warns():
    rows = [("a", 0, 0.0, 1.0, False, (0.5,)), ("b", 0, 0.0, 2.0, False, (-0.3,)),
            ("c", 1, 0.0, 1.5, False, (1.2,)), ("d", 1, 0.0, 0.7, False, (0.1,))]
    batch, warned = _cox_wald_row(snapshot(columns(rows), 5.0))
    assert type(batch.errors[0]) is DegenerateDataError
    assert str(batch.errors[0]) == "no observed events in any stratum by calendar time 5"
    assert warned == [
        "stratum 0 has 4 subjects but no observed events by calendar time 5; "
        "its baseline hazard estimate is zero"
    ]
    assert math.isnan(batch.z[0]) and math.isnan(batch.info_level[0])


def test_cox_wald_row_with_an_event_free_arm_is_finite_without_warnings():
    # the treated arm is at risk at two control events but has none of its
    # own: its coefficient runs off until the score falls below tolerance
    rows = [("a", 0, 0.0, 0.9, True, (0.5,)), ("b", 0, 0.0, 1.7, True, (-0.3,)),
            ("c", 0, 0.0, 2.4, False, (1.2,)), ("d", 1, 0.0, 0.6, False, (0.1,)),
            ("e", 1, 0.0, 1.1, False, (-1.0,)), ("f", 1, 0.0, 2.0, False, (0.7,))]
    batch, warned = _cox_wald_row(snapshot(columns(rows), 5.0))
    assert batch.errors[0] is None
    assert warned == []
    assert int(batch.fits.iterations[0]) == 18 and int(batch.fits.step_halvings[0]) == 0
    assert batch.estimate[0] == pytest.approx(-19.02307128548388, rel=1e-6)
    assert batch.z[0] == pytest.approx(-0.001767068057456629, rel=1e-6)
    assert math.isfinite(batch.info_level[0]) and batch.info_level[0] > 0.0


def test_cox_wald_day_rounded_row_with_arms_tied_at_event_times_matches_naive():
    # whole-day times: both arms have events on days 30 and 60, a censoring
    # ties an event on day 90, and one arm's first event comes before the other's
    rows = [
        ("a", 0, 0.0, 30.0, True, (0.4,)), ("b", 0, 0.0, 30.0, True, (-0.6,)),
        ("c", 0, 5.0, 60.0, True, (0.9,)), ("d", 0, 0.0, 90.0, True, (0.0,)),
        ("e", 0, 0.0, 90.0, False, (1.3,)), ("f", 0, 0.0, 200.0, False, (-0.2,)),
        ("g", 1, 0.0, 12.0, True, (-1.1,)), ("h", 1, 0.0, 30.0, True, (0.3,)),
        ("i", 1, 0.0, 60.0, True, (0.8,)), ("j", 1, 9.0, 60.0, True, (-0.4,)),
        ("k", 1, 0.0, 150.0, True, (0.5,)), ("l", 1, 0.0, 240.0, False, (0.2,)),
    ]
    snap = snapshot(columns(rows), 365.0)
    batch, warned = _cox_wald_row(snap)
    assert batch.errors[0] is None
    assert warned == []
    x, d, a, z = snapshot_arrays(snap)
    pooled = [np.concatenate(([arm], zi)) for arm, zi in zip(a, z)]
    f = lambda b: naive_log_pl(b, x, d, [0] * len(a), pooled)
    beta = batch.fits.beta_hat[0]
    assert fd_gradient(f, beta) == pytest.approx(np.zeros(2), abs=1e-6)
    information = -fd_hessian(f, beta)
    var_w = np.linalg.inv(information)[0, 0]
    assert batch.se[0] == pytest.approx(math.sqrt(var_w), rel=1e-4)
    assert batch.z[0] == pytest.approx(beta[0] / math.sqrt(var_w), rel=1e-4)


def test_cox_wald_detects_effect():
    rng = np.random.default_rng(8)
    n = 400
    rows = []
    for j in range(n):
        arm = j % 2
        t = float(rng.exponential(1.0) * (0.5 if arm else 1.0))
        rows.append((f"s{j}", arm, 0.0, t, True, ()))
    res = cox_wald(snapshot(columns(rows), 100.0))
    assert res.estimate > 0.4  # hazard ratio 2 means log-rate near 0.69
    assert res.z > 3.0


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_km_single_look_inflates_at_early_analysis():
    # with influential covariates and an early look (few subjects followed to
    # t0 yet) the unadjusted comparison runs above its nominal level
    from seqsurv import Scenario, generate_columns

    sc = Scenario(n0=200, n1=200, tau=1.0, alpha0=2.0, alpha1=-1.0, beta_w=0.0,
                  covariate_scheme="normal1", phi=np.log(2.0), accrual=2.0)
    reps = 2000
    rejections = 0
    for r in range(reps):
        kc = km_compare(snapshot(generate_columns(sc, 77, r), 1.15), 1.0)
        rejections += abs(kc.z) > 1.959964
    assert rejections / reps > 0.05


def test_cox_single_look_nominal_under_proportional_hazards():
    from seqsurv import Scenario, generate_columns

    sc = Scenario(n0=400, n1=400, tau=1.0, alpha0=1.0, alpha1=0.0, beta_w=0.0,
                  covariate_scheme="normal1", phi=np.log(1.5), accrual=2.0)
    reps = 1500
    rejections = 0
    for r in range(reps):
        cw = cox_wald(snapshot(generate_columns(sc, 818, r), 3.0))
        rejections += abs(cw.z) > 1.959964
    assert rejections / reps == pytest.approx(0.05, abs=0.017)


def test_cox_single_look_breaks_under_crossing_hazards():
    from seqsurv import Scenario, generate_columns

    sc = Scenario(n0=400, n1=400, tau=1.0, alpha0=2.0, alpha1=-1.0, beta_w=0.0,
                  covariate_scheme="normal1", phi=np.log(1.5), accrual=2.0)
    reps = 800
    rejections = 0
    for r in range(reps):
        cw = cox_wald(snapshot(generate_columns(sc, 919, r), 3.0))
        rejections += abs(cw.z) > 1.959964
    assert rejections / reps >= 0.70
