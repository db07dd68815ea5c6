import numpy as np
import pytest

from seqsurv import (
    DegenerateDataError,
    SubjectRecord,
    cox_wald,
    fit_mple,
    km_compare,
    km_fit,
    snapshot,
)
from conftest import random_dataset, snapshot_arrays
from oracles import naive_km


def test_km_product_limit_by_hand():
    # four subjects, events at 1 and 2: S(t0) = (3/4)(2/3) = 1/2 between 2 and 3
    recs = [
        SubjectRecord("a", 0, 0.0, 1.0, True, ()),
        SubjectRecord("b", 0, 0.0, 2.0, True, ()),
        SubjectRecord("c", 0, 0.0, 3.0, False, ()),
        SubjectRecord("d", 0, 0.0, 4.0, False, ()),
        SubjectRecord("e", 1, 0.0, 4.0, False, ()),
    ]
    est = km_fit(snapshot(recs, 10.0), 0)
    s, v = est.at(2.5)
    assert s == pytest.approx(0.5)
    assert v > 0


def test_km_matches_naive_oracle():
    rng = np.random.default_rng(11)
    recs = random_dataset(rng, n=12)
    snap = snapshot(recs, 10.0)
    x, d, a, _ = snapshot_arrays(snap)
    for stratum in (0, 1):
        est = km_fit(snap, stratum)
        xs = [xi for xi, ai in zip(x, a) if ai == stratum]
        ds = [di for di, ai in zip(d, a) if ai == stratum]
        for t0 in (0.3, 0.8, 1.5, 3.0):
            s_naive, v_naive = naive_km(xs, ds, t0)
            s_got, v_got = est.at(min(t0, max(xs)))
            if t0 <= max(xs):
                assert s_got == pytest.approx(s_naive)
                assert v_got == pytest.approx(v_naive)


def test_km_no_censoring_equals_empirical_survival():
    rng = np.random.default_rng(5)
    times = rng.exponential(1.0, 40)
    recs = [SubjectRecord(f"s{j}", 0, 0.0, float(t), True, ()) for j, t in enumerate(times)]
    recs.append(SubjectRecord("pad", 1, 0.0, 1.0, True, ()))
    est = km_fit(snapshot(recs, 100.0), 0)
    for t0 in (0.2, 0.7, 1.4):
        s, _ = est.at(t0)
        assert s == pytest.approx(np.mean(times > t0))


def test_km_below_exp_nelson_aalen():
    rng = np.random.default_rng(6)
    recs = random_dataset(rng, n=12, p=1)
    snap = snapshot(recs, 10.0)
    # strip covariates so the p=0 fit gives the per-stratum Nelson-Aalen baseline
    bare = [
        SubjectRecord(r.id, r.arm, 0.0, r.follow_up, r.event_observed, ())
        for r in snap.records
    ]
    bare_snap = snapshot(bare, 10.0)
    fit = fit_mple(bare_snap)
    for stratum in (0, 1):
        est = km_fit(bare_snap, stratum)
        for t0 in (0.5, 1.0, 2.0):
            km_val, _ = est.at(min(t0, est.max_follow_up))
            fh_val = float(np.exp(-fit.baseline_cum_hazard[stratum](min(t0, est.max_follow_up))))
            assert km_val <= fh_val + 1e-12


def test_km_compare_zero_events_raises_degenerate():
    recs = [
        SubjectRecord("a", 0, 0.0, 5.0, False, ()),
        SubjectRecord("b", 1, 0.0, 5.0, False, ()),
    ]
    with pytest.raises(DegenerateDataError, match="zero variance: no events by t0 in either arm"):
        km_compare(snapshot(recs, 10.0), 2.0)


def test_km_carried_flat_with_warning():
    recs = [
        SubjectRecord("a", 0, 0.0, 1.0, True, ()),
        SubjectRecord("b", 0, 0.0, 1.5, False, ()),
        SubjectRecord("c", 1, 0.0, 3.0, True, ()),
        SubjectRecord("d", 1, 0.0, 3.5, False, ()),
    ]
    snap = snapshot(recs, 10.0)
    with pytest.warns(RuntimeWarning, match="carrying"):
        res = km_compare(snap, 2.5)
    assert res.s_hat[0] == pytest.approx(0.5)


def test_km_z_form():
    rng = np.random.default_rng(21)
    recs = random_dataset(rng, n=12)
    res = km_compare(snapshot(recs, 10.0), 1.0)
    assert res.z == pytest.approx(res.diff / res.se)
    assert res.info_level == pytest.approx(1.0 / res.se**2)


def test_cox_wald_symmetric_arms_zero():
    base = [(0.9, True), (1.7, True), (2.4, False)]
    recs = []
    for i, (t, d) in enumerate(base):
        recs.append(SubjectRecord(f"c{i}", 0, 0.0, t, d, ()))
        recs.append(SubjectRecord(f"t{i}", 1, 0.0, t, d, ()))
    res = cox_wald(snapshot(recs, 10.0))
    assert res.beta_w_hat == pytest.approx(0.0, abs=1e-9)
    assert res.z == pytest.approx(0.0, abs=1e-9)


def test_cox_wald_equals_stratified_machinery_with_indicator(hand_snapshot):
    # appending the arm as a covariate on a single stratum is exactly what
    # cox_wald does; verify the reuse explicitly
    res = cox_wald(hand_snapshot)
    merged = [
        SubjectRecord(
            r.id, 0, 0.0, r.follow_up, r.event_observed, (float(r.arm),) + r.covariates
        )
        for r in hand_snapshot.records
    ]
    fit = fit_mple(snapshot(merged, 10.0))
    assert res.beta_w_hat == pytest.approx(fit.beta_hat[0])
    assert res.fit.beta_hat == pytest.approx(fit.beta_hat)
    cov = np.linalg.inv(fit.observed_information)
    assert res.se == pytest.approx(np.sqrt(cov[0, 0]))
    assert res.info_level == pytest.approx(1.0 / cov[0, 0])


def test_cox_wald_detects_effect():
    rng = np.random.default_rng(8)
    n = 400
    recs = []
    for j in range(n):
        arm = j % 2
        t = float(rng.exponential(1.0) * (0.5 if arm else 1.0))
        recs.append(SubjectRecord(f"s{j}", arm, 0.0, t, True, ()))
    res = cox_wald(snapshot(recs, 100.0))
    assert res.beta_w_hat > 0.4  # hazard ratio 2 means log-rate near 0.69
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
