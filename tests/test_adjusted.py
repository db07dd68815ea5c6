from dataclasses import fields, replace

import numpy as np
import pytest

from seqsurv import (
    DegenerateDataError,
    VarianceComponents,
    compare_sp,
    compare_sp_batch,
    cox_wald,
    fit_mple,
    fit_mple_batch,
    snapshot,
    variance_components,
)
from conftest import columns, random_dataset, snapshot_arrays
from oracles import grid_refine_argmax, naive_adjusted_sp, naive_log_pl, naive_variance_pieces


def test_conditional_survival_at_zero_covariates(hand_snapshot):
    t = 1.5
    # averaging over subjects whose covariates are all zero leaves exp(-Lambda)
    zeroed = replace(hand_snapshot, covariates=np.zeros_like(hand_snapshot.covariates))
    fit = fit_mple(zeroed)
    comps = variance_components(fit, t)
    assert comps.adjusted_sp[0] == pytest.approx(np.exp(-comps.baseline_cumhaz_t0[0]))


def test_conditional_survival_before_first_event_is_one(hand_snapshot):
    fit = fit_mple(hand_snapshot)
    assert variance_components(fit, 0.1).adjusted_sp[0] == 1.0
    assert variance_components(fit, 0.3).adjusted_sp[1] == 1.0


def test_conditional_survival_beyond_horizon_rejected(hand_snapshot):
    fit = fit_mple(hand_snapshot)
    with pytest.raises(ValueError, match="horizon"):
        variance_components(fit, 6.0)


def test_variance_components_average_over_the_fitted_rows_snapshot(hand_snapshot, hand_snapshot_8):
    batch = fit_mple_batch([hand_snapshot, hand_snapshot_8])
    for b, snap in enumerate((hand_snapshot, hand_snapshot_8)):
        comps = variance_components(batch.fit(b), 2.0)
        alone = variance_components(fit_mple(snap), 2.0)
        assert comps.n == snap.n
        for field in fields(VarianceComponents):
            got, want = getattr(comps, field.name), getattr(alone, field.name)
            if isinstance(want, np.ndarray):
                assert got.shape == want.shape and got.tobytes() == want.tobytes(), field.name
            else:
                assert got == want, field.name


def test_variance_components_refuse_a_cox_wald_fit(hand_snapshot):
    with pytest.raises(ValueError, match="treatment-stratified fit"):
        variance_components(cox_wald(hand_snapshot).fit, 2.0)


def test_conditional_survival_composes_fit_and_baseline(hand_snapshot):
    fit = fit_mple(hand_snapshot)
    x, d, a, z = snapshot_arrays(hand_snapshot)
    best = grid_refine_argmax(
        lambda b: naive_log_pl(b, x, d, a, z), np.array([-3.0]), np.array([3.0]), rounds=14
    )
    t = 2.0
    expected = naive_adjusted_sp(best, x, d, a, z, 1, t)
    assert variance_components(fit, t).adjusted_sp[1] == pytest.approx(
        expected, abs=1e-6
    )


def test_adjusted_sp_p0_is_baseline_survival():
    recs = columns([
        ("a", 0, 0.0, 1.0, True, ()),
        ("b", 0, 0.0, 2.0, False, ()),
        ("c", 1, 0.0, 1.5, True, ()),
        ("d", 1, 0.0, 2.5, False, ()),
    ])
    snap = snapshot(recs, 10.0)
    comps = variance_components(fit_mple(snap), 2.0)
    for stratum in (0, 1):
        assert comps.adjusted_sp[stratum] == pytest.approx(
            np.exp(-comps.baseline_cumhaz_t0[stratum])
        )


def test_adjusted_sp_constant_covariates_equals_conditional():
    # identical covariates leave the score flat at zero: the fit stays at the
    # origin and the adjusted average collapses to one conditional value
    recs = columns([
        ("a", 0, 0.0, 1.0, True, (0.8,)),
        ("b", 0, 0.0, 2.0, True, (0.8,)),
        ("c", 1, 0.0, 1.5, True, (0.8,)),
        ("d", 1, 0.0, 2.5, False, (0.8,)),
    ])
    snap = snapshot(recs, 10.0)
    fit = fit_mple(snap)
    comps = variance_components(fit, 2.0)
    rel_risk = np.exp(fit.beta_hat[0] * 0.8)
    for stratum in (0, 1):
        assert comps.adjusted_sp[stratum] == pytest.approx(
            np.exp(-rel_risk * comps.baseline_cumhaz_t0[stratum])
        )


def test_adjusted_sp_matches_naive_average(hand_snapshot):
    fit = fit_mple(hand_snapshot)
    x, d, a, z = snapshot_arrays(hand_snapshot)
    comps = variance_components(fit, 2.0)
    for stratum in (0, 1):
        got = comps.adjusted_sp[stratum]
        expected = naive_adjusted_sp(fit.beta_hat, x, d, a, z, stratum, 2.0)
        assert got == pytest.approx(expected, abs=1e-12)


def test_variance_components_match_naive_reimplementation(hand_snapshot_8):
    fit = fit_mple(hand_snapshot_8)
    comps = variance_components(fit, 2.0)
    x, d, a, z = snapshot_arrays(hand_snapshot_8)
    naive = naive_variance_pieces(fit.beta_hat, x, d, a, z, 2.0)
    for i in (0, 1):
        assert comps.cumhaz_variance[i] == pytest.approx(naive["gamma"][i], abs=1e-10)
        assert comps.cumhaz_beta_gradient[i] == pytest.approx(naive["q"][i], abs=1e-10)
        assert comps.baseline_cumhaz_t0[i] == pytest.approx(naive["lam"][i], abs=1e-10)
        assert comps.hazard_sensitivity[i] == pytest.approx(naive["c1"][i], abs=1e-10)
        assert comps.hazard_sensitivity_z[i] == pytest.approx(naive["c2"][i], abs=1e-10)
        assert comps.sp_beta_gradient[i] == pytest.approx(naive["d_i"][i], abs=1e-10)
        assert comps.adjusted_sp[i] == pytest.approx(naive["sp"][i], abs=1e-10)
    assert comps.mean_information == pytest.approx(naive["sigma"], abs=1e-10)
    assert comps.sp_diff_beta_gradient == pytest.approx(naive["d"], abs=1e-10)
    sigma2 = hand_snapshot_8.n * compare_sp_batch((hand_snapshot_8,), 2.0).se[0] ** 2
    assert sigma2 == pytest.approx(naive["var_inverse"], abs=1e-10)


@pytest.mark.parametrize("seed", range(10))
def test_variance_matches_naive_on_random_data(seed):
    rng = np.random.default_rng(4000 + seed)
    recs = random_dataset(rng, n=int(rng.integers(8, 14)))
    snap = snapshot(recs, 10.0)
    try:
        fit = fit_mple(snap)
    except Exception:
        pytest.skip("degenerate draw")
    t0 = float(np.median(snap.follow_up))
    x, d, a, z = snapshot_arrays(snap)
    naive = naive_variance_pieces(fit.beta_hat, x, d, a, z, t0)
    sigma2 = snap.n * compare_sp_batch((snap,), t0).se[0] ** 2
    assert sigma2 == pytest.approx(naive["var_inverse"], rel=1e-9)


def test_no_events_before_t0_zeroes_stratum_components():
    # the two events pull the coefficient in opposite directions, so the
    # maximizer is finite
    recs = columns([
        ("a", 0, 0.0, 5.0, True, (0.2,)),
        ("b", 0, 0.0, 6.0, False, (-0.2,)),
        ("c", 1, 0.0, 0.5, True, (0.4,)),
        ("d", 1, 0.0, 6.0, False, (0.6,)),
    ])
    snap = snapshot(recs, 10.0)
    fit = fit_mple(snap)
    # stratum 0's only event lands beyond t0=1: its pieces all vanish
    comps = variance_components(fit, 1.0)
    assert comps.cumhaz_variance[0] == 0.0
    assert comps.baseline_cumhaz_t0[0] == 0.0
    assert comps.cumhaz_beta_gradient[0] == pytest.approx(np.zeros(1))
    assert comps.sp_beta_gradient[0] == pytest.approx(np.zeros(1))


def test_p0_variance_reduces_to_baseline_form():
    recs = columns([
        ("a", 0, 0.0, 0.6, True, ()),
        ("b", 0, 0.0, 2.0, False, ()),
        ("c", 1, 0.0, 0.9, True, ()),
        ("d", 1, 0.0, 2.5, False, ()),
    ])
    snap = snapshot(recs, 10.0)
    fit = fit_mple(snap)
    comps = variance_components(fit, 1.0)
    assert comps.sp_diff_beta_gradient.size == 0
    n = 4
    lam = comps.baseline_cumhaz_t0
    expected = sum(
        (n / 2) * np.exp(-lam[i]) ** 2 * comps.cumhaz_variance[i]
        for i in (0, 1)
    )
    assert snap.n * compare_sp_batch((snap,), 1.0).se[0] ** 2 == pytest.approx(expected)
    # the hazard sensitivity collapses to the baseline survival itself
    for i in (0, 1):
        assert comps.hazard_sensitivity[i] == pytest.approx(np.exp(-lam[i]))


def test_mirrored_arms_give_zero_statistic():
    base = [(0.7, True, 0.4), (1.3, True, -0.2), (2.2, False, 0.9), (1.8, True, 0.0)]
    rows = []
    for i, (t, d, z) in enumerate(base):
        rows.append((f"c{i}", 0, 0.0, t, d, (z,)))
        rows.append((f"t{i}", 1, 0.0, t, d, (z,)))
    snap = snapshot(columns(rows), 10.0)
    res = compare_sp(snap, 2.0)
    assert res.estimate == pytest.approx(0.0, abs=1e-14)
    assert res.z == pytest.approx(0.0, abs=1e-12)
    assert snap.n * res.se**2 > 0


def test_z_equals_diff_times_sqrt_info(hand_snapshot_8):
    res = compare_sp(hand_snapshot_8, 2.0)
    assert res.z == pytest.approx(res.estimate * np.sqrt(res.info_level))
    n = hand_snapshot_8.n
    assert n / res.info_level == pytest.approx(n * res.se**2)
    assert 0.0 <= res.s_hat[0] <= 1.0 and 0.0 <= res.s_hat[1] <= 1.0


def test_sp_nonincreasing_in_t0(hand_snapshot_8):
    fit = fit_mple(hand_snapshot_8)
    sps = [variance_components(fit, t).adjusted_sp for t in (0.5, 1.0, 1.5, 2.0, 2.5)]
    for stratum in (0, 1):
        values = [sp[stratum] for sp in sps]
        assert all(b <= a + 1e-12 for a, b in zip(values, values[1:]))


def test_compare_sp_requires_both_arms():
    recs = columns([("a", 0, 0.0, 1.0, True, ()), ("b", 0, 0.0, 2.0, True, ())])
    with pytest.raises(DegenerateDataError, match="both arms"):
        compare_sp(snapshot(recs, 10.0), 1.0)


def test_compare_sp_t0_beyond_u_rejected(hand_snapshot):
    with pytest.raises(ValueError, match="calendar"):
        compare_sp(hand_snapshot, 6.0)


def test_covariate_shift_leaves_comparison_unchanged(hand_snapshot_8):
    res = compare_sp(hand_snapshot_8, 2.0)
    shift = -3.0
    shifted = replace(hand_snapshot_8, covariates=hand_snapshot_8.covariates + shift)
    res2 = compare_sp(shifted, 2.0)
    assert res2.s_hat == pytest.approx(res.s_hat, abs=1e-10)
    n = hand_snapshot_8.n
    assert n * res2.se**2 == pytest.approx(n * res.se**2, rel=1e-9)
    assert res2.z == pytest.approx(res.z, rel=1e-9)


def test_non_finite_information_is_degenerate(hand_snapshot_8, monkeypatch):
    from seqsurv import adjusted

    real = adjusted.fit_mple_batch

    def poisoned(batch):
        fits = real(batch)
        nan = np.full_like(fits.values.information, np.nan)
        return fits._replace(values=fits.values._replace(information=nan))

    monkeypatch.setattr(adjusted, "fit_mple_batch", poisoned)
    with pytest.raises(DegenerateDataError, match="not positive"):
        compare_sp(hand_snapshot_8, 2.0)


def test_variance_estimate_matches_monte_carlo_spread_no_covariates():
    # null trial with no covariates: the estimator must track the spread of
    # the difference across replicates through the baseline-hazard term alone
    from seqsurv import Scenario, generate_columns

    sc = Scenario(n0=400, n1=400, tau=1.0, alpha0=1.0, alpha1=0.0, beta_w=0.0,
                  covariate_scheme="none", phi=0.0, accrual=2.0)
    reps = 2000
    diffs = np.zeros(reps)
    sigmas = np.zeros(reps)
    for r in range(reps):
        snap = snapshot(generate_columns(sc, 313, r), 3.0)
        res = compare_sp(snap, 1.0)
        diffs[r] = res.estimate
        sigmas[r] = np.sqrt(snap.n * res.se**2)
    ratio = np.std(diffs, ddof=1) / (sigmas.mean() / np.sqrt(sc.n_total))
    assert 0.9 <= ratio <= 1.1


def test_single_look_type_one_error_under_crossing_hazards():
    # crossing-hazards null: a single 5% two-sided look lands near nominal
    from seqsurv import Scenario, generate_columns

    sc = Scenario(n0=400, n1=400, tau=1.0, alpha0=2.0, alpha1=-1.0, beta_w=0.0,
                  covariate_scheme="normal1", phi=np.log(1.5), accrual=2.0)
    reps = 2000
    rejections = 0
    for r in range(reps):
        res = compare_sp(snapshot(generate_columns(sc, 414, r), 3.0), 1.0)
        rejections += abs(res.z) > 1.959964
    rate = rejections / reps
    assert rate == pytest.approx(0.05, abs=0.015)
