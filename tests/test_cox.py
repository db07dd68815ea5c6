import math
import warnings
from dataclasses import replace

import numpy as np
import pytest

from seqsurv import (
    Columns,
    DegenerateDataError,
    RiskSets,
    Scenario,
    SeparationError,
    SeqSurvError,
    compare_sp,
    compare_sp_batch,
    fit_mple,
    fit_mple_batch,
    generate_columns,
    snapshot,
    variance_components,
)
from seqsurv.cox import PooledRiskSets
from conftest import columns, random_dataset, snapshot_arrays
from oracles import fd_gradient, fd_hessian, grid_refine_argmax, naive_breslow, naive_log_pl


def kernel(snap, beta):
    """The risk-set kernel's values at ``beta``, required usable."""
    values = RiskSets.from_snapshots((snap,)).evaluate(np.asarray(beta, dtype=np.float64))
    assert values.usable
    return values


def cumhaz(fit, t):
    """Both arms' Breslow baseline cumulative hazards at ``t``."""
    return variance_components(fit, t).baseline_cumhaz_t0


def test_score_is_half_for_two_subject_risk_set():
    recs = columns([
        ("a", 0, 0.0, 1.0, True, (1.0,)),
        ("b", 0, 0.0, 2.0, False, (0.0,)),
    ])
    snap = snapshot(recs, 10.0)
    assert kernel(snap, [0.0]).score == pytest.approx([0.5])


def test_score_vanishes_when_every_event_is_alone():
    # one subject per arm, each the sole member of its risk set at its event
    recs = columns([
        ("a", 0, 0.0, 1.0, True, (0.7,)),
        ("b", 1, 0.0, 2.0, True, (-0.4,)),
    ])
    snap = snapshot(recs, 10.0)
    for beta in (-1.0, 0.0, 2.5):
        assert kernel(snap, [beta]).score == pytest.approx([0.0], abs=1e-14)


def test_score_matches_finite_difference_gradient_on_hand_data():
    rng = np.random.default_rng(42)
    recs = random_dataset(rng, n=5, p=1)
    snap = snapshot(recs, 10.0)
    x, d, a, z = snapshot_arrays(snap)
    beta = np.array([0.3])
    grad = fd_gradient(lambda b: naive_log_pl(b, x, d, a, z), beta, step=1e-5)
    assert kernel(snap, beta).score == pytest.approx(grad, abs=1e-6)


def test_information_zero_for_singleton_risk_sets():
    recs = columns([
        ("a", 0, 0.0, 1.0, True, (0.7,)),
        ("b", 1, 0.0, 2.0, True, (-0.4,)),
    ])
    snap = snapshot(recs, 10.0)
    assert kernel(snap, [0.9]).information == pytest.approx(np.zeros((1, 1)))


def test_information_quarter_for_balanced_binary_covariate():
    recs = columns([
        ("a", 0, 0.0, 1.0, True, (1.0,)),
        ("b", 0, 0.0, 2.0, False, (0.0,)),
    ])
    snap = snapshot(recs, 10.0)
    assert kernel(snap, [0.0]).information[0, 0] == pytest.approx(0.25)


def test_information_matches_finite_difference_hessian():
    rng = np.random.default_rng(7)
    recs = random_dataset(rng, n=5, p=2)
    snap = snapshot(recs, 10.0)
    x, d, a, z = snapshot_arrays(snap)
    beta = np.array([0.2, -0.4])
    hess = -fd_hessian(lambda b: naive_log_pl(b, x, d, a, z), beta, step=1e-4)
    got = kernel(snap, beta).information
    assert got == pytest.approx(hess, rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("seed", range(30))
def test_score_and_information_match_finite_differences_random(seed):
    rng = np.random.default_rng(1000 + seed)
    recs = random_dataset(rng)
    snap = snapshot(recs, 10.0)
    x, d, a, z = snapshot_arrays(snap)
    beta = rng.normal(0, 0.5, len(z[0]))
    f = lambda b: naive_log_pl(b, x, d, a, z)
    values = kernel(snap, beta)
    assert values.score == pytest.approx(fd_gradient(f, beta), abs=1e-6)
    info = values.information
    assert info == pytest.approx(-fd_hessian(f, beta), rel=1e-4, abs=2e-5)
    assert info == pytest.approx(info.T)


def test_log_pl_agrees_with_naive_up_to_constant():
    # unnormalized risk sums shift the log likelihood by a beta-free constant
    rng = np.random.default_rng(3)
    recs = random_dataset(rng, n=8, p=1)
    snap = snapshot(recs, 10.0)
    x, d, a, z = snapshot_arrays(snap)
    values = []
    for beta in ([0.0], [0.5], [-1.0]):
        values.append(kernel(snap, beta).loglik - naive_log_pl(beta, x, d, a, z))
    assert values[0] == pytest.approx(values[1]) == pytest.approx(values[2])


def test_fit_p0_reduces_to_nelson_aalen():
    recs = columns([
        ("a", 0, 0.0, 1.0, True, ()),
        ("b", 0, 0.0, 2.0, True, ()),
        ("c", 0, 0.0, 3.0, False, ()),
        ("d", 1, 0.0, 1.5, True, ()),
    ])
    snap = snapshot(recs, 10.0)
    fit = fit_mple(snap)
    assert fit.beta_hat.size == 0
    # stratum 0: jumps 1/3 at t=1, 1/2 at t=2
    assert cumhaz(fit, 0.5)[0] == pytest.approx(0.0)
    assert cumhaz(fit, 1.0)[0] == pytest.approx(1 / 3)
    assert cumhaz(fit, 2.7)[0] == pytest.approx(1 / 3 + 1 / 2)
    assert cumhaz(fit, 1.5)[1] == pytest.approx(1.0)


def test_fit_matches_brute_force_maximizer(hand_snapshot):
    fit = fit_mple(hand_snapshot)
    x, d, a, z = snapshot_arrays(hand_snapshot)
    best = grid_refine_argmax(
        lambda b: naive_log_pl(b, x, d, a, z), np.array([-3.0]), np.array([3.0]), rounds=14
    )
    assert fit.beta_hat == pytest.approx(best, abs=1e-6)
    assert fit.final_score_norm <= 1e-8


def test_fit_consistency_on_simulated_data():
    rng = np.random.default_rng(2024)
    n = 2000
    z = rng.normal(0, 1, n)
    beta0 = 0.5
    arm = np.arange(n) % 2
    t = rng.exponential(1.0, n) / np.exp(beta0 * z)
    recs = columns(
        (f"s{j}", int(arm[j]), 0.0, float(t[j]), True, (float(z[j]),))
        for j in range(n)
    )
    fit = fit_mple(snapshot(recs, 1e9))
    se = float(np.sqrt(np.linalg.inv(fit.observed_information)[0, 0]))
    assert abs(fit.beta_hat[0] - beta0) < 3 * se


def test_breslow_baseline_matches_naive(hand_snapshot_8):
    fit = fit_mple(hand_snapshot_8)
    x, d, a, z = snapshot_arrays(hand_snapshot_8)
    for t in (0.5, 1.3, 2.0, 4.0):
        lam = cumhaz(fit, t)
        for stratum in (0, 1):
            assert lam[stratum] == pytest.approx(
                naive_breslow(fit.beta_hat, x, d, a, z, stratum, t)
            )


def test_baseline_nondecreasing_and_zero_at_origin(hand_snapshot_8):
    fit = fit_mple(hand_snapshot_8)
    grid = np.linspace(0, 5, 50)
    vals = np.array([cumhaz(fit, t) for t in grid])   # (50, 2)
    assert np.all(vals[0] == 0.0)
    assert np.all(np.diff(vals, axis=0) >= 0)


def test_covariate_shift_invariance(hand_snapshot_8):
    fit = fit_mple(hand_snapshot_8)
    shift = 2.5
    shifted = replace(hand_snapshot_8, covariates=hand_snapshot_8.covariates + shift)
    fit2 = fit_mple(shifted)
    assert fit2.beta_hat == pytest.approx(fit.beta_hat, abs=1e-9)
    scale = np.exp(-fit.beta_hat[0] * shift)
    t = 2.0
    lam, lam2 = cumhaz(fit, t), cumhaz(fit2, t)
    for stratum in (0, 1):
        assert lam2[stratum] == pytest.approx(lam[stratum] * scale)


def test_fit_saturates_beyond_last_observation(hand_snapshot_8):
    snap = hand_snapshot_8
    raw = Columns(
        ids=snap.ids, arm=snap.arm, entry=np.zeros(snap.n), time_on_study=snap.follow_up,
        event=snap.event_observed, covariates=snap.covariates,
    )
    f1 = fit_mple(snapshot(raw, 6.0))
    f2 = fit_mple(snapshot(raw, 60.0))
    assert f1.beta_hat == pytest.approx(f2.beta_hat)
    assert f1.observed_information == pytest.approx(f2.observed_information)


def test_stratum_without_events_warns_not_errors():
    recs = columns([
        ("a", 0, 0.0, 1.0, True, (0.3,)),
        ("b", 0, 0.0, 2.0, True, (-0.5,)),
        ("c", 1, 0.0, 2.0, False, (0.1,)),
    ])
    snap = snapshot(recs, 10.0)
    with pytest.warns(RuntimeWarning, match="stratum 1"):
        fit = fit_mple(snap)
    assert fit.event_free_strata == (1,)
    assert cumhaz(fit, 5.0)[1] == 0.0


def test_no_events_anywhere_is_degenerate():
    recs = columns([
        ("a", 0, 0.0, 1.0, False, (0.3,)),
        ("b", 1, 0.0, 2.0, False, (0.1,)),
    ])
    with pytest.warns(RuntimeWarning):
        with pytest.raises(DegenerateDataError):
            fit_mple(snapshot(recs, 10.0))


def test_separation_detected():
    # event order perfectly follows the covariate: monotone likelihood, and the
    # tight covariate spacing pushes the maximizer far past the norm threshold
    recs = columns([
        (f"s{j}", 0, 0.0, float(j + 1), True, (0.2 * j,)) for j in range(6)
    ])
    snap = snapshot(recs, 100.0)
    with pytest.raises(SeparationError):
        fit_mple(snap)


def test_a_flat_partial_likelihood_is_flagged_singular():
    # each event is the last subject at risk in its arm, so the stratified
    # partial likelihood is constant: beta_hat = 0 after 0 iterations, with
    # a zero information that only the pseudo-inverse can solve
    snap = snapshot(columns([
        ("a", 0, 0.0, 1.0, True, (0.3,)),
        ("b", 0, 0.0, 0.5, False, (-0.2,)),
        ("c", 1, 0.0, 2.0, True, (0.7,)),
        ("d", 1, 0.0, 1.5, False, (0.1,)),
    ]), 10.0)
    fit = fit_mple(snap)
    assert (fit.iterations, fit.beta_hat.tolist()) == (0, [0.0])
    assert fit.observed_information.tolist() == [[0.0]]
    assert fit.singular_information
    assert compare_sp(snap, 1.0).fit.singular_information


def test_nonconvergence_carries_last_iterate(hand_snapshot, monkeypatch):
    from seqsurv import ConvergenceError, cox

    monkeypatch.setattr(cox, "MAX_ITER", 1)
    monkeypatch.setattr(cox, "SCORE_TOL", 1e-14)
    with pytest.raises(ConvergenceError, match="in 1 iterations") as err:
        fit_mple(hand_snapshot)
    assert err.value.beta is not None
    assert err.value.score_norm > 0


def test_risk_sets_first_event_and_information_psd(hand_snapshot):
    risk_sets = RiskSets.from_snapshots((hand_snapshot,))
    values = risk_sets.evaluate(np.zeros(1))
    first0 = risk_sets.offsets[0]
    # first stratum-0 event at 0.9 has all three stratum-0 subjects at risk
    assert risk_sets.event_times[first0] == 0.9
    assert values.r0[first0] == pytest.approx(3.0)
    assert values.information.shape == (1, 1)
    assert np.all(values.r0 > 0)
    assert np.linalg.eigvalsh(values.information).min() >= -1e-12


def _tied_columns():
    # both arms carry tied event times, a tie between an event and a
    # censoring, and late entries that leave subjects outside every risk set
    rows = [
        (0, 0.0, 1.0, True, (0.3, -1.0)), (0, 0.0, 1.0, True, (-0.7, 0.4)),
        (0, 0.5, 1.0, False, (1.1, 0.2)), (0, 0.0, 2.0, True, (0.2, 0.9)),
        (0, 0.0, 2.0, True, (-1.4, -0.3)), (0, 0.0, 2.0, True, (0.6, 0.0)),
        (0, 0.0, 3.5, False, (0.1, 1.3)), (0, 4.8, 3.0, True, (0.9, 0.9)),
        (1, 0.0, 0.5, True, (-0.2, 0.5)), (1, 0.0, 1.0, True, (0.8, -0.6)),
        (1, 0.0, 1.0, True, (-0.5, 1.2)), (1, 0.2, 2.5, True, (1.3, -0.1)),
        (1, 0.0, 2.5, True, (-0.9, 0.3)), (1, 0.0, 3.0, False, (0.4, -1.1)),
        (1, 4.9, 1.0, True, (0.0, 0.0)),
    ]
    return columns((f"s{j}", *row) for j, row in enumerate(rows))


def test_kernel_on_ties_in_both_strata_matches_naive():
    snap = snapshot(_tied_columns(), 5.0)
    risk_sets = RiskSets.from_snapshots((snap,))
    assert risk_sets.dn.tolist() == [2.0, 3.0, 1.0, 2.0, 2.0]
    x, d, a, z = snapshot_arrays(snap)
    f = lambda b: naive_log_pl(b, x, d, a, z)
    beta = np.array([0.4, -0.7])
    values = risk_sets.evaluate(beta)
    assert values.score == pytest.approx(fd_gradient(f, beta), abs=1e-6)
    assert values.information == pytest.approx(-fd_hessian(f, beta), rel=1e-4, abs=1e-6)
    gap = values.loglik - f(beta)
    assert risk_sets.evaluate(np.zeros(2)).loglik - f(np.zeros(2)) == pytest.approx(gap)
    fit = fit_mple(snap)
    assert fit.final_score_norm <= 1e-8
    for t in (0.5, 1.0, 2.0, 2.7, 4.0):
        lam = cumhaz(fit, t)
        for stratum in (0, 1):
            assert lam[stratum] == pytest.approx(
                naive_breslow(fit.beta_hat, x, d, a, z, stratum, t)
            )


def _pooled_oracle(snap):
    """The naive log partial likelihood of one stratum with the arm as the
    first covariate: Cox-Wald's model."""
    x, d, a, z = snapshot_arrays(snap)
    pooled = [np.concatenate(([arm], zi)) for arm, zi in zip(a, z)]
    return lambda b: naive_log_pl(b, x, d, [0] * len(a), pooled)


def _first_events_apart_columns():
    # the control arm's events come first; the treated arm's first event
    # (1.8) comes after a treated censoring (0.9), so treated subjects are at
    # risk at control events before their own arm's first event
    rows = [
        (0, 0.0, 0.3, True, (0.5,)), (0, 0.0, 0.7, True, (-0.4,)), (0, 0.2, 1.2, True, (1.0,)),
        (0, 0.0, 2.6, False, (0.1,)), (1, 0.0, 0.9, False, (-0.8,)), (1, 0.0, 1.8, True, (0.6,)),
        (1, 0.1, 2.2, True, (-0.2,)), (1, 0.0, 3.1, False, (0.3,)), (1, 4.7, 0.2, False, (1.4,)),
    ]
    return columns((f"s{j}", *row) for j, row in enumerate(rows))


@pytest.mark.parametrize("case", ["continuous", "ties", "first_events_apart"])
def test_pooled_kernel_matches_naive_with_the_arm_as_covariate(case, hand_snapshot):
    snap = {
        "continuous": hand_snapshot,
        "ties": snapshot(_tied_columns(), 5.0),
        "first_events_apart": snapshot(_first_events_apart_columns(), 5.0),
    }[case]
    f = _pooled_oracle(snap)
    kernel = PooledRiskSets.from_snapshots((snap,))
    gaps = []
    for beta in (np.zeros(1 + snap.n_covariates), np.linspace(-0.6, 0.8, 1 + snap.n_covariates)):
        values = kernel.evaluate(beta)
        assert values.usable
        assert values.score == pytest.approx(fd_gradient(f, beta), abs=1e-6)
        assert values.information == pytest.approx(-fd_hessian(f, beta), rel=1e-4, abs=1e-6)
        gaps.append(values.loglik - f(beta))
    assert gaps[1] == pytest.approx(gaps[0])


def test_pooled_kernel_score_matches_naive_on_random_data():
    # criterion 1's score check, on Cox-Wald's model
    rng = np.random.default_rng(20240802)
    for _ in range(100):
        snap = snapshot(random_dataset(rng), 10.0)
        beta = rng.normal(0, 0.5, 1 + snap.n_covariates)
        values = PooledRiskSets.from_snapshots((snap,)).evaluate(beta)
        assert values.usable
        assert values.score == pytest.approx(fd_gradient(_pooled_oracle(snap), beta), abs=1e-6)


def _e30_snapshot(high_arm):
    # one arm's covariates sit 15 units above the other's, so at beta = 2 its
    # relative risks are about e^30 times larger: the low-risk arm's risk-set
    # sums must not be computed as differences of totals dominated by the
    # high-risk arm, whichever arm that is
    rng = np.random.default_rng(11)
    rows = []
    for j in range(12):
        arm = j % 2
        rows.append((
            f"s{j}", arm, 0.0, float(rng.exponential(1.0) + 0.05), bool(rng.random() < 0.8),
            (float(15.0 * (arm == high_arm) + rng.normal(0, 0.5)),),
        ))
    return snapshot(columns(rows), 10.0)


@pytest.mark.parametrize("high_arm", [0, 1])
def test_kernel_keeps_strata_apart_when_relative_risks_differ_by_e30(high_arm):
    snap = _e30_snapshot(high_arm)
    x, d, a, z = snapshot_arrays(snap)
    f = lambda b: naive_log_pl(b, x, d, a, z)
    beta = np.array([2.0])
    values = RiskSets.from_snapshots((snap,)).evaluate(beta)
    assert values.usable
    assert values.score == pytest.approx(fd_gradient(f, beta), rel=1e-6, abs=1e-6)
    assert values.information == pytest.approx(-fd_hessian(f, beta), rel=1e-4, abs=1e-6)


@pytest.mark.parametrize("case", ["ties", "overshoot"])
def test_kernel_evaluations_count_iterations_and_halvings(case, monkeypatch):
    if case == "ties":
        snap = snapshot(_tied_columns(), 5.0)
    else:
        # one high-risk subject among 19 at risk: the information at beta = 0
        # is about 2/20, so the first full Newton step (about 10) overshoots
        # the maximizer (about 3) and lowers the likelihood
        rows = [("k", 0, 0.0, 2.0, True, (1.0,)),
                ("e", 0, 0.0, 1.0, True, (0.0,))]
        rows += [(f"c{j}", 0, 0.0, 3.0, False, (0.0,)) for j in range(18)]
        rows += [("t0", 1, 0.0, 1.5, True, (0.0,)),
                 ("t1", 1, 0.0, 2.5, False, (0.0,))]
        snap = snapshot(columns(rows), 10.0)
    calls = []
    evaluate = RiskSets.evaluate

    def counting(self, beta):
        calls.append(beta)
        return evaluate(self, beta)

    monkeypatch.setattr(RiskSets, "evaluate", counting)
    fit = fit_mple(snap)
    assert len(calls) == fit.iterations + fit.step_halvings + 1
    if case == "overshoot":
        assert fit.step_halvings > 0


def test_fit_converges_on_day_rounded_ties():
    # a 4000-subject trial recorded in whole days: near the optimum the full
    # Newton step changes the log likelihood (about -1.5e4) only by rounding
    # noise, which must not trigger step halving until max_iter runs out
    sc = Scenario(
        n0=2000, n1=2000, tau=2.0, alpha0=1.0, alpha1=0.0, beta_w=0.0,
        covariate_scheme="bernoulli2", phi=0.4, accrual=6.0, censor_rate=0.01,
    )
    cols = generate_columns(sc, 1859167399)
    days = cols._replace(
        entry=np.rint(cols.entry * 365.25),
        time_on_study=np.maximum(1.0, np.ceil(cols.time_on_study * 365.25)),
    )
    fit = fit_mple(snapshot(days, 2192.0))
    assert fit.final_score_norm <= 1e-8
    assert fit.iterations <= 10


# -- batches -------------------------------------------------------------------

NPH_NULL = Scenario(
    n0=400, n1=400, tau=1.0, alpha0=2.0, alpha1=-1.0, beta_w=0.0,
    covariate_scheme="normal1", phi=np.log(1.5), accrual=2.0,
)


def _grid_snapshots(seed=1, replicate=0):
    """One replicate of the crossing-hazards trial at calibration's 13 grid times."""
    cols = generate_columns(NPH_NULL, seed, replicate)
    return [snapshot(cols, u) for u in np.linspace(1.0, 3.0, 13)]


def _tied_snapshots():
    """The 4000-subject trial recorded in whole days (two covariates, tied
    event times) at six yearly looks."""
    sc = Scenario(
        n0=2000, n1=2000, tau=2.0, alpha0=1.0, alpha1=0.0, beta_w=0.0,
        covariate_scheme="bernoulli2", phi=0.4, accrual=6.0, censor_rate=0.01,
    )
    cols = generate_columns(sc, 7)
    days = cols._replace(
        entry=np.rint(cols.entry * 365.25),
        time_on_study=np.maximum(1.0, np.ceil(cols.time_on_study * 365.25)),
    )
    return [snapshot(days, float(round(y * 365.25))) for y in (3, 4, 5, 6, 7, 8)]


def _row_outcome(batch, b):
    """Everything a row's statistic and fit report, for bitwise comparison."""
    fits = batch.fits
    return (
        batch.z[b], batch.info_level[b], fits.beta_hat[b].tolist(),
        int(fits.iterations[b]), int(fits.step_halvings[b]),
    )


def test_grid_snapshot_alone_equals_itself_at_every_batch_position():
    snaps = _grid_snapshots()
    alone = [_row_outcome(compare_sp_batch([s], 1.0), 0) for s in snaps]
    batch = compare_sp_batch(snaps, 1.0)
    assert [_row_outcome(batch, b) for b in range(13)] == alone
    # one snapshot moved through every position of a 13-row batch
    others = snaps[:6] + snaps[7:]
    for j in range(13):
        moved = compare_sp_batch(others[:j] + [snaps[6]] + others[j:], 1.0)
        assert _row_outcome(moved, j) == alone[6]
    assert (compare_sp(snaps[6], 1.0).z, compare_sp(snaps[6], 1.0).info_level) == alone[6][:2]


def test_tied_snapshot_alone_equals_its_batch_row():
    snaps = _tied_snapshots()
    assert snaps[0].n_covariates == 2
    batch = compare_sp_batch(snaps, 730.0)
    for b, snap in enumerate(snaps):
        assert _row_outcome(batch, b) == _row_outcome(compare_sp_batch([snap], 730.0), 0)
    fits = fit_mple_batch(snaps[::-1])
    for b, snap in enumerate(snaps[::-1]):
        fit = fit_mple(snap)
        assert fits.beta_hat[b].tolist() == fit.beta_hat.tolist()
        assert fits.values.information[b].tolist() == fit.observed_information.tolist()
        assert (fits.iterations[b], fits.step_halvings[b]) == (fit.iterations, fit.step_halvings)


def _separated_two_arm_snapshot():
    # in both arms the event order follows the covariate: monotone likelihood
    rows = [(f"a{j}", 0, 0.0, float(j + 1), True, (0.2 * j,)) for j in range(6)]
    rows += [(f"b{j}", 1, 0.0, float(j + 1.5), True, (0.2 * j + 0.1,)) for j in range(6)]
    return snapshot(columns(rows), 100.0)


def test_failing_rows_leave_the_other_rows_of_a_batch_alone():
    grid = _grid_snapshots(seed=2)
    event_free = snapshot(columns([
        ("a", 0, 0.0, 1.0, False, (0.3,)),
        ("b", 1, 0.0, 2.0, False, (0.1,)),
    ]), 10.0)
    one_arm = snapshot(columns([
        ("a", 0, 0.0, 1.0, True, (0.3,)),
        ("b", 0, 0.0, 2.0, True, (0.1,)),
    ]), 10.0)
    separated = _separated_two_arm_snapshot()
    snaps = [grid[3], event_free, grid[8], separated, one_arm, grid[12]]
    with pytest.warns(RuntimeWarning, match="no observed events"):
        batch = compare_sp_batch(snaps, 1.0)
    for b, snap in enumerate(snaps):
        if b in (1, 3, 4):
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                with pytest.raises(SeqSurvError) as alone:
                    compare_sp(snap, 1.0)
            assert type(batch.errors[b]) is type(alone.value)
            assert str(batch.errors[b]) == str(alone.value)
            assert math.isnan(batch.z[b]) and math.isnan(batch.info_level[b])
            with pytest.raises(type(alone.value)):
                batch.row(b)
        else:
            assert batch.errors[b] is None
            assert _row_outcome(batch, b) == _row_outcome(compare_sp_batch([snap], 1.0), 0)
    assert isinstance(batch.errors[1], DegenerateDataError)
    assert isinstance(batch.errors[3], SeparationError)
    assert "both arms" in str(batch.errors[4])


def test_a_one_arm_row_is_fitted_without_warnings_and_keeps_the_both_arms_error():
    grid = _grid_snapshots(seed=2)
    one_arm = snapshot(columns([
        ("a", 0, 0.0, 1.0, True, (0.3,)),
        ("b", 0, 0.0, 2.0, True, (0.1,)),
        ("c", 0, 0.0, 3.0, False, (0.2,)),
    ]), 10.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        batch = compare_sp_batch([grid[3], one_arm], 1.0)
    assert str(batch.errors[1]) == "both arms must be present to compare survival probabilities"
    assert math.isnan(batch.se[1]) and math.isnan(batch.z[1])
    assert _row_outcome(batch, 0) == _row_outcome(compare_sp_batch([grid[3]], 1.0), 0)


def test_kernel_keeps_batch_rows_apart_when_relative_risks_differ_by_e30():
    # the e30 snapshot between neighbours whose relative risks sit at the
    # other extreme: its sums match finite differences and its values alone
    snaps = [_e30_snapshot(high_arm) for high_arm in (1, 0)] + [_grid_snapshots()[5]]
    x, d, a, z = snapshot_arrays(snaps[1])
    f = lambda b: naive_log_pl(b, x, d, a, z)
    beta = np.array([[-2.0], [2.0], [2.0]])
    risk_sets = RiskSets.from_snapshots(snaps)
    values = risk_sets.evaluate(beta)
    assert values.usable.tolist() == [True, True, True]
    row = risk_sets.row_values(values, 1)
    assert row.score == pytest.approx(fd_gradient(f, beta[1]), rel=1e-6, abs=1e-6)
    assert row.information == pytest.approx(-fd_hessian(f, beta[1]), rel=1e-4, abs=1e-6)
    alone = RiskSets.from_snapshots((snaps[1],)).evaluate(beta[1])
    for got, want in zip(row, alone):
        assert np.array_equal(got, want)


def test_batch_rejects_mixed_covariate_counts():
    with_z = _grid_snapshots()[0]
    bare = replace(with_z, covariates=np.empty((with_z.n, 0)))
    for build in (RiskSets.from_snapshots, fit_mple_batch, lambda s: compare_sp_batch(s, 1.0)):
        with pytest.raises(ValueError, match="same number of covariates"):
            build([with_z, bare])
