"""Acceptance suite: every release criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the criterion lines as
they complete.  The Monte Carlo criteria use fixed seeds, so outcomes are
reproducible; desk-scale replicate counts (2000) keep the whole suite in the
minutes range.
"""

import math
import os
from dataclasses import replace

import numpy as np
import pytest
from scipy.stats import norm

from seqsurv import (
    RiskSets,
    Scenario,
    SpendingFunction,
    boundaries,
    build_design,
    calibrate_analysis_times,
    compare_sp,
    compare_sp_batch,
    crossing_probabilities,
    fit_mple,
    generate_columns,
    km_compare_batch,
    run_oc,
    snapshot,
)
from seqsurv.cli import main as cli_main
from seqsurv.errors import SeqSurvError
from conftest import random_dataset, snapshot_arrays
from oracles import (
    fd_gradient,
    grid_refine_argmax,
    gs_crossing_by_simulation,
    naive_log_pl,
)

WORKERS = min(2, os.cpu_count() or 1)


def report(num: int, name: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {num} {name}: {'PASS' if ok else 'FAIL'} ({detail})")


# -- criterion 1 -------------------------------------------------------------

@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_criterion_1_stratified_cox_oracle_equivalence():
    rng = np.random.default_rng(20240801)
    score_checked = 0
    fit_checked = 0
    worst_score = 0.0
    worst_fit = 0.0
    attempts = 0
    while (score_checked < 200 or fit_checked < 200) and attempts < 1500:
        attempts += 1
        recs = random_dataset(rng)
        snap = snapshot(recs, 10.0)
        x, d, a, z = snapshot_arrays(snap)
        p = len(z[0])
        f = lambda b: naive_log_pl(b, x, d, a, z)
        if score_checked < 200:
            beta = rng.normal(0, 0.5, p)
            values = RiskSets.from_snapshots((snap,)).evaluate(beta)
            assert values.usable, f"empty risk set on attempt {attempts}"
            gap = float(np.max(np.abs(values.score - fd_gradient(f, beta))))
            worst_score = max(worst_score, gap)
            assert gap <= 1e-6, f"score gap {gap:.2e} on attempt {attempts}"
            score_checked += 1
        if fit_checked < 200:
            try:
                fit = fit_mple(snap)
            except SeqSurvError:
                continue
            if np.max(np.abs(fit.beta_hat)) > 5.0:
                continue
            best = grid_refine_argmax(
                f, np.full(p, -6.0), np.full(p, 6.0), rounds=10, points=17
            )
            gap = float(np.max(np.abs(fit.beta_hat - best)))
            worst_fit = max(worst_fit, gap)
            assert gap <= 1e-5, f"fit gap {gap:.2e} on attempt {attempts}"
            fit_checked += 1
    ok = score_checked >= 200 and fit_checked >= 200
    report(
        1,
        "stratified Cox oracle equivalence",
        ok,
        f"{score_checked} score checks (worst {worst_score:.1e}), "
        f"{fit_checked} fit checks (worst {worst_fit:.1e})",
    )
    assert ok


# -- criteria 2 and 3 --------------------------------------------------------

PH_NULL = Scenario(
    n0=400, n1=400, tau=1.0, alpha0=1.0, alpha1=0.0, beta_w=0.0,
    covariate_scheme="normal1", phi=math.log(1.5), accrual=2.0, censor_rate=0.0,
)


@pytest.fixture(scope="session")
def ph_null_two_time_runs():
    cal = calibrate_analysis_times(
        replace(PH_NULL, k_analyses=2, target_info_fractions=(0.5, 1.0)),
        replicates=300, seed=101, workers=WORKERS,
    )
    u1, u2 = cal.analysis_times
    reps = 2000
    out = {
        "u": (u1, u2),
        "diff": np.zeros((reps, 2)),
        "sigma": np.zeros((reps, 2)),
        "z": np.zeros((reps, 2)),
    }
    for r in range(reps):
        cols = generate_columns(PH_NULL, 2024, r)
        for j, u in enumerate((u1, u2)):
            snap = snapshot(cols, u)
            res = compare_sp(snap, PH_NULL.tau)
            out["diff"][r, j] = res.estimate
            out["sigma"][r, j] = math.sqrt(snap.n * res.se**2)
            out["z"][r, j] = res.z
    return out


def test_criterion_2_variance_estimator_consistency(ph_null_two_time_runs):
    runs = ph_null_two_time_runs
    n = PH_NULL.n_total
    ratios = []
    for j in (0, 1):
        mc_sd = float(np.std(runs["diff"][:, j], ddof=1))
        est_sd = float(np.mean(runs["sigma"][:, j])) / math.sqrt(n)
        ratios.append(mc_sd / est_sd)
    ok = all(0.9 <= r <= 1.1 for r in ratios)
    report(
        2,
        "variance estimator consistency",
        ok,
        f"MC-SD / estimated-SD ratios {ratios[0]:.3f} (interim), {ratios[1]:.3f} (final)",
    )
    assert ok


def test_criterion_3_canonical_distribution_structure(ph_null_two_time_runs):
    runs = ph_null_two_time_runs
    z1, z2 = runs["z"][:, 0], runs["z"][:, 1]
    corr = float(np.corrcoef(z1, z2)[0, 1])
    predicted = float(np.mean(runs["sigma"][:, 1] / runs["sigma"][:, 0]))
    gap = abs(corr - predicted)
    ok = gap <= 0.05

    # reverse increments: Cov(D1, D2) matches Var(D2) within 3 bootstrap SEs
    n = PH_NULL.n_total
    d1 = runs["diff"][:, 0] * math.sqrt(n)
    d2 = runs["diff"][:, 1] * math.sqrt(n)
    cov_gap = float(np.cov(d1, d2)[0, 1] - np.var(d2, ddof=1))
    rng = np.random.default_rng(55)
    boots = np.zeros(200)
    for b in range(200):
        idx = rng.integers(0, len(d1), len(d1))
        boots[b] = np.cov(d1[idx], d2[idx])[0, 1] - np.var(d2[idx], ddof=1)
    ok_cov = abs(cov_gap) <= 3 * float(np.std(boots, ddof=1))
    ok = ok and ok_cov
    report(
        3,
        "canonical joint distribution",
        ok,
        f"corr {corr:.3f} vs predicted {predicted:.3f} (gap {gap:.3f}); "
        f"cov-var gap {cov_gap:.4f} within 3 bootstrap SE {3 * float(np.std(boots, ddof=1)):.4f}",
    )
    assert ok


# -- criteria 4 and 5 --------------------------------------------------------

NPH_NULL = Scenario(
    n0=400, n1=400, tau=1.0, alpha0=2.0, alpha1=-1.0, beta_w=0.0,
    covariate_scheme="normal1", phi=math.log(1.5), accrual=2.0, censor_rate=0.0,
    k_analyses=3, total_alpha=0.05, spending_rho=3.0,
    target_info_fractions=(0.5, 0.75, 1.0),
)


@pytest.fixture(scope="session")
def nph_null_oc():
    design = build_design(NPH_NULL)
    cal = calibrate_analysis_times(
        NPH_NULL, replicates=300, seed=202,
        methods=("adjusted", "km", "cox"), workers=WORKERS,
    )
    return run_oc(
        NPH_NULL, design, ("adjusted", "km", "cox"), replicates=2000, seed=2025,
        calibration=cal, workers=WORKERS,
    )


def test_criterion_4_type_one_error_nph(nph_null_oc):
    final = nph_null_oc.final_rejection("adjusted")
    ok = 0.035 <= final <= 0.065
    stagewise = nph_null_oc.cumulative_rejection["adjusted"]
    # spending bound at every stage, within Monte Carlo noise
    design = build_design(NPH_NULL)
    for k, rate in enumerate(stagewise):
        se = nph_null_oc.standard_errors["adjusted"][k]
        budget = design.alpha_spent[k] + 3 * max(se, 1e-4)
        ok = ok and rate <= budget
    report(
        4,
        "proposed test type I error under crossing hazards",
        ok,
        f"cumulative rejection {stagewise}, final {final:.4f} in [0.035, 0.065], "
        f"every stage within its spending budget + 3 SE",
    )
    assert ok


def test_criterion_5_cox_breakdown_nph(nph_null_oc):
    final = nph_null_oc.final_rejection("cox")
    ok = final >= 0.70
    report(
        5,
        "Cox comparator breakdown under crossing hazards",
        ok,
        f"final cumulative type I error {final:.4f} >= 0.70",
    )
    assert ok


@pytest.fixture(scope="module")
def nph_null_two_time_statistics():
    """Criterion 3's recipe under the crossing-hazard null: a 2-look
    calibration, then each method's (z, information) at both looks of 2000
    replicates, 16 replicates' looks to one ``RiskSets``."""
    cal = calibrate_analysis_times(
        replace(NPH_NULL, k_analyses=2, target_info_fractions=(0.5, 1.0)),
        replicates=300, seed=101, workers=WORKERS,
    )
    reps, group = 2000, 16
    out = {m: (np.zeros((reps, 2)), np.zeros((reps, 2))) for m in ("adjusted", "km")}
    for start in range(0, reps, group):
        snaps = []  # rows (replicate, look) in replicate order
        for r in range(start, start + group):
            cols = generate_columns(NPH_NULL, 2024, r)
            snaps += [snapshot(cols, u) for u in cal.analysis_times]
        risk_sets = RiskSets.from_snapshots(snaps)
        for statistic, (z, info) in zip((compare_sp_batch, km_compare_batch), out.values()):
            batch = statistic(risk_sets, NPH_NULL.tau)
            assert not any(batch.errors)
            z[start : start + group] = np.reshape(batch.z, (group, 2))
            info[start : start + group] = np.reshape(batch.info_level, (group, 2))
    return out


@pytest.mark.parametrize("method", ["adjusted", "km"])
def test_canonical_distribution_structure_under_crossing_hazards(nph_null_two_time_statistics, method):
    # criterion 3's bounds where the paper's Markov claim matters most:
    # corr(Z1, Z2) against sqrt(I1 / I2), and Cov(D1, D2) against Var(D2)
    # within 3 bootstrap SEs
    z, info = nph_null_two_time_statistics[method]
    corr = float(np.corrcoef(z[:, 0], z[:, 1])[0, 1])
    predicted = float(np.mean(np.sqrt(info[:, 0] / info[:, 1])))
    gap = abs(corr - predicted)

    d1, d2 = (z / np.sqrt(info) * math.sqrt(NPH_NULL.n_total)).T
    cov_gap = float(np.cov(d1, d2)[0, 1] - np.var(d2, ddof=1))
    rng = np.random.default_rng(55)
    boots = np.zeros(200)
    for b in range(200):
        idx = rng.integers(0, len(d1), len(d1))
        boots[b] = np.cov(d1[idx], d2[idx])[0, 1] - np.var(d2[idx], ddof=1)
    bound = 3 * float(np.std(boots, ddof=1))
    print(f"\nNPH canonical structure, {method}: corr {corr:.3f} vs predicted {predicted:.3f} "
          f"(gap {gap:.3f}); cov-var gap {cov_gap:.4f} within 3 bootstrap SE {bound:.4f}")
    assert gap <= 0.05
    assert abs(cov_gap) <= bound


# -- criterion 6 -------------------------------------------------------------

from conftest import PH_ALT_BASE


def test_criterion_6_power_ordering_and_calibration(ph_alt_effect):
    design = ph_alt_effect["design"]
    cal = ph_alt_effect["calibration"]
    effect = ph_alt_effect["effect"]
    replay = run_oc(
        Scenario(**{**PH_ALT_BASE.__dict__, "beta_w": effect.beta_delta}),
        design, ("adjusted", "km"), replicates=2000, seed=505,
        calibration=cal, workers=WORKERS,
    )
    power_adj = replay.final_rejection("adjusted")
    power_km = replay.final_rejection("km")
    ok = (power_adj >= power_km) and (0.75 <= power_adj <= 0.85)
    report(
        6,
        "power ordering with covariate adjustment",
        ok,
        f"calibrated effect {effect.beta_delta:.4f} (probe power {effect.power:.3f}); "
        f"replay power adjusted {power_adj:.3f} vs KM {power_km:.3f}",
    )
    assert ok


# -- criterion 7 -------------------------------------------------------------

def test_criterion_7_boundary_engine_against_oracles():
    # single-stage boundaries equal normal quantiles
    d2 = boundaries(SpendingFunction(0.05, "power", rho=3.0, sidedness="two_sided"), [1.0])
    d1 = boundaries(
        SpendingFunction(0.025, "power", rho=2.0, sidedness="one_sided_upper"), [1.0]
    )
    quantile_ok = (
        abs(d2.critical_values[0] - norm.ppf(1 - 0.025)) <= 1e-6
        and abs(d1.critical_values[0] - norm.ppf(1 - 0.025)) <= 1e-6
    )

    rng = np.random.default_rng(7007)
    families = ("power", "obf_like", "pocock_like")
    sided = ("two_sided", "one_sided_upper", "one_sided_lower")
    worst_spend_gap = 0.0
    worst_mc_sds = 0.0
    for i in range(50):
        k = int(rng.integers(1, 7))
        fracs = np.sort(rng.uniform(0.05, 1.0, k))
        fracs[-1] = 1.0
        while np.any(np.diff(fracs) < 0.05):
            fracs = np.sort(rng.uniform(0.05, 1.0, k))
            fracs[-1] = 1.0
        family = families[int(rng.integers(0, 3))]
        alpha = float(rng.uniform(0.01, 0.10))
        sf = SpendingFunction(
            alpha, family, rho=float(rng.uniform(0.5, 4.0)), sidedness=sided[int(rng.integers(0, 3))]
        )
        design = boundaries(sf, fracs)
        probs = crossing_probabilities(design, 0.0)
        increments = np.diff(np.concatenate(([0.0], design.alpha_spent)))
        gap = float(np.max(np.abs(probs - increments)))
        worst_spend_gap = max(worst_spend_gap, gap)
        assert gap <= 1e-6, f"design {i}: spending reproduction gap {gap:.2e}"

        draws = 10**6
        sim = gs_crossing_by_simulation(
            design.info_fractions, design.critical_values, sf.sidedness, 0.0,
            draws=draws, seed=9000 + i,
        )
        total_se = math.sqrt(alpha * (1 - alpha) / draws)
        total_gap_sds = abs(float(sim.sum()) - float(probs.sum())) / total_se
        worst_mc_sds = max(worst_mc_sds, total_gap_sds)
        assert total_gap_sds <= 3.0, f"design {i}: MC total gap {total_gap_sds:.2f} SE"
        for kk in range(k):
            p = max(float(probs[kk]), 1e-9)
            se = math.sqrt(p * (1 - p) / draws)
            assert abs(float(sim[kk]) - p) <= 4 * se + 1e-9, f"design {i} stage {kk}"

    ok = quantile_ok
    report(
        7,
        "boundary engine vs spending increments and MC oracle",
        ok,
        f"50 random designs: worst spending gap {worst_spend_gap:.1e}, "
        f"worst MC total deviation {worst_mc_sds:.2f} SE; single-stage quantile ok={quantile_ok}",
    )
    assert ok


# -- criterion 8 -------------------------------------------------------------

def test_criterion_8_simulation_determinism(tmp_path):
    from seqsurv import scenario_to_text

    scenario_file = tmp_path / "scenario.txt"
    scenario_file.write_text(
        scenario_to_text(Scenario(n0=60, n1=60, tau=1.0, accrual=1.0,
                                  covariate_scheme="normal1", phi=0.3))
    )
    outputs = []
    for tag, workers in (("a", "1"), ("b", "1"), ("c", "2")):
        out = tmp_path / f"oc_{tag}.csv"
        code = cli_main([
            "simulate", str(scenario_file), "--replicates", "80", "--seed", "17",
            "--workers", workers, "--calibration-replicates", "30",
            "--out", str(out),
        ])
        assert code == 0
        outputs.append(out.read_bytes())
    ok = outputs[0] == outputs[1] == outputs[2]
    report(
        8,
        "simulation determinism across runs and worker counts",
        ok,
        f"{len(outputs)} runs, byte-identical={ok}",
    )
    assert ok
