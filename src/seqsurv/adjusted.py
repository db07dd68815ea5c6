"""Covariate-adjusted survival probabilities and their sequential test statistic.

The adjusted survival probability under arm ``i`` averages the model-based
conditional survival at ``t0`` over the pooled covariate sample.  The variance
of the arm difference combines a martingale term per stratum (uncertainty in
the baseline cumulative hazard) with a delta-method term for the shared
coefficient estimate.

``compare_sp_batch`` computes the statistic for a batch of snapshots, or
for their ``RiskSets``: one ``fit_mple_batch`` of every row and one
vectorised pass of the variance ingredients and the variance.  It returns
the ``StatisticBatch`` every method returns: the per-arm probabilities, their
difference with its standard error, z, the information level and the fits.
``compare_sp`` (a ``Statistic``) and ``variance_components`` are its batch
of one.  As in the fit, each row's sums reduce only its own entries, so a
row's bits do not depend on its batch.
"""

from __future__ import annotations

import math
from collections import namedtuple
from dataclasses import dataclass, fields
from typing import Sequence

import numpy as np

from .cox import (
    FitBatch,
    RiskSets,
    Statistic,
    StatisticBatch,
    StratifiedCoxFit,
    _cat,
    _linear,
    _segment_sums,
    fit_mple_batch,
    solve_stack,
)
from .cox import fit_mple  # noqa: F401  bench/spans.py wraps seqsurv.adjusted.fit_mple
from .data import Snapshot, check_t0
from .errors import DegenerateDataError, SeqSurvError


@dataclass(frozen=True)
class VarianceComponents:
    """Ingredients of the variance of the adjusted survival probability difference.

    Per-stratum arrays are indexed by arm.  ``cumhaz_variance`` estimates the
    variance of the baseline cumulative hazard estimate on [0, t0];
    ``cumhaz_beta_gradient`` is minus its derivative in the coefficients.
    ``hazard_sensitivity`` (and its covariate-weighted companion) measure how
    the adjusted survival probability responds to a baseline-hazard
    perturbation, and ``sp_beta_gradient`` is the resulting total derivative
    of the adjusted survival probability in the coefficients.
    ``mean_information`` is the observed information divided by the pooled
    sample size.

    The batched pass fills the same fields, each but ``t0`` with a leading
    row axis (``arm_sizes`` (B, 2), ``n`` (B,)), in a ``_Components`` tuple;
    ``_row`` takes one row out.
    """

    t0: float
    cumhaz_variance: np.ndarray        # (2,)
    cumhaz_beta_gradient: np.ndarray   # (2, p)
    hazard_sensitivity: np.ndarray     # (2,)
    hazard_sensitivity_z: np.ndarray   # (2, p)
    mean_information: np.ndarray       # (p, p)
    sp_beta_gradient: np.ndarray       # (2, p)
    sp_diff_beta_gradient: np.ndarray  # (p,)
    baseline_cumhaz_t0: np.ndarray     # (2,)
    adjusted_sp: np.ndarray            # (2,)
    arm_sizes: tuple[int, int]
    n: int


# the batched pass's container: VarianceComponents' fields, in its order
_FIELDS = tuple(f.name for f in fields(VarianceComponents))
_Components = namedtuple("_Components", _FIELDS)


def _components(fits: FitBatch, t0: float) -> _Components:
    """Every variance ingredient of the fitted rows at their coefficients,
    with a leading row axis.

    Event sums run over (0, t0], inclusive of events at exactly t0, and reuse
    the risk-set sums the fit carries; pooled averages run over all subjects
    of each row's snapshot.  Each sum reduces one row's or one stratum's own
    entries.
    """
    rs = fits.risk_sets
    beta = fits.beta_hat
    n_rows, p = beta.shape
    # a successful fit guarantees positive, finite risk-set sums at beta_hat
    r0 = fits.values.r0
    q = r0.size
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        # per event group in (0, t0]: the hazard jump, jump / r0 and
        # jump * r1 / r0**2, one row per column, then each stratum's sums
        terms = np.empty((2 + p, q + 1))
        terms[:, q] = 0.0
        jump = np.divide(rs.dn, r0, out=terms[0, :q])
        rate = np.divide(jump, r0, out=terms[1, :q])
        np.multiply(rate, fits.values.r1.T, out=terms[2:, :q])
        terms[:, :q] *= rs.event_times <= t0
        by_stratum = _segment_sums(terms, rs.offsets, rs.offsets[1:] > rs.offsets[:-1])
        by_stratum = by_stratum.T.reshape(n_rows, 2, 2 + p)
        lam_t0 = by_stratum[..., 0]
        cumhaz_grad = by_stratum[..., 2:]

        # per subject: conditional survival in each arm, times the relative
        # risk, times the covariates, one row per column, then each row's means
        n = np.array([s.n for s in rs.snapshots])
        z = _cat([s.covariates for s in rs.snapshots])
        rel_risk = np.exp(_linear(z, np.repeat(beta, n, axis=0)))
        terms = np.empty((4 + 2 * p, rel_risk.size))
        cond_surv = np.exp(-np.repeat(lam_t0.T, n, axis=1) * rel_risk, out=terms[0:2])
        weighted = np.multiply(cond_surv, rel_risk, out=terms[2:4])
        np.multiply(weighted[:, None, :], z.T, out=terms[4:].reshape(2, p, rel_risk.size))
        means = (np.add.reduceat(terms, np.cumsum(n) - n, axis=1) / n).T
    sens = means[:, 2:4]
    sens_z = means[:, 4:].reshape(n_rows, 2, p)
    sp_grad = sens[..., None] * cumhaz_grad - lam_t0[..., None] * sens_z

    return _Components(
        t0=float(t0),
        cumhaz_variance=rs.sizes * by_stratum[..., 1],
        cumhaz_beta_gradient=cumhaz_grad,
        hazard_sensitivity=sens,
        hazard_sensitivity_z=sens_z,
        mean_information=fits.values.information / n[:, None, None],
        sp_beta_gradient=sp_grad,
        sp_diff_beta_gradient=sp_grad[:, 1] - sp_grad[:, 0],
        baseline_cumhaz_t0=lam_t0,
        adjusted_sp=means[:, 0:2],
        arm_sizes=rs.sizes,
        n=n,
    )


def _row(batch: _Components, b: int) -> VarianceComponents:
    """Row b of batched components."""
    arm_sizes, n = batch[-2:]
    return VarianceComponents(
        batch.t0,
        *(field[b] for field in batch[1:-2]),
        (int(arm_sizes[b, 0]), int(arm_sizes[b, 1])),
        int(n[b]),
    )


def _sp_variances(c: _Components) -> np.ndarray:
    """Each row's variance of the root-n scaled adjusted-SP difference.

    The coefficient-uncertainty term contracts the SP gradient with the
    inverse of the mean information (the delta method); a row whose mean
    information is not finite gets NaN.
    """
    # (n / n_i) * sensitivity_i**2 * cumhaz_variance_i, summed over the arms;
    # NaN for a row with an empty arm
    with np.errstate(divide="ignore", invalid="ignore"):
        by_arm = c.n[:, None] / c.arm_sizes * c.hazard_sensitivity**2 * c.cumhaz_variance
    total = by_arm[:, 0] + by_arm[:, 1]
    d = c.sp_diff_beta_gradient
    if d.shape[1]:
        sigma = c.mean_information
        finite = np.isfinite(sigma).all(axis=(1, 2))
        all_finite = finite.all()
        if not all_finite:
            sigma = np.where(finite[:, None, None], sigma, np.eye(d.shape[1]))
        solution, _ = solve_stack(sigma, d)
        total = total + _linear(d, solution)
        if not all_finite:
            total[~finite] = np.nan
    return total


def variance_components(fit: StratifiedCoxFit, t0: float) -> VarianceComponents:
    """Evaluate every variance ingredient at the fitted coefficients: the
    fit's row of the batched pass, averaging over the subjects of the
    snapshot the fit was made on."""
    if not isinstance(fit.batch.risk_sets, RiskSets):
        raise ValueError("variance components need a treatment-stratified fit, not a Cox-Wald fit")
    if t0 > fit.calendar_time:
        raise ValueError(
            f"survival time {t0:g} exceeds the fit's calendar horizon {fit.calendar_time:g}"
        )
    return _row(_components(fit.batch, t0), fit.row)


def compare_sp_batch(batch: Sequence[Snapshot] | RiskSets, t0: float) -> StatisticBatch:
    """Fit the stratified model at each snapshot and standardize its adjusted
    survival probability difference at ``t0``.

    ``batch`` is the snapshots or their ``RiskSets``.  The estimate is
    S1(t0) - S0(t0); with sigma2 the variance of its root-n scaled form, its
    standard error is sqrt(sigma2 / n) and its information level
    n / sigma2.  Every row is fitted; a row that cannot support the
    statistic gets the error ``compare_sp`` raises for it, a row without both
    arms a ``DegenerateDataError`` whatever its fit gave.  A ``t0`` that is
    not positive or exceeds a snapshot's calendar time raises ``ValueError``.
    """
    risk_sets = RiskSets.from_snapshots(batch)
    snaps = risk_sets.snapshots
    for snap in snaps:
        check_t0(t0, snap)
    fits = fit_mple_batch(risk_sets)
    comps = _components(fits, t0)
    variances = _sp_variances(comps).tolist()
    sp = comps.adjusted_sp.tolist()
    sizes = risk_sets.sizes.tolist()
    n_rows = len(snaps)
    errors: list[SeqSurvError | None] = [None] * n_rows
    estimate, se, z, info_level = ([math.nan] * n_rows for _ in range(4))
    s_hat = [(math.nan, math.nan)] * n_rows
    for b, snap in enumerate(snaps):
        s2 = variances[b]
        if 0 in sizes[b]:
            errors[b] = DegenerateDataError(
                "both arms must be present to compare survival probabilities"
            )
        elif fits.errors[b] is not None:
            errors[b] = fits.errors[b]
        elif not (s2 > 0.0 and math.isfinite(s2)):
            errors[b] = DegenerateDataError(
                f"variance estimate is not positive ({s2:g}); "
                "no usable events in (0, t0] in either stratum"
            )
        else:
            s0, s1 = sp[b]
            s_hat[b], estimate[b], se[b] = (s0, s1), s1 - s0, math.sqrt(s2 / snap.n)
            z[b] = math.sqrt(snap.n) * (s1 - s0) / math.sqrt(s2)
            info_level[b] = snap.n / s2
    return StatisticBatch(estimate, se, z, info_level, errors, s_hat, fits)


def compare_sp(snap: Snapshot, t0: float) -> Statistic:
    """Fit the stratified model at the snapshot and standardize the adjusted
    survival probability difference at ``t0``: ``compare_sp_batch`` on a
    batch of one.  Raises the row's error."""
    return compare_sp_batch((snap,), t0).row(0)
