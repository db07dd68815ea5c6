"""Covariate-adjusted survival probabilities and their sequential test statistic.

The adjusted survival probability under arm ``i`` averages the model-based
conditional survival at ``t0`` over the pooled covariate sample.  The variance
of the arm difference combines a martingale term per stratum (uncertainty in
the baseline cumulative hazard) with a delta-method term for the shared
coefficient estimate.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .cox import StratifiedCoxFit, fit_mple
from .data import Snapshot, check_t0
from .errors import DegenerateDataError


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


def variance_components(fit: StratifiedCoxFit, snap: Snapshot, t0: float) -> VarianceComponents:
    """Evaluate every variance ingredient at the fitted coefficients.

    Event sums run over (0, t0], inclusive of events at exactly t0, and
    reuse the risk-set sums the fit carries; pooled averages run over all
    subjects in ``snap``, the snapshot the fit was made on.
    """
    if t0 > fit.calendar_time:
        raise ValueError(
            f"survival time {t0:g} exceeds the fit's calendar horizon {fit.calendar_time:g}"
        )
    n = snap.n
    beta = fit.beta_hat
    risk_sets, sums = fit.risk_sets, fit.event_sums
    # the fit guarantees positive, finite risk-set sums at beta_hat
    jump = risk_sets.dn / sums.r0
    lam_t0 = np.zeros(2)
    cumhaz_var = np.zeros(2)
    cumhaz_grad = np.zeros((2, snap.n_covariates))
    for i, groups in enumerate(risk_sets.groups):
        k = int(np.searchsorted(risk_sets.event_times[groups], t0, side="right"))
        g = slice(groups.start, groups.start + k)
        lam_t0[i] = jump[g].sum()
        cumhaz_var[i] = risk_sets.sizes[i] * float(np.sum(jump[g] / sums.r0[g]))
        cumhaz_grad[i] = (jump[g] / sums.r0[g]) @ sums.r1[g]

    rel_risk = np.exp(snap.covariates @ beta)
    cond_surv = np.exp(-lam_t0[:, None] * rel_risk)   # (2, n)
    weighted = cond_surv * rel_risk
    sp = cond_surv.mean(axis=1)
    sens = weighted.mean(axis=1)
    sens_z = weighted @ snap.covariates / n

    sp_grad = sens[:, None] * cumhaz_grad - lam_t0[:, None] * sens_z

    return VarianceComponents(
        t0=float(t0),
        cumhaz_variance=cumhaz_var,
        cumhaz_beta_gradient=cumhaz_grad,
        hazard_sensitivity=sens,
        hazard_sensitivity_z=sens_z,
        mean_information=fit.observed_information / n,
        sp_beta_gradient=sp_grad,
        sp_diff_beta_gradient=sp_grad[1] - sp_grad[0],
        baseline_cumhaz_t0=lam_t0,
        adjusted_sp=sp,
        arm_sizes=risk_sets.sizes,
        n=n,
    )


def sp_variance(components: VarianceComponents) -> float:
    """Variance of the root-n scaled adjusted-SP difference.

    The coefficient-uncertainty term contracts the SP gradient with the
    inverse of the mean information (the delta method).
    """
    n0, n1 = components.arm_sizes
    n = components.n
    if min(n0, n1) == 0:
        raise DegenerateDataError("both arms must be present to compare survival probabilities")
    total = float(
        (n / n0) * components.hazard_sensitivity[0] ** 2 * components.cumhaz_variance[0]
        + (n / n1) * components.hazard_sensitivity[1] ** 2 * components.cumhaz_variance[1]
    )
    d = components.sp_diff_beta_gradient
    if d.size:
        sigma = components.mean_information
        if not np.all(np.isfinite(sigma)):
            return float("nan")  # compare_sp reports it as a degenerate variance
        try:
            np.linalg.cholesky(sigma)  # positive-definiteness test
            total += float(d @ np.linalg.solve(sigma, d))
        except np.linalg.LinAlgError:
            total += float(d @ np.linalg.pinv(sigma) @ d)
    return total


@dataclass(frozen=True)
class SPComparison:
    """Adjusted survival probabilities, their difference, and the standardized
    statistic at one calendar analysis time."""

    t0: float
    u: float
    s_hat: tuple[float, float]
    diff: float
    sigma2_hat: float
    info_level: float
    z: float
    n: int
    components: VarianceComponents
    fit: StratifiedCoxFit


def compare_sp(snap: Snapshot, t0: float) -> SPComparison:
    """Fit the stratified model at the snapshot and standardize the adjusted
    survival probability difference at ``t0``.

    The information level is the reciprocal variance of the (unscaled)
    difference estimate, ``n / sigma2_hat``.
    """
    check_t0(t0, snap)
    if snap.arm_size(0) == 0 or snap.arm_size(1) == 0:
        raise DegenerateDataError("both arms must be present to compare survival probabilities")
    fit = fit_mple(snap)
    comps = variance_components(fit, snap, t0)
    sigma2 = sp_variance(comps)
    if sigma2 <= 0.0 or not np.isfinite(sigma2):
        raise DegenerateDataError(
            f"variance estimate is not positive ({sigma2:g}); "
            "no usable events in (0, t0] in either stratum"
        )
    n = snap.n
    s0, s1 = float(comps.adjusted_sp[0]), float(comps.adjusted_sp[1])
    diff = s1 - s0
    z = float(np.sqrt(n) * diff / np.sqrt(sigma2))
    return SPComparison(
        t0=float(t0),
        u=snap.calendar_time,
        s_hat=(s0, s1),
        diff=diff,
        sigma2_hat=sigma2,
        info_level=n / sigma2,
        z=z,
        n=n,
        components=comps,
        fit=fit,
    )
