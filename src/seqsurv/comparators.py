"""Reference comparison methods: unadjusted Kaplan-Meier at a fixed time and
the Wald test of a treatment coefficient in an unstratified Cox model."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cox import RiskSetLayout, StratifiedCoxFit, fit_mple
from .data import Snapshot, check_t0
from .errors import DegenerateDataError


def _km_at(layout: RiskSetLayout, snap: Snapshot, stratum: int, t0: float) -> tuple[float, float]:
    """One arm's product-limit estimate at ``t0`` and its Greenwood variance,
    from the at-risk counts of the arm's event groups; carried flat beyond
    the arm's last observed follow-up (with a warning)."""
    if layout.sizes[0, stratum] == 0:
        raise DegenerateDataError(f"stratum {stratum} has no subjects")
    if t0 > snap.follow_up[snap.arm == stratum].max():
        warnings.warn(
            f"stratum {stratum}: no subjects under observation at {t0:g}; "
            "carrying the last Kaplan-Meier value forward",
            RuntimeWarning,
            stacklevel=2,
        )
    g = layout.groups()[stratum]
    k = int(np.searchsorted(layout.event_times[g], t0, side="right"))
    if k == 0:
        return 1.0, 0.0
    g = slice(g.start, g.start + k)
    at_risk = layout.at_risk[g]
    dn = layout.dn[g]
    surv = np.cumprod(1.0 - dn / at_risk)
    # Greenwood terms blow up when the whole risk set fails; survival is then
    # exactly zero and its variance is taken as zero.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(at_risk > dn, dn / (at_risk * (at_risk - dn)), 0.0)
    var = surv**2 * np.cumsum(terms)
    return float(surv[-1]), (float(var[-1]) if surv[-1] != 0.0 else 0.0)


@dataclass(frozen=True)
class KMComparison:
    t0: float
    u: float
    s_hat: tuple[float, float]
    diff: float
    se: float
    z: float
    info_level: float


def km_compare(snap: Snapshot, t0: float) -> KMComparison:
    """Difference of per-arm product-limit estimates at ``t0``, standardized by
    the summed Greenwood variances.  Information is the reciprocal variance.

    With no events by ``t0`` in either arm (or both estimates at 0 or 1) the
    variances vanish and there is no statistic: that raises
    ``DegenerateDataError``.
    """
    check_t0(t0, snap)
    layout = RiskSetLayout.from_snapshot(snap)
    s0, v0 = _km_at(layout, snap, 0, t0)
    s1, v1 = _km_at(layout, snap, 1, t0)
    diff = s1 - s0
    total_var = v0 + v1
    if total_var <= 0.0:
        cause = (
            "no events by t0 in either arm"
            if s0 == s1 == 1.0
            else "each arm's estimate at t0 is 0 or 1"
        )
        raise DegenerateDataError(
            f"Kaplan-Meier comparison at t0 = {t0:g} has zero variance: {cause}"
        )
    se = float(np.sqrt(total_var))
    return KMComparison(
        t0=float(t0),
        u=snap.calendar_time,
        s_hat=(s0, s1),
        diff=diff,
        se=se,
        z=diff / se,
        info_level=1.0 / total_var,
    )


@dataclass(frozen=True)
class CoxWaldResult:
    beta_w_hat: float
    se: float
    z: float
    info_level: float
    fit: StratifiedCoxFit


def cox_wald(snap: Snapshot) -> CoxWaldResult:
    """Wald test of the treatment coefficient in an unstratified Cox model.

    The design matrix is the treatment indicator followed by the snapshot's
    covariates, fitted with a single baseline hazard by reusing the stratified
    machinery with every subject in one stratum.
    """
    pooled = Snapshot(
        calendar_time=snap.calendar_time,
        ids=snap.ids,
        arm=np.zeros(snap.n, dtype=np.int8),
        follow_up=snap.follow_up.copy(),
        event_observed=snap.event_observed.copy(),
        covariates=np.column_stack([snap.arm.astype(np.float64), snap.covariates]),
    )
    fit = fit_mple(pooled)
    try:
        cov = np.linalg.inv(fit.observed_information)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(fit.observed_information)
    var_w = float(cov[0, 0])
    if var_w <= 0.0:
        raise DegenerateDataError("treatment coefficient variance is not positive")
    se = float(np.sqrt(var_w))
    beta_w = float(fit.beta_hat[0])
    return CoxWaldResult(
        beta_w_hat=beta_w,
        se=se,
        z=beta_w / se,
        info_level=1.0 / var_w,
        fit=fit,
    )
