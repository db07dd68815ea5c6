"""Reference comparison methods: unadjusted Kaplan-Meier at a fixed time and
the Wald test of a treatment coefficient in an unstratified Cox model."""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np

from .cox import StratifiedCoxFit, fit_mple
from .data import Snapshot
from .errors import DegenerateDataError


@dataclass(frozen=True)
class KMEstimate:
    """Product-limit survival estimate for one arm with Greenwood variance."""

    stratum: int
    times: np.ndarray      # distinct event times, ascending
    survival: np.ndarray   # estimate at and after each event time
    variance: np.ndarray   # Greenwood variance on the survival scale
    max_follow_up: float

    def at(self, t0: float) -> tuple[float, float]:
        """Estimate and variance at ``t0``; carried flat beyond the last
        observed follow-up (with a warning)."""
        if t0 > self.max_follow_up:
            warnings.warn(
                f"stratum {self.stratum}: no subjects under observation at {t0:g}; "
                "carrying the last Kaplan-Meier value forward",
                RuntimeWarning,
                stacklevel=2,
            )
        idx = int(np.searchsorted(self.times, t0, side="right"))
        if idx == 0:
            return 1.0, 0.0
        return float(self.survival[idx - 1]), float(self.variance[idx - 1])


def km_fit(snap: Snapshot, stratum: int) -> KMEstimate:
    mask = snap.arm == stratum
    if not mask.any():
        raise DegenerateDataError(f"stratum {stratum} has no subjects")
    x = snap.follow_up[mask]
    d = snap.event_observed[mask]
    order = np.argsort(x, kind="stable")
    x = x[order]
    d = d[order]
    ev_x = x[d]
    times, first_pos = np.unique(ev_x, return_index=True)
    dn = np.diff(np.append(first_pos, ev_x.size)).astype(np.float64)
    at_risk = x.size - np.searchsorted(x, times, side="left").astype(np.float64)
    surv = np.cumprod(1.0 - dn / at_risk)
    # Greenwood terms blow up when the whole risk set fails; survival is then
    # exactly zero and its variance is taken as zero from that point on.
    with np.errstate(divide="ignore", invalid="ignore"):
        terms = np.where(at_risk > dn, dn / (at_risk * (at_risk - dn)), 0.0)
    var = surv**2 * np.cumsum(terms)
    var[surv == 0.0] = 0.0
    return KMEstimate(
        stratum=stratum,
        times=times,
        survival=surv,
        variance=var,
        max_follow_up=float(x.max()) if x.size else 0.0,
    )


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
    if t0 > snap.calendar_time:
        raise ValueError(
            f"survival time {t0:g} exceeds the snapshot's calendar time {snap.calendar_time:g}"
        )
    s0, v0 = km_fit(snap, 0).at(t0)
    s1, v1 = km_fit(snap, 1).at(t0)
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
