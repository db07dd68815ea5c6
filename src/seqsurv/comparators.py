"""Reference comparison methods: unadjusted Kaplan-Meier at a fixed time and
the Wald test of a treatment coefficient in an unstratified Cox model.

Each comparator computes a batch of snapshots, its rows, in one call, and
takes the batch as its snapshots or their ``RiskSets``: ``km_compare_batch``
reads every row's at-risk counts from the ``RiskSets`` and computes all
rows' estimates in one vectorised pass, and ``cox_wald_batch`` makes one
``fit_mple_batch`` on the ``PooledRiskSets`` kernel, which reads the
per-arm sums of the batch's ``RiskSets``.  A row that cannot support the
statistic gets the error the single-snapshot function raises for it, and
the other rows go on.
``km_compare`` and ``cox_wald`` are the batch of one.  A row's arithmetic
never depends on the other rows, so a snapshot computed alone and at any
position of a batch gets the same bits.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .cox import (
    STRATA,
    FitBatch,
    PooledRiskSets,
    RiskSets,
    StratifiedCoxFit,
    fit_mple_batch,
)
from .cox import fit_mple  # noqa: F401  bench/spans.py wraps seqsurv.comparators.fit_mple
from .data import Snapshot, check_t0
from .errors import DegenerateDataError, SeqSurvError


def _km_at_t0(rs: RiskSets, t0: float) -> tuple[np.ndarray, np.ndarray]:
    """Each (row, arm) pair's product-limit estimate at ``t0`` and its
    Greenwood variance, from the at-risk counts of the pair's event groups at
    or before ``t0``; an arm without such groups gets 1 and 0.

    The pairs' groups are laid out as one (2B, L) block, padded with ones for
    the product and zeros for the Greenwood sum.  Both are sequential scans
    along a pair, and the padding leaves a scan's value unchanged, so a
    pair's bits do not depend on L or on the other pairs.
    """
    kept = rs.event_times <= t0
    # kept groups are the first of their pair, its groups ascending in time
    before = np.concatenate(([0], np.cumsum(kept)))
    counts = before[rs.offsets[1:]] - before[rs.offsets[:-1]]
    filled = np.arange(max(int(counts.max()), 1)) < counts[:, None]
    at_risk, dn = rs.at_risk[kept], rs.dn[kept]
    factors = np.ones(filled.shape)
    factors[filled] = 1.0 - dn / at_risk
    # Greenwood terms blow up when the whole risk set fails; survival is then
    # exactly zero and its variance is taken as zero.
    terms = np.zeros(filled.shape)
    with np.errstate(divide="ignore", invalid="ignore"):
        terms[filled] = np.where(at_risk > dn, dn / (at_risk * (at_risk - dn)), 0.0)
    surv = np.cumprod(factors, axis=1)[:, -1]
    var = surv**2 * np.cumsum(terms, axis=1)[:, -1]
    return surv, np.where(surv != 0.0, var, 0.0)


@dataclass(frozen=True)
class KMComparison:
    t0: float
    u: float
    s_hat: tuple[float, float]
    diff: float
    se: float
    z: float
    info_level: float


class KMBatch(NamedTuple):
    """``km_compare_batch``'s outcome: each snapshot's per-arm estimates,
    summed Greenwood variance, statistic and information level, NaN where the
    row raised the ``SeqSurvError`` in ``errors``.  ``result(b)`` is what
    ``km_compare`` returns for row b."""

    t0: float
    snapshots: tuple[Snapshot, ...]
    s_hat: list[tuple[float, float]]
    variance: list[float]
    z: list[float]
    info_level: list[float]
    errors: list[SeqSurvError | None]

    def result(self, b: int = 0) -> KMComparison:
        """Row b's comparison; raises the error of a failed row."""
        if self.errors[b] is not None:
            raise self.errors[b]
        s0, s1 = self.s_hat[b]
        return KMComparison(
            t0=self.t0,
            u=self.snapshots[b].calendar_time,
            s_hat=(s0, s1),
            diff=s1 - s0,
            se=float(np.sqrt(self.variance[b])),
            z=self.z[b],
            info_level=self.info_level[b],
        )


def km_compare_batch(batch: Sequence[Snapshot] | RiskSets, t0: float) -> KMBatch:
    """Difference of per-arm product-limit estimates at ``t0`` for each
    snapshot, standardized by the summed Greenwood variances.  Information is
    the reciprocal variance.  ``batch`` is the snapshots or their
    ``RiskSets``.

    A row with an arm of no subjects, or with no events by ``t0`` in either
    arm (or both estimates at 0 or 1, so that the variances vanish), has no
    statistic: it gets a ``DegenerateDataError``.  An arm whose last
    follow-up is before ``t0`` carries its last estimate forward, with a
    warning.  A ``t0`` that is not positive or exceeds a snapshot's calendar
    time raises ``ValueError``.
    """
    risk_sets = RiskSets.from_snapshots(batch)
    snaps = risk_sets.snapshots
    for snap in snaps:
        check_t0(t0, snap)
    surv, var = (v.reshape(-1, 2).tolist() for v in _km_at_t0(risk_sets, t0))
    sizes = risk_sets.sizes.tolist()
    # each nonempty arm's longest follow-up: its last subject in sorted order
    longest = np.full(2 * len(snaps), math.inf)
    nonempty = np.flatnonzero(risk_sets.sizes.ravel())
    longest[nonempty] = risk_sets.follow_up[risk_sets.pair_ends[nonempty] - 1]
    longest = longest.reshape(-1, 2).tolist()
    n_rows = len(snaps)
    errors: list[SeqSurvError | None] = [None] * n_rows
    s_hat = [(math.nan, math.nan)] * n_rows
    variance, z, info_level = [math.nan] * n_rows, [math.nan] * n_rows, [math.nan] * n_rows
    for b in range(n_rows):
        for i in STRATA:
            if sizes[b][i] == 0:
                errors[b] = DegenerateDataError(f"stratum {i} has no subjects")
                break
            if t0 > longest[b][i]:
                warnings.warn(
                    f"stratum {i}: no subjects under observation at {t0:g}; "
                    "carrying the last Kaplan-Meier value forward",
                    RuntimeWarning,
                    stacklevel=2,
                )
        if errors[b] is not None:
            continue
        (s0, s1), (v0, v1) = surv[b], var[b]
        total_var = v0 + v1
        if total_var <= 0.0:
            cause = (
                "no events by t0 in either arm"
                if s0 == s1 == 1.0
                else "each arm's estimate at t0 is 0 or 1"
            )
            errors[b] = DegenerateDataError(
                f"Kaplan-Meier comparison at t0 = {t0:g} has zero variance: {cause}"
            )
            continue
        s_hat[b], variance[b] = (s0, s1), total_var
        z[b] = (s1 - s0) / float(np.sqrt(total_var))
        info_level[b] = 1.0 / total_var
    return KMBatch(float(t0), snaps, s_hat, variance, z, info_level, errors)


def km_compare(snap: Snapshot, t0: float) -> KMComparison:
    """Difference of per-arm product-limit estimates at ``t0``:
    ``km_compare_batch`` on a batch of one.  Raises the row's error, a
    ``DegenerateDataError`` when there is no statistic."""
    return km_compare_batch((snap,), t0).result(0)


@dataclass(frozen=True)
class CoxWaldResult:
    beta_w_hat: float
    se: float
    z: float
    info_level: float
    fit: StratifiedCoxFit


class CoxWaldBatch(NamedTuple):
    """``cox_wald_batch``'s outcome: each snapshot's treatment coefficient,
    its standard error, statistic and information level, NaN where the row
    raised the ``SeqSurvError`` in ``errors``.  ``fits`` is the fit of the
    pooled kernel.  ``result(b)`` is what ``cox_wald`` returns for row b."""

    beta_w_hat: list[float]
    se: list[float]
    z: list[float]
    info_level: list[float]
    errors: list[SeqSurvError | None]
    fits: FitBatch

    def result(self, b: int = 0) -> CoxWaldResult:
        """Row b's test; raises the error of a failed row."""
        if self.errors[b] is not None:
            raise self.errors[b]
        return CoxWaldResult(
            beta_w_hat=self.beta_w_hat[b],
            se=self.se[b],
            z=self.z[b],
            info_level=self.info_level[b],
            fit=self.fits.fit(b),
        )


def _treatment_variance(information: np.ndarray) -> float:
    """Variance of the first coefficient: the (0, 0) entry of the inverse
    information, or of its pseudo-inverse when it is singular."""
    try:
        cov = np.linalg.inv(information)
    except np.linalg.LinAlgError:
        cov = np.linalg.pinv(information)
    return float(cov[0, 0])


def cox_wald_batch(batch: Sequence[Snapshot] | RiskSets) -> CoxWaldBatch:
    """Wald test of the treatment coefficient in an unstratified Cox model,
    for each snapshot.

    The design matrix is the treatment indicator followed by the snapshot's
    covariates, with a single baseline hazard: ``fit_mple_batch`` on the
    ``PooledRiskSets`` of the batch, which is the snapshots or their
    ``RiskSets``.  A row whose fit fails gets its error; a row whose
    treatment variance is not positive gets a ``DegenerateDataError``.
    """
    fits = fit_mple_batch(PooledRiskSets.from_snapshots(batch))
    n_rows = len(fits.errors)
    errors = list(fits.errors)
    beta_w, se, z, info_level = ([math.nan] * n_rows for _ in range(4))
    for b in range(n_rows):
        if errors[b] is not None:
            continue
        var_w = _treatment_variance(fits.values.information[b])
        if var_w <= 0.0:
            errors[b] = DegenerateDataError("treatment coefficient variance is not positive")
            continue
        beta_w[b] = float(fits.beta_hat[b, 0])
        se[b] = float(np.sqrt(var_w))
        z[b] = beta_w[b] / se[b]
        info_level[b] = 1.0 / var_w
    return CoxWaldBatch(beta_w, se, z, info_level, errors, fits)


def cox_wald(snap: Snapshot) -> CoxWaldResult:
    """Wald test of the treatment coefficient in an unstratified Cox model:
    ``cox_wald_batch`` on a batch of one.  Raises the row's error."""
    return cox_wald_batch((snap,)).result(0)
