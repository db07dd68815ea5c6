"""Treatment-stratified proportional-hazards fit at a calendar-time snapshot.

Each treatment arm keeps its own unspecified baseline hazard; the covariate
coefficients are shared.  The partial likelihood is maximized by Newton
iteration with step halving, and the per-arm baseline cumulative hazards come
out as step functions over the observed event times (tied events share the
risk-set denominator).

Every quantity comes from one risk-set kernel (Therneau & Grambsch 2000,
ch. 3).  ``RiskSetLayout.from_snapshot`` sorts the snapshot once and groups
its events; the Kaplan-Meier comparator reads its at-risk counts from that
layout.  ``RiskSets`` adds the covariate columns, and ``RiskSets.evaluate``
returns the log likelihood, score, information and the risk-set sums at the
event groups for a coefficient vector, with one exp(z.beta) and one
cumulative sum per stratum.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import Snapshot
from .errors import ConvergenceError, DegenerateDataError, SeparationError

STRATA = (0, 1)
# A step is halved only when it lowers the log likelihood by more than this
# fraction of |ll|.  Near the optimum the change is rounding noise (about 1e-15
# of |ll| on 4000 subjects with tied times), and halving on it stalls Newton.
_LL_RTOL = 1e-12
# Newton limits of fit_mple
MAX_ITER = 50
SCORE_TOL = 1e-8          # infinity norm of the partial score
MAX_STEP_HALVINGS = 10
SEPARATION_NORM = 50.0    # |beta|_inf beyond this means monotone likelihood


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous nondecreasing step function, zero before the first jump."""

    times: np.ndarray   # jump locations, strictly increasing
    values: np.ndarray  # cumulative value at and after each jump

    def __call__(self, t):
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate(([0.0], self.values))
        return padded[idx]


class RiskSetValues(NamedTuple):
    """The kernel's output at one coefficient vector.

    ``r0`` and ``r1`` are the unnormalized risk-set sums of w and w*z
    (w = exp(beta . z)) at each event group.  When some risk set is empty or
    overflows, ``usable`` is false and ``loglik`` is -inf; the other fields
    are then meaningless.
    """

    loglik: float
    score: np.ndarray        # (p,)
    information: np.ndarray  # (p, p)
    r0: np.ndarray           # (q,)
    r1: np.ndarray           # (q, p)
    usable: bool


@dataclass(frozen=True)
class RiskSetLayout:
    """Risk sets and event groups of one snapshot, built by one sort by
    (arm, follow-up).

    Rows hold the subjects that belong to at least one risk set, stratum by
    stratum, each stratum in descending follow-up order, so that the risk set
    of an event group is a prefix of its stratum's rows: group j of stratum i
    has ``ends[j] - rows[i].start + 1`` subjects at risk.  Event groups (the
    distinct event times of a stratum, ``q`` in all) run stratum 0 first,
    ascending in time within a stratum.
    """

    sizes: tuple[int, int]          # arm sizes, counting zero-follow-up subjects
    subjects: np.ndarray            # (m,) snapshot index of each row
    rows: tuple[slice, slice]       # rows of each stratum
    ends: np.ndarray                # (q,) last row of each group's risk set
    event_times: np.ndarray         # (q,)
    dn: np.ndarray                  # (q,) number of events in each group
    groups: tuple[slice, slice]     # event groups of each stratum

    @classmethod
    def from_snapshot(cls, snap: Snapshot) -> "RiskSetLayout":
        x = snap.follow_up
        order = np.lexsort((x, snap.arm))
        xs = x[order]
        arm = snap.arm[order]
        n = xs.size
        # first sorted position of each run of equal (arm, follow-up): for an
        # event there, it is the first subject of its stratum at risk
        new_run = np.ones(n, dtype=bool)
        new_run[1:] = (xs[1:] != xs[:-1]) | (arm[1:] != arm[:-1])
        run_start = np.maximum.accumulate(np.where(new_run, np.arange(n), 0))
        ev_run = run_start[snap.event_observed[order]]
        new_group = np.ones(ev_run.size, dtype=bool)
        new_group[1:] = ev_run[1:] != ev_run[:-1]
        first = np.flatnonzero(new_group)
        group_start = ev_run[first]
        dn = np.diff(first, append=ev_run.size).astype(np.float64)

        n0 = int(np.searchsorted(arm, 1))
        n_groups0 = int(np.searchsorted(group_start, n0))
        groups = (slice(0, n_groups0), slice(n_groups0, group_start.size))
        pieces, rows, ends = [], [], []
        offset = 0
        for hi, g in zip((n0, n), groups):
            starts = group_start[g]
            m = hi - starts[0] if starts.size else 0
            pieces.append(order[hi - m : hi][::-1])
            ends.append(offset + hi - 1 - starts)
            rows.append(slice(offset, offset + m))
            offset += m
        return cls(
            sizes=(n0, n - n0),
            subjects=np.concatenate(pieces),
            rows=tuple(rows),
            ends=np.concatenate(ends),
            event_times=xs[group_start],
            dn=dn,
            groups=groups,
        )


@dataclass(frozen=True)
class RiskSets(RiskSetLayout):
    """The layout with the covariate columns the Cox kernel sums over."""

    z: np.ndarray                   # (m, p) covariates of the rows
    products: np.ndarray            # (m, 1 + p + p*p) columns [1, z, z z^T] of the rows
    event_z_total: np.ndarray       # (p,) covariate total over all events

    @classmethod
    def from_snapshot(cls, snap: Snapshot) -> "RiskSets":
        layout = RiskSetLayout.from_snapshot(snap)
        z = snap.covariates[layout.subjects]
        m, p = z.shape
        products = np.empty((m, 1 + p + p * p))
        products[:, 0] = 1.0
        products[:, 1 : 1 + p] = z
        products[:, 1 + p :] = (z[:, :, None] * z[:, None, :]).reshape(m, p * p)
        return cls(
            **vars(layout),
            z=z,
            products=products,
            event_z_total=snap.covariates[snap.event_observed].sum(axis=0),
        )

    @property
    def n_events(self) -> tuple[int, int]:
        return tuple(int(self.dn[g].sum()) for g in self.groups)

    def evaluate(self, beta: np.ndarray) -> RiskSetValues:
        """Log likelihood, score, information and event-group sums at ``beta``.

        Each stratum gets its own cumulative sum, so sums of a low-risk arm
        never come from a difference of a high-risk arm's totals.
        """
        p = beta.size
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            w = np.exp(self.z @ beta)
            cols = w[:, None] * self.products
            for rows in self.rows:
                np.cumsum(cols[rows], axis=0, out=cols[rows])
            sums = cols[self.ends]
            r0 = sums[:, 0]
            r1 = sums[:, 1 : 1 + p]
            e = r1 / r0[:, None]
            ee = (e[:, :, None] * e[:, None, :]).reshape(r0.size, p * p)
            v = sums[:, 1 + p :] / r0[:, None] - ee
            usable = bool(np.all((r0 > 0.0) & (r0 < np.inf)))
            loglik = float(self.event_z_total @ beta - self.dn @ np.log(r0)) if usable else -np.inf
        return RiskSetValues(
            loglik=loglik,
            score=self.event_z_total - self.dn @ e,
            information=(self.dn @ v).reshape(p, p),
            r0=r0,
            r1=r1,
            usable=usable,
        )

    def require_usable(self, values: RiskSetValues) -> None:
        if not values.usable:
            bad = int(np.argmin((values.r0 > 0.0) & (values.r0 < np.inf)))
            stratum = 0 if bad < self.groups[0].stop else 1
            raise DegenerateDataError(
                f"stratum {stratum}: empty or non-finite risk set at an observed event time"
            )

    def breslow(self, values: RiskSetValues) -> tuple[StepFunction, StepFunction]:
        """Per-arm Breslow baseline cumulative hazards from the event-group sums."""
        return tuple(
            StepFunction(times=self.event_times[g], values=np.cumsum(self.dn[g] / values.r0[g]))
            for g in self.groups
        )


def _usable_values(beta: Sequence[float], snap: Snapshot) -> RiskSetValues:
    risk_sets = RiskSets.from_snapshot(snap)
    values = risk_sets.evaluate(np.asarray(beta, dtype=np.float64))
    risk_sets.require_usable(values)
    return values


def partial_score(beta: Sequence[float], snap: Snapshot) -> np.ndarray:
    """Partial-likelihood score: sum over events of the covariate minus the
    risk-set weighted covariate mean."""
    return _usable_values(beta, snap).score


def observed_information(beta: Sequence[float], snap: Snapshot) -> np.ndarray:
    """Negative Hessian of the log partial likelihood (sum of risk-set
    covariate covariances over events)."""
    return _usable_values(beta, snap).information


def log_partial_likelihood(beta: Sequence[float], snap: Snapshot) -> float:
    """Log partial likelihood up to an additive constant (risk sets
    unnormalized); -inf where a risk set is empty or overflows."""
    beta = np.asarray(beta, dtype=np.float64)
    return RiskSets.from_snapshot(snap).evaluate(beta).loglik


@dataclass(frozen=True)
class StratifiedCoxFit:
    """The fit at one snapshot, with the kernel's layout and its values at
    ``beta_hat`` (``event_sums``) for the variance and Breslow estimates."""

    calendar_time: float
    beta_hat: np.ndarray
    observed_information: np.ndarray
    baseline_cum_hazard: tuple[StepFunction, StepFunction]
    converged: bool
    iterations: int
    final_score_norm: float
    risk_sets: RiskSets
    event_sums: RiskSetValues
    singular_information: bool = False
    event_free_strata: tuple[int, ...] = ()
    n_events: tuple[int, int] = (0, 0)
    step_halvings: int = 0


def fit_mple(snap: Snapshot) -> StratifiedCoxFit:
    """Maximize the stratified partial likelihood at the snapshot's calendar time.

    Newton steps with step halving on a log-likelihood decrease larger than
    rounding noise; the Breslow baseline cumulative hazards are evaluated at
    the maximizer.  Each candidate is evaluated once, and an accepted
    candidate's evaluation supplies the next step.  An arm with subjects but
    no observed events is legal (it contributes nothing and gets a flat
    baseline) but is reported with a warning.
    """
    risk_sets = RiskSets.from_snapshot(snap)
    p = snap.n_covariates

    n_events = risk_sets.n_events
    event_free = tuple(i for i in STRATA if risk_sets.sizes[i] > 0 and n_events[i] == 0)
    for i in event_free:
        warnings.warn(
            f"stratum {i} has {risk_sets.sizes[i]} subjects but no observed events by "
            f"calendar time {snap.calendar_time:g}; its baseline hazard estimate is zero",
            RuntimeWarning,
            stacklevel=2,
        )

    if p > 0 and sum(n_events) == 0:
        raise DegenerateDataError(
            f"no observed events in any stratum by calendar time {snap.calendar_time:g}"
        )

    beta = np.zeros(p)
    singular = False
    current = risk_sets.evaluate(beta)
    iterations = 0
    step_halvings = 0
    converged = p == 0 or np.max(np.abs(current.score)) <= SCORE_TOL

    while not converged and iterations < MAX_ITER:
        try:
            np.linalg.cholesky(current.information)  # positive-definiteness test
            step = np.linalg.solve(current.information, current.score)
        except np.linalg.LinAlgError:
            step = np.linalg.pinv(current.information) @ current.score
            singular = True
        scale = 1.0
        candidate = beta + step
        trial = risk_sets.evaluate(candidate)
        ll_floor = current.loglik - _LL_RTOL * abs(current.loglik)
        halvings = 0
        while (not trial.usable or trial.loglik < ll_floor) and halvings < MAX_STEP_HALVINGS:
            scale *= 0.5
            candidate = beta + scale * step
            trial = risk_sets.evaluate(candidate)
            halvings += 1
        beta, current = candidate, trial
        iterations += 1
        step_halvings += halvings
        if np.max(np.abs(beta)) > SEPARATION_NORM:
            raise SeparationError(
                f"coefficient norm exceeded {SEPARATION_NORM:g}; "
                "the partial likelihood appears monotone (data separation)",
                beta=beta,
            )
        risk_sets.require_usable(current)
        converged = np.max(np.abs(current.score)) <= SCORE_TOL

    score_norm = float(np.max(np.abs(current.score))) if p else 0.0
    if not converged:
        raise ConvergenceError(
            f"Newton iteration did not converge in {MAX_ITER} iterations "
            f"(score norm {score_norm:.3e})",
            beta=beta,
            score_norm=score_norm,
        )

    return StratifiedCoxFit(
        calendar_time=snap.calendar_time,
        beta_hat=beta,
        observed_information=current.information,
        baseline_cum_hazard=risk_sets.breslow(current),
        converged=True,
        iterations=iterations,
        final_score_norm=score_norm,
        risk_sets=risk_sets,
        event_sums=current,
        singular_information=singular,
        event_free_strata=event_free,
        n_events=n_events,
        step_halvings=step_halvings,
    )
