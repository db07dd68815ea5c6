"""Treatment-stratified proportional-hazards fit at a calendar-time snapshot.

Each treatment arm keeps its own unspecified baseline hazard; the covariate
coefficients are shared.  The partial likelihood is maximized by Newton
iteration with step halving, and the per-arm baseline cumulative hazards come
out as step functions over the observed event times (tied events share the
risk-set denominator).
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np
from scipy.linalg import LinAlgError, cho_factor, cho_solve

from .data import Snapshot
from .errors import ConvergenceError, DegenerateDataError, SeparationError

STRATA = (0, 1)
# A step is halved only when it lowers the log likelihood by more than this
# fraction of |ll|.  Near the optimum the change is rounding noise (about 1e-15
# of |ll| on 4000 subjects with tied times), and halving on it stalls Newton.
_LL_RTOL = 1e-12


@dataclass(frozen=True)
class FitOptions:
    max_iter: int = 50
    score_tol: float = 1e-8          # infinity norm of the partial score
    max_step_halvings: int = 10
    separation_norm: float = 50.0    # |beta|_inf beyond this means monotone likelihood


@dataclass(frozen=True)
class StepFunction:
    """Right-continuous nondecreasing step function, zero before the first jump."""

    times: np.ndarray   # jump locations, strictly increasing
    values: np.ndarray  # cumulative value at and after each jump

    def __call__(self, t):
        idx = np.searchsorted(self.times, t, side="right")
        padded = np.concatenate(([0.0], self.values))
        return padded[idx]

    @property
    def jump_sizes(self) -> np.ndarray:
        return np.diff(self.values, prepend=0.0)


class _Stratum(NamedTuple):
    """Pre-sorted per-arm arrays plus the event-time grouping."""

    size: int                 # arm size, counting zero-follow-up subjects
    x: np.ndarray             # follow-up, ascending
    z: np.ndarray             # covariates in the same order, (m, p)
    event_times: np.ndarray   # distinct event times, ascending
    dn: np.ndarray            # number of events at each event time
    risk_start: np.ndarray    # first sorted index at risk at each event time
    z_event_sum: np.ndarray   # covariate totals of the events at each time, (q, p)


def _prepare_strata(snap: Snapshot) -> tuple[_Stratum, ...]:
    out = []
    for i in STRATA:
        mask = snap.arm == i
        x = snap.follow_up[mask]
        d = snap.event_observed[mask]
        z = snap.covariates[mask]
        order = np.argsort(x, kind="stable")
        x = x[order]
        d = d[order]
        z = z[order]
        ev_x = x[d]
        event_times, first_pos = np.unique(ev_x, return_index=True)
        dn = np.diff(np.append(first_pos, ev_x.size))
        risk_start = np.searchsorted(x, event_times, side="left")
        zsum = np.add.reduceat(z[d], first_pos, axis=0) if ev_x.size else np.zeros((0, z.shape[1]))
        out.append(
            _Stratum(
                size=int(mask.sum()),
                x=x,
                z=z,
                event_times=event_times,
                dn=dn.astype(np.float64),
                risk_start=risk_start,
                z_event_sum=zsum,
            )
        )
    return tuple(out)


def _risk_sums_raw(st: _Stratum, beta: np.ndarray):
    """Unnormalized risk-set sums at each of the stratum's event times.

    Returns (r0, r1, r2): sums over subjects still at risk of w, w*z and
    w*z*z^T with w = exp(beta . z).  r2 is skipped (None) when not needed.
    """
    with np.errstate(over="ignore"):
        w = np.exp(st.z @ beta)
    r0_all = np.cumsum(w[::-1])[::-1]
    r1_all = np.cumsum((w[:, None] * st.z)[::-1], axis=0)[::-1]
    r0 = r0_all[st.risk_start]
    r1 = r1_all[st.risk_start]
    return w, r0, r1


def _risk_sums_raw2(st: _Stratum, w: np.ndarray) -> np.ndarray:
    outer = w[:, None, None] * st.z[:, :, None] * st.z[:, None, :]
    r2_all = np.cumsum(outer[::-1], axis=0)[::-1]
    return r2_all[st.risk_start]


def _check_risk_sets(st: _Stratum, r0: np.ndarray, stratum: int) -> None:
    if r0.size and (not np.all(np.isfinite(r0)) or np.any(r0 <= 0.0)):
        raise DegenerateDataError(
            f"stratum {stratum}: empty or non-finite risk set at an observed event time"
        )


def partial_score(beta: Sequence[float], snap: Snapshot) -> np.ndarray:
    """Partial-likelihood score: sum over events of the covariate minus the
    risk-set weighted covariate mean."""
    beta = np.asarray(beta, dtype=np.float64)
    p = snap.n_covariates
    if p == 0:
        return np.zeros(0)
    total = np.zeros(p)
    for i, st in enumerate(_prepare_strata(snap)):
        if st.event_times.size == 0:
            continue
        _, r0, r1 = _risk_sums_raw(st, beta)
        _check_risk_sets(st, r0, i)
        total += st.z_event_sum.sum(axis=0) - (st.dn[:, None] * r1 / r0[:, None]).sum(axis=0)
    return total


def observed_information(beta: Sequence[float], snap: Snapshot) -> np.ndarray:
    """Negative Hessian of the log partial likelihood (sum of risk-set
    covariate covariances over events)."""
    beta = np.asarray(beta, dtype=np.float64)
    p = snap.n_covariates
    if p == 0:
        return np.zeros((0, 0))
    total = np.zeros((p, p))
    for i, st in enumerate(_prepare_strata(snap)):
        if st.event_times.size == 0:
            continue
        w, r0, r1 = _risk_sums_raw(st, beta)
        _check_risk_sets(st, r0, i)
        r2 = _risk_sums_raw2(st, w)
        e = r1 / r0[:, None]
        v = r2 / r0[:, None, None] - e[:, :, None] * e[:, None, :]
        total += (st.dn[:, None, None] * v).sum(axis=0)
    return total


def log_partial_likelihood(beta: Sequence[float], snap: Snapshot) -> float:
    """Log partial likelihood up to an additive constant (risk sets unnormalized)."""
    beta = np.asarray(beta, dtype=np.float64)
    total = 0.0
    for i, st in enumerate(_prepare_strata(snap)):
        if st.event_times.size == 0:
            continue
        _, r0, _ = _risk_sums_raw(st, beta)
        if not np.all(np.isfinite(r0)):
            return -np.inf
        _check_risk_sets(st, r0, i)
        total += float(st.z_event_sum.sum(axis=0) @ beta - st.dn @ np.log(r0))
    return total


@dataclass(frozen=True)
class StratumRiskSums:
    """Normalized risk-set sums for one stratum at its event times."""

    stratum: int
    event_times: np.ndarray
    dn: np.ndarray
    s0: np.ndarray  # (q,)
    s1: np.ndarray  # (q, p)
    s2: np.ndarray  # (q, p, p)

    @property
    def e(self) -> np.ndarray:
        return self.s1 / self.s0[:, None]

    @property
    def v(self) -> np.ndarray:
        e = self.e
        return self.s2 / self.s0[:, None, None] - e[:, :, None] * e[:, None, :]


def risk_set_sums(beta: Sequence[float], snap: Snapshot) -> tuple[StratumRiskSums, ...]:
    """Per-stratum normalized sums (divided by the arm size) at event times."""
    beta = np.asarray(beta, dtype=np.float64)
    out = []
    for i, st in enumerate(_prepare_strata(snap)):
        w, r0, r1 = _risk_sums_raw(st, beta)
        _check_risk_sets(st, r0, i)
        r2 = _risk_sums_raw2(st, w)
        ni = max(st.size, 1)
        out.append(
            StratumRiskSums(
                stratum=i,
                event_times=st.event_times,
                dn=st.dn,
                s0=r0 / ni,
                s1=r1 / ni,
                s2=r2 / ni,
            )
        )
    return tuple(out)


@dataclass(frozen=True)
class StratifiedCoxFit:
    calendar_time: float
    beta_hat: np.ndarray
    observed_information: np.ndarray
    baseline_cum_hazard: tuple[StepFunction, StepFunction]
    converged: bool
    iterations: int
    final_score_norm: float
    singular_information: bool = False
    event_free_strata: tuple[int, ...] = ()
    n_events: tuple[int, int] = (0, 0)


def _score_info_loglik(strata, beta):
    p = beta.size
    u = np.zeros(p)
    info = np.zeros((p, p))
    ll = 0.0
    for i, st in enumerate(strata):
        if st.event_times.size == 0:
            continue
        w, r0, r1 = _risk_sums_raw(st, beta)
        _check_risk_sets(st, r0, i)
        r2 = _risk_sums_raw2(st, w)
        e = r1 / r0[:, None]
        v = r2 / r0[:, None, None] - e[:, :, None] * e[:, None, :]
        u += st.z_event_sum.sum(axis=0) - (st.dn[:, None] * e).sum(axis=0)
        info += (st.dn[:, None, None] * v).sum(axis=0)
        ll += float(st.z_event_sum.sum(axis=0) @ beta - st.dn @ np.log(r0))
    return u, info, ll


def _loglik_only(strata, beta):
    ll = 0.0
    for st in strata:
        if st.event_times.size == 0:
            continue
        with np.errstate(over="ignore"):
            w = np.exp(st.z @ beta)
        r0 = np.cumsum(w[::-1])[::-1][st.risk_start]
        if not np.all(np.isfinite(r0)) or np.any(r0 <= 0.0):
            return -np.inf
        ll += float(st.z_event_sum.sum(axis=0) @ beta - st.dn @ np.log(r0))
    return ll


def _breslow(strata, beta) -> tuple[StepFunction, StepFunction]:
    out = []
    for i, st in enumerate(strata):
        if st.event_times.size == 0:
            out.append(StepFunction(times=np.zeros(0), values=np.zeros(0)))
            continue
        _, r0, _ = _risk_sums_raw(st, beta)
        _check_risk_sets(st, r0, i)
        out.append(StepFunction(times=st.event_times.copy(), values=np.cumsum(st.dn / r0)))
    return tuple(out)


def fit_mple(snap: Snapshot, options: FitOptions | None = None) -> StratifiedCoxFit:
    """Maximize the stratified partial likelihood at the snapshot's calendar time.

    Newton steps with step halving on a log-likelihood decrease larger than
    rounding noise; the Breslow baseline cumulative hazards are evaluated at
    the maximizer.  An arm with subjects but no observed events is legal (it
    contributes nothing and gets a flat baseline) but is reported with a
    warning.
    """
    opts = options or FitOptions()
    strata = _prepare_strata(snap)
    p = snap.n_covariates

    n_events = tuple(int(st.dn.sum()) for st in strata)
    event_free = tuple(i for i, st in enumerate(strata) if st.size > 0 and st.event_times.size == 0)
    for i in event_free:
        warnings.warn(
            f"stratum {i} has {strata[i].size} subjects but no observed events by "
            f"calendar time {snap.calendar_time:g}; its baseline hazard estimate is zero",
            RuntimeWarning,
            stacklevel=2,
        )

    if p == 0:
        return StratifiedCoxFit(
            calendar_time=snap.calendar_time,
            beta_hat=np.zeros(0),
            observed_information=np.zeros((0, 0)),
            baseline_cum_hazard=_breslow(strata, np.zeros(0)),
            converged=True,
            iterations=0,
            final_score_norm=0.0,
            n_events=n_events,
        )

    if sum(n_events) == 0:
        raise DegenerateDataError(
            f"no observed events in any stratum by calendar time {snap.calendar_time:g}"
        )

    beta = np.zeros(p)
    singular = False
    u, info, ll = _score_info_loglik(strata, beta)
    iterations = 0
    converged = np.max(np.abs(u)) <= opts.score_tol

    while not converged and iterations < opts.max_iter:
        try:
            step = cho_solve(cho_factor(info), u)
        except (LinAlgError, ValueError):
            step = np.linalg.pinv(info) @ u
            singular = True
        scale = 1.0
        candidate = beta + step
        ll_new = _loglik_only(strata, candidate)
        ll_floor = ll - _LL_RTOL * abs(ll)
        halvings = 0
        while (not np.isfinite(ll_new) or ll_new < ll_floor) and halvings < opts.max_step_halvings:
            scale *= 0.5
            candidate = beta + scale * step
            ll_new = _loglik_only(strata, candidate)
            halvings += 1
        beta = candidate
        iterations += 1
        if np.max(np.abs(beta)) > opts.separation_norm:
            raise SeparationError(
                f"coefficient norm exceeded {opts.separation_norm:g}; "
                "the partial likelihood appears monotone (data separation)",
                beta=beta,
            )
        u, info, ll = _score_info_loglik(strata, beta)
        converged = np.max(np.abs(u)) <= opts.score_tol

    score_norm = float(np.max(np.abs(u)))
    if not converged:
        raise ConvergenceError(
            f"Newton iteration did not converge in {opts.max_iter} iterations "
            f"(score norm {score_norm:.3e})",
            beta=beta,
            score_norm=score_norm,
        )

    return StratifiedCoxFit(
        calendar_time=snap.calendar_time,
        beta_hat=beta,
        observed_information=info,
        baseline_cum_hazard=_breslow(strata, beta),
        converged=True,
        iterations=iterations,
        final_score_norm=score_norm,
        singular_information=singular,
        event_free_strata=event_free,
        n_events=n_events,
    )
