"""Treatment-stratified proportional-hazards fits at calendar-time snapshots.

Each treatment arm keeps its own unspecified baseline hazard; the covariate
coefficients are shared.  The partial likelihood (Breslow's handling of tied
events) is maximized by Newton iteration with step halving.  The fit carries
the risk-set sums at its maximizer; ``adjusted`` reads each arm's Breslow
cumulative hazard at t0 from them.

Every quantity comes from risk sets over a batch of snapshots, its rows
(Therneau & Grambsch 2000, ch. 3).  ``RiskSets.from_snapshots`` sorts each
row by (arm, follow-up) bit keys, ties in snapshot order, groups its events
and lays out the covariate products [1, z, z z^T] of each (row, arm) pair;
the ``RiskSets`` keeps the snapshots it was built from.  The functions that
read risk sets (``fit_mple_batch`` and the adjusted, Kaplan-Meier and
Cox-Wald statistics) take their batch as snapshots or as their
``RiskSets``, which they use as it is: the simulation builds a look's
``RiskSets`` once for all three statistics.

Two kernels evaluate a partial likelihood: ``RiskSets`` (treatment-
stratified, x = z) and ``PooledRiskSets`` (one baseline hazard, x =
(arm, z), for the Cox-Wald comparator), which reads the same per-arm
cumulative sums and adds the arms at each event time (Kalbfleisch &
Prentice 2002, ch. 4).  ``evaluate`` returns each row's log likelihood,
score, information and risk-set sums at the event groups for one
coefficient vector per row, with one exp(x.beta) and one cumulative sum for
the whole batch.  ``fit_mple_batch`` runs Newton on all rows of a kernel in
lockstep; ``fit_mple`` is its batch of one.

A row's arithmetic never depends on the other rows of its batch: cumulative
sums run inside one (row, stratum) pair, a row's totals are reductions over
its own contiguous entries, and a row that stops iterating keeps its
coefficients.  A snapshot fitted alone and at any position of a batch gets
the same bits.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .data import Snapshot
from .errors import ConvergenceError, DegenerateDataError, SeparationError, SeqSurvError

STRATA = (0, 1)
# A step is halved only when it lowers the log likelihood by more than this
# fraction of |ll|.  Near the optimum the change is rounding noise (about 1e-15
# of |ll| on 4000 subjects with tied times), and halving on it stalls Newton.
_LL_RTOL = 1e-12
# Newton limits of fit_mple_batch
MAX_ITER = 50
SCORE_TOL = 1e-8          # infinity norm of the partial score
MAX_STEP_HALVINGS = 10
SEPARATION_NORM = 50.0    # |beta|_inf beyond this means monotone likelihood


class RiskSetValues(NamedTuple):
    """The kernel's output at one coefficient vector per row.

    ``r0`` and ``r1`` are the unnormalized risk-set sums of w and w*x
    (w = exp(beta . x)) at every event group of the batch, in the kernel's
    order.  When some risk set of a row is empty or overflows, its ``usable``
    is false and its ``loglik`` is -inf; its other fields are then
    meaningless.  A kernel's ``row_values`` gives one row's values with the
    leading axis dropped and ``r0``, ``r1`` cut to its event groups.
    """

    loglik: np.ndarray       # (B,)
    score: np.ndarray        # (B, p)
    information: np.ndarray  # (B, p, p)
    r0: np.ndarray           # (q,)
    r1: np.ndarray           # (q, p)
    usable: np.ndarray       # (B,) bool


def _segment_sums(values: np.ndarray, bounds: np.ndarray, nonempty: np.ndarray) -> np.ndarray:
    """Sums of ``values`` along its last axis over the segments
    ``bounds[i]:bounds[i + 1]``, 0 for a segment marked empty.  ``values``
    ends with one zero column past ``bounds[-1]``, so that every bound is a
    valid index.  Each sum reduces exactly its own entries, so its bits do
    not depend on the other segments."""
    return np.where(nonempty, np.add.reduceat(values, bounds, axis=-1)[..., :-1], 0.0)


def _cat(arrays: list[np.ndarray]) -> np.ndarray:
    """The arrays joined along the first axis (a batch of one is not copied)."""
    return arrays[0] if len(arrays) == 1 else np.concatenate(arrays)


def _linear(x: np.ndarray, beta: np.ndarray) -> np.ndarray:
    """x . beta over the last axis of x, one coefficient row per leading row,
    summed in covariate order (the same bits at any batch size)."""
    if beta.shape[1] == 0:
        return np.zeros(x.shape[:-1])
    shape = (beta.shape[0],) + (1,) * (x.ndim - 2)
    out = x[..., 0] * beta[:, 0].reshape(shape)
    for k in range(1, beta.shape[1]):
        out += x[..., k] * beta[:, k].reshape(shape)
    return out


class _Kernel:
    """What ``fit_mple_batch``'s Newton loop reads of a risk-set kernel over
    a batch of snapshots (rows): ``evaluate``, ``row_values`` and
    ``unusable_error``, and per row its ``snapshots``, arm ``sizes`` and
    ``n_events`` (B, 2).

    A kernel's event groups run row by row, stratum 0 first: row b, stratum
    i has groups ``offsets[2b + i]:offsets[2b + i + 1]``, each with ``dn``
    events, and ``event_z_total`` (B, p) is the covariate total over each
    row's events.  Its subjects sit in kept pairs laid out as (G, L), each a
    zero slot and then the pair's subjects in descending follow-up order:
    ``covariates`` (G, L, p) holds their x, and ``products`` their
    per-arm [1, z, z z^T].  ``_sums(beta)`` gives the risk-set sums of
    w [1, x, x x^T] (w = exp(beta . x)) at every group, one row of
    1 + p + p*p per column.
    """

    def _cumulative_sums(self, beta: np.ndarray) -> np.ndarray:
        """Each kept pair's cumulative sums of w times its ``products``, in
        the products' shape.  Each pair gets its own cumulative sum, so sums of a
        low-risk arm never come from a difference of a high-risk arm's
        totals, nor of another row's."""
        cols = self.products * np.exp(_linear(self.covariates, beta[self.pair_rows]))
        np.cumsum(cols, axis=2, out=cols)
        return cols

    def evaluate(self, beta: np.ndarray) -> RiskSetValues:
        """Log likelihood, score, information and event-group sums, one
        coefficient row of ``beta`` (B, p) per row.  A batch of one also takes
        a vector and returns ``row_values(..., 0)``."""
        beta = np.asarray(beta, dtype=np.float64)
        if beta.ndim == 1:
            return self.row_values(self.evaluate(beta[None, :]), 0)
        if beta.shape != self.event_z_total.shape:
            raise ValueError(f"beta must have shape {self.event_z_total.shape}, got {beta.shape}")
        n_rows, p = beta.shape
        q = self.dn.size
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            sums = self._sums(beta)
            r0 = sums[0]
            # per event group: dn * [log r0, e, v] with e = r1 / r0 and
            # v = r2 / r0 - e e^T, one row per column, then each row of the
            # batch's totals
            terms = np.zeros((sums.shape[0], q + 1))
            np.divide(sums, r0, out=terms[:, :q])
            e = terms[1 : 1 + p, :q]
            np.log(r0, out=terms[0, :q])
            terms[1 + p :, :q] -= (e[:, None, :] * e[None, :, :]).reshape(p * p, q)
            terms[:, :q] *= self.dn
            totals = _segment_sums(terms, self.offsets[::2], self.row_has_events).T
            # finite exactly when every risk set of the row is nonempty and finite
            usable = np.isfinite(totals[:, 0])
            loglik = np.where(usable, _linear(self.event_z_total, beta) - totals[:, 0], -np.inf)
        return RiskSetValues(
            loglik,
            self.event_z_total - totals[:, 1 : 1 + p],
            totals[:, 1 + p :].reshape(n_rows, p, p),
            r0,
            sums[1 : 1 + p].T,
            usable,
        )

    def row_values(self, values: RiskSetValues, b: int) -> RiskSetValues:
        """Row b of batched values: scalars, (p,) and (p, p) fields, and the
        sums at its event groups, ``offsets[2b]:offsets[2b + 2]``, shifted
        to start at 0."""
        g = slice(self.offsets[2 * b], self.offsets[2 * b + 2])
        return RiskSetValues(
            loglik=float(values.loglik[b]),
            score=values.score[b],
            information=values.information[b],
            r0=values.r0[g],
            r1=values.r1[g],
            usable=bool(values.usable[b]),
        )

    def unusable_error(self, values: RiskSetValues, b: int) -> DegenerateDataError:
        lo, mid, hi = self.offsets[2 * b : 2 * b + 3]
        r0 = values.r0[lo:hi]
        bad = lo + int(np.argmin((r0 > 0.0) & (r0 < np.inf)))
        return DegenerateDataError(
            f"stratum {int(bad >= mid)}: empty or non-finite risk set at an observed event time"
        )


@dataclass(frozen=True)
class RiskSets(_Kernel):
    """The treatment-stratified kernel: the risk sets and event groups of a
    batch of snapshots (rows), each row sorted by (arm, follow-up) with ties
    in snapshot order, and the covariate columns the Cox kernel sums over.

    Event groups (the distinct event times of a (row, stratum) pair, ``q`` in
    all) run row by row, stratum 0 first, ascending in time within a pair.
    The subjects at risk at a group are the last ``at_risk`` of its pair in
    ``order``.

    A pair keeps its subjects followed at least until its row's first event
    time in either arm, and is kept when it has any, so that its risk set at
    any event time of its row is a prefix of its row of (G, L); padding
    follows a pair's subjects and is never read.  ``ends`` is the flat
    position in (G, L) of each event group's last subject at risk.
    """

    snapshots: tuple[Snapshot, ...]  # (B,) the rows, in batch order
    sizes: np.ndarray           # (B, 2) arm sizes, counting zero-follow-up subjects
    n_events: np.ndarray        # (B, 2) observed events
    offsets: np.ndarray         # (2B + 1,) row b, stratum i: groups offsets[2b + i]:offsets[2b + i + 1]
    event_times: np.ndarray     # (q,)
    dn: np.ndarray              # (q,) number of events in each group
    at_risk: np.ndarray         # (q,) number of subjects at risk at each group
    order: np.ndarray           # (N,) the concatenated snapshots' subjects, sorted
    follow_up: np.ndarray       # (N,) follow-up of each subject of ``order``
    pair_ends: np.ndarray       # (2B,) end of each pair in ``order``
    pair_rows: np.ndarray       # (G,) row of each kept pair
    pair_arms: np.ndarray       # (G,) arm of each kept pair
    ends: np.ndarray            # (q,) flat position in (G, L) of each group's last subject at risk
    row_has_events: np.ndarray  # (B,)
    products: np.ndarray        # (1 + p + p*p, G, L) rows [1, z, z z^T], 0 in slot 0
    covariates: np.ndarray      # (G, L, p) z, a view of ``products``
    event_z_total: np.ndarray   # (B, p) covariate total over each row's events

    @classmethod
    def from_snapshots(cls, batch: Sequence[Snapshot] | RiskSets) -> RiskSets:
        """The risk sets of a batch of snapshots; a ``RiskSets`` is used as
        it is."""
        if isinstance(batch, RiskSets):
            return batch
        snaps = tuple(batch)
        if not snaps:
            raise ValueError("a risk-set batch needs at least one snapshot")
        counts = sorted({s.n_covariates for s in snaps})
        if len(counts) > 1:
            raise ValueError(
                f"every snapshot of a batch must have the same number of covariates, got {counts}"
            )
        fu = _cat([s.follow_up for s in snaps])
        if not (fu >= 0).all():
            b = next(b for b, s in enumerate(snaps) if not (s.follow_up >= 0).all())
            raise ValueError(f"snapshot {b} of the batch has a negative or NaN follow-up")
        arms = _cat([s.arm for s in snaps])
        if not ((arms == 0) | (arms == 1)).all():
            b = next(b for b, s in enumerate(snaps) if not ((s.arm == 0) | (s.arm == 1)).all())
            raise ValueError(f"snapshot {b} of the batch has an arm other than 0 or 1")
        # a non-negative double orders as its bits (adding 0.0 makes -0.0 tie
        # with 0.0); the arm is the top bit, so stratum 0 comes first
        keys = np.add(fu, 0.0, dtype=np.float64).view(np.uint64) | arms.astype(np.uint64) << 63
        # bounds[2b + i] is where pair (row b, arm i) starts in the sorted order
        orders, bounds, start = [], [], 0
        for b, s in enumerate(snaps):
            if not s.n:
                raise ValueError(f"snapshot {b} of the batch has no subjects")
            order = np.argsort(keys[start : start + s.n])
            orders.append(order + start if start else order)
            n1 = int(np.count_nonzero(s.arm))
            bounds += [start, start + s.n - n1]
            start += s.n
        bounds.append(start)
        order = _cat(orders)
        xs = fu[order]
        # first sorted position of each run of equal (pair, follow-up): for an
        # event there, it is the first subject of its pair at risk
        new_run = np.empty(start, dtype=bool)
        new_run[1:] = xs[1:] != xs[:-1]
        new_run[[b for b in bounds[:-1] if b < start]] = True
        run_start = np.maximum.accumulate(np.where(new_run, np.arange(start), 0))
        # argsort is not stable: sort each run of ties back into snapshot order
        # by unique (run, subject) keys, and re-read them (-0.0 ties with 0.0)
        tied = np.flatnonzero(~(new_run & np.append(new_run[1:], True)))
        shift = run_start[tied] * start
        order[tied] = np.sort(shift + order[tied]) - shift
        xs[tied] = fu[order[tied]]
        events = _cat([s.event_observed for s in snaps])
        ev_run = run_start[events[order]]
        first = np.flatnonzero(ev_run != np.concatenate(([-1], ev_run[:-1])))
        group_start = ev_run[first]
        # first[g]: index of group g's first event among the sorted events
        first = np.concatenate((first, [ev_run.size]))

        bounds = np.array(bounds)
        offsets = np.searchsorted(group_start, bounds)
        pair_ends = bounds[1:]
        sizes = pair_ends - bounds[:-1]
        per_pair = offsets[1:] - offsets[:-1]
        event_times = xs[group_start]
        at_risk = np.repeat(pair_ends, per_pair) - group_start
        # each row's first event time (inf without events), and each pair's
        # subjects followed at least that long: the last m of the pair
        row_first = np.full(sizes.size, np.inf)
        with_events = np.flatnonzero(per_pair)
        row_first[with_events] = event_times[offsets[with_events]]
        row_first = row_first.reshape(-1, 2).min(axis=1)
        followed = np.zeros(start + 1, dtype=np.intp)  # a trailing 0 for reduceat
        np.greater_equal(xs, np.repeat(row_first, [s.n for s in snaps]), out=followed[:-1])
        m = np.where(sizes > 0, np.add.reduceat(followed, bounds[:-1]), 0)
        kept = np.flatnonzero(m)
        length = int(m.max()) + 1
        # slot j >= 1 of a kept pair holds its j-th longest follow-up
        back = np.arange(-1, length - 1)
        back[0] = 0
        subjects = order[np.maximum(pair_ends[kept, None] - 1 - back, 0)]

        z_all = _cat([s.covariates for s in snaps])
        p = z_all.shape[1]
        z = np.take(z_all, subjects, axis=0).transpose(2, 0, 1)
        z[:, :, 0] = 0.0
        products = np.empty((1 + p + p * p,) + z.shape[1:])
        products[0] = 1.0
        products[0, :, 0] = 0.0
        products[1 : 1 + p] = z
        np.multiply(z[:, None], z[None, :], out=products[1 + p :].reshape((p, p) + z.shape[1:]))
        return cls(
            snapshots=snaps,
            sizes=sizes.reshape(-1, 2),
            n_events=(first[offsets[1:]] - first[offsets[:-1]]).reshape(-1, 2),
            offsets=offsets,
            event_times=event_times,
            dn=np.subtract(first[1:], first[:-1], dtype=np.float64),
            at_risk=at_risk,
            order=order,
            follow_up=xs,
            pair_ends=pair_ends,
            pair_rows=kept // 2,
            pair_arms=kept % 2,
            ends=np.repeat(np.arange(0, kept.size * length, length), per_pair[kept]) + at_risk,
            row_has_events=offsets[2::2] > offsets[:-1:2],
            products=products,
            covariates=products[1 : 1 + p].transpose(1, 2, 0),
            event_z_total=np.add.reduceat(z_all * events[:, None], bounds[:-1:2], axis=0),
        )

    def _sums(self, beta: np.ndarray) -> np.ndarray:
        cols = self._cumulative_sums(beta)
        return np.take(cols.reshape(cols.shape[0], -1), self.ends, axis=1)


def _pooled_rows(p: int) -> np.ndarray:
    """Where each entry of [1, x, x x^T], x = (arm, z), comes from in the
    per-arm sums of [1, z, z z^T]: row 2c of both arms added or row 2c + 1
    of the treated arm alone, for product row c.  Entries with the arm are
    the treated arm's, where x_0 = 1."""

    def row(f, g) -> int:  # factors: None the constant 1, 0 the arm, k >= 1 covariate z_k
        u, v = f or 0, g or 0
        c = u + v if u == 0 or v == 0 else p + (u - 1) * p + v
        return 2 * c + (0 in (f, g))

    x = range(1 + p)
    return np.array([row(None, None)] + [row(None, j) for j in x] + [row(j, k) for j in x for k in x])


@dataclass(frozen=True)
class PooledRiskSets(_Kernel):
    """Cox-Wald's kernel: one baseline hazard per row and x = (arm, z), read
    from the treatment-stratified ``RiskSets`` of the same rows.

    Its event groups are the stratified ones, each now summed over the whole
    row's risk set; Breslow's term of a time at which both arms have events
    is the sum of the two groups' terms.  At a group, the treated arm's
    risk-set sums of w [1, z, z z^T], with w = exp(beta_w + z . beta_z), give
    its entries of [1, x, x x^T] (x_0 = 1 there), and the control arm's, with
    w = exp(z . beta_z), add to those without the arm:

        S0 = R0(control) + R0(treated); the arm entries of S1 and S2 are the
        treated arm's; the z entries add both arms'.

    An arm's sums are its kept pair's cumulative sums: at the group's end for
    the group's own arm, and after the other arm's count at risk at the
    group's time for the other (the zero slot when none is).  All of a row's
    subjects and events count in stratum 0 of ``sizes``, ``n_events`` and
    ``offsets`` (2B + 1); stratum 1 is empty.
    """

    snapshots: tuple[Snapshot, ...]  # (B,)
    sizes: np.ndarray           # (B, 2)
    n_events: np.ndarray        # (B, 2)
    offsets: np.ndarray         # (2B + 1,) row b's groups offsets[2b]:offsets[2b + 1]
    dn: np.ndarray              # (q,)
    row_has_events: np.ndarray  # (B,)
    event_z_total: np.ndarray   # (B, 1 + p) treated events, then the covariate totals
    products: np.ndarray        # (1 + p + p*p, G, L) the stratified kernel's
    pair_rows: np.ndarray       # (G,)
    covariates: np.ndarray      # (G, L, 1 + p) the arm, then z
    positions: np.ndarray       # (2, q) each arm's flat position in (G, L) at each group
    sum_rows: np.ndarray        # (1 + (1+p) + (1+p)**2,) ``_pooled_rows``

    @classmethod
    def from_snapshots(cls, batch: Sequence[Snapshot] | RiskSets) -> PooledRiskSets:
        """The pooled kernel of a batch of snapshots or of their ``RiskSets``."""
        rs = RiskSets.from_snapshots(batch)
        n_rows, p = rs.event_z_total.shape
        kept = 2 * rs.pair_rows + rs.pair_arms
        first_slot = np.zeros(2 * n_rows, dtype=np.intp)
        first_slot[kept] = np.arange(kept.size) * rs.products.shape[2]
        # each group's flat position in each arm's cumulative sums: its own
        # arm's end, and the other arm's zero slot plus its count at risk at
        # the group's time (0, a zero slot, when it has none at risk)
        positions = np.zeros((2, rs.dn.size), dtype=np.intp)
        offsets, sizes, first_slot = rs.offsets.tolist(), rs.sizes.ravel().tolist(), first_slot.tolist()
        pair_ends = rs.pair_ends.tolist()
        for pair in range(2 * n_rows):
            lo, hi = offsets[pair], offsets[pair + 1]
            if lo == hi:
                continue
            arm, other = pair % 2, pair ^ 1
            positions[arm, lo:hi] = rs.ends[lo:hi]
            if sizes[other]:
                follow_up = rs.follow_up[pair_ends[other] - sizes[other] : pair_ends[other]]
                at_risk = sizes[other] - np.searchsorted(follow_up, rs.event_times[lo:hi])
                positions[1 - arm, lo:hi] = first_slot[other] + at_risk
        x = np.empty((1 + p,) + rs.products.shape[1:])
        np.multiply(rs.products[0], rs.pair_arms[:, None], out=x[0])
        x[1:] = rs.products[1 : 1 + p]
        zeros = np.zeros(n_rows, dtype=rs.sizes.dtype)
        return cls(
            snapshots=rs.snapshots,
            sizes=np.column_stack((rs.sizes.sum(axis=1), zeros)),
            n_events=np.column_stack((rs.n_events.sum(axis=1), zeros)),
            offsets=np.repeat(rs.offsets[::2], 2)[1:],
            dn=rs.dn,
            row_has_events=rs.row_has_events,
            event_z_total=np.hstack((rs.n_events[:, 1:], rs.event_z_total)),
            products=rs.products,
            pair_rows=rs.pair_rows,
            covariates=x.transpose(1, 2, 0),
            positions=positions,
            sum_rows=_pooled_rows(p),
        )

    def _sums(self, beta: np.ndarray) -> np.ndarray:
        cols = self._cumulative_sums(beta)
        arms = np.take(cols.reshape(cols.shape[0], -1), self.positions, axis=1)
        arms[:, 0] += arms[:, 1]  # (both arms, treated arm) for each product row
        return np.take(arms.reshape(2 * arms.shape[0], -1), self.sum_rows, axis=0)


def solve_stack(matrices: np.ndarray, vectors: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Solutions of a stack of symmetric systems, and the systems that needed
    the pseudo-inverse.

    A positive-definite matrix is solved by LU; the others get pinv.  Each
    system is solved on its own, so its bits do not depend on the stack.
    """
    try:
        np.linalg.cholesky(matrices)  # positive-definiteness test
        return np.linalg.solve(matrices, vectors[..., None])[..., 0], []
    except np.linalg.LinAlgError:
        pass
    out = np.empty_like(vectors)
    singular = []
    for i, (a, v) in enumerate(zip(matrices, vectors)):
        try:
            np.linalg.cholesky(a)
            out[i] = np.linalg.solve(a[None], v[None, :, None])[0, :, 0]
        except np.linalg.LinAlgError:
            out[i] = np.linalg.pinv(a) @ v
            singular.append(i)
    return out, singular


@dataclass(frozen=True)
class StratifiedCoxFit:
    """The maximizer at one snapshot: row ``row`` of the fitted ``batch``.
    The adjusted-SP variance and the Cox-Wald test read the risk sets and the
    kernel values at ``beta_hat`` from the batch."""

    calendar_time: float
    beta_hat: np.ndarray
    observed_information: np.ndarray
    iterations: int
    final_score_norm: float
    batch: FitBatch
    row: int
    singular_information: bool = False
    event_free_strata: tuple[int, ...] = ()
    n_events: tuple[int, int] = (0, 0)
    step_halvings: int = 0


class FitBatch(NamedTuple):
    """``fit_mple_batch``'s outcome: each row's maximizer, or the
    ``SeqSurvError`` its fit raised.  ``values`` is the kernel ``risk_sets``
    at ``beta_hat`` (a failed row's entries are meaningless)."""

    risk_sets: RiskSets | PooledRiskSets
    values: RiskSetValues
    beta_hat: np.ndarray          # (B, p)
    iterations: np.ndarray        # (B,)
    step_halvings: np.ndarray     # (B,)
    singular_information: np.ndarray  # (B,) bool
    errors: tuple[SeqSurvError | None, ...]

    def fit(self, b: int = 0) -> StratifiedCoxFit:
        """Row b's fit; raises the error of a failed row."""
        if self.errors[b] is not None:
            raise self.errors[b]
        rs = self.risk_sets
        values = rs.row_values(self.values, b)
        sizes, n_events = rs.sizes[b].tolist(), rs.n_events[b].tolist()
        return StratifiedCoxFit(
            calendar_time=rs.snapshots[b].calendar_time,
            beta_hat=self.beta_hat[b],
            observed_information=values.information,
            iterations=int(self.iterations[b]),
            final_score_norm=float(np.abs(values.score).max()) if values.score.size else 0.0,
            batch=self,
            row=b,
            singular_information=bool(self.singular_information[b]),
            event_free_strata=tuple(i for i in STRATA if sizes[i] > 0 and n_events[i] == 0),
            n_events=(n_events[0], n_events[1]),
            step_halvings=int(self.step_halvings[b]),
        )


def fit_mple_batch(batch: Sequence[Snapshot] | RiskSets | PooledRiskSets) -> FitBatch:
    """Maximize each snapshot's partial likelihood at its calendar time (the
    treatment-stratified one, or the kernel's), all rows in lockstep.

    Per row: Newton steps with step halving on a log-likelihood decrease
    larger than rounding noise, then the separation and usable-risk-set
    checks and the convergence test.  Each Newton step and each halving
    round is one kernel evaluation of the batch; a row that has converged,
    failed or needs no halving keeps its coefficients, so its values come out
    unchanged.  A row that fails gets the error ``fit_mple`` raises for it;
    the other rows go on.  An arm with subjects but no observed events is
    legal (it contributes nothing and gets a flat baseline) but is reported
    with a warning.  ``batch`` is a kernel (``RiskSets`` or
    ``PooledRiskSets``), or the snapshots, whose ``RiskSets`` it fits.
    """
    risk_sets = batch if isinstance(batch, PooledRiskSets) else RiskSets.from_snapshots(batch)
    snaps = risk_sets.snapshots
    n_rows, p = risk_sets.event_z_total.shape
    errors: list[SeqSurvError | None] = [None] * n_rows

    sizes = risk_sets.sizes.tolist()
    n_events = risk_sets.n_events.tolist()
    for b, (size, events) in enumerate(zip(sizes, n_events)):
        for i in STRATA:
            if size[i] > 0 and events[i] == 0:
                warnings.warn(
                    f"stratum {i} has {size[i]} subjects but no observed events by calendar "
                    f"time {snaps[b].calendar_time:g}; its baseline hazard estimate is zero",
                    RuntimeWarning,
                    stacklevel=3,
                )
        if p > 0 and sum(events) == 0:
            errors[b] = DegenerateDataError(
                f"no observed events in any stratum by calendar time {snaps[b].calendar_time:g}"
            )

    beta = np.zeros((n_rows, p))
    current = risk_sets.evaluate(beta)
    iterations = [0] * n_rows
    step_halvings = [0] * n_rows
    singular = [False] * n_rows
    # per-row control runs on Python lists: the batches are small
    active = []
    if p > 0:
        score_norm = np.abs(current.score).max(axis=1).tolist()
        active = [b for b in range(n_rows) if errors[b] is None and not score_norm[b] <= SCORE_TOL]

    while active:
        # a view of every row while none has stopped, else a copy of the active ones
        rows = slice(None) if len(active) == n_rows else active
        step = np.zeros((n_rows, p))
        step[rows], pinv_used = solve_stack(current.information[rows], current.score[rows])
        for i in pinv_used:
            singular[active[i]] = True
        ll_floor = [ll - _LL_RTOL * abs(ll) for ll in current.loglik.tolist()]
        candidate = beta + step
        trial = risk_sets.evaluate(candidate)
        # an unusable trial has loglik -inf
        loglik = trial.loglik.tolist()
        retry = [b for b in active if not loglik[b] >= ll_floor[b]] if MAX_STEP_HALVINGS else []
        if retry:
            scale = np.ones((n_rows, 1))
            halvings = dict.fromkeys(retry, 0)
            while retry:
                scale[retry] *= 0.5
                candidate = beta + scale * step
                trial = risk_sets.evaluate(candidate)
                loglik = trial.loglik.tolist()
                for b in retry:
                    halvings[b] += 1
                retry = [
                    b for b in retry
                    if not loglik[b] >= ll_floor[b] and halvings[b] < MAX_STEP_HALVINGS
                ]
            for b, h in halvings.items():
                step_halvings[b] += h
        beta, current = candidate, trial

        beta_norm = np.abs(beta).max(axis=1).tolist()
        score_norm = np.abs(current.score).max(axis=1).tolist()
        usable = current.usable.tolist()
        still = []
        for b in active:
            iterations[b] += 1
            if beta_norm[b] > SEPARATION_NORM:
                errors[b] = SeparationError(
                    f"coefficient norm exceeded {SEPARATION_NORM:g}; "
                    "the partial likelihood appears monotone (data separation)",
                    beta=beta[b].copy(),
                )
            elif not usable[b]:
                errors[b] = risk_sets.unusable_error(current, b)
            elif score_norm[b] <= SCORE_TOL:
                pass
            elif iterations[b] >= MAX_ITER:
                errors[b] = ConvergenceError(
                    f"Newton iteration did not converge in {MAX_ITER} iterations "
                    f"(score norm {score_norm[b]:.3e})",
                    beta=beta[b].copy(),
                    score_norm=score_norm[b],
                )
            else:
                still.append(b)
        active = still

    return FitBatch(
        risk_sets=risk_sets,
        values=current,
        beta_hat=beta,
        iterations=np.array(iterations),
        step_halvings=np.array(step_halvings),
        singular_information=np.array(singular),
        errors=tuple(errors),
    )


def fit_mple(snap: Snapshot) -> StratifiedCoxFit:
    """Maximize the stratified partial likelihood at the snapshot's calendar
    time: ``fit_mple_batch`` on a batch of one.  Raises the row's error."""
    return fit_mple_batch((snap,)).fit(0)
