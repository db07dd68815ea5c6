"""The batch-row invariant, as hypothesis properties: each snapshot's row of a
batched statistic is its batch of one bit for bit, with the same error class
and message, whatever the other rows are and in whatever order they come,
also when the batch is given as its ``RiskSets``.  The sort and event
groups of a ``RiskSets`` equal the ones a stable ``lexsort`` per row
builds."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqsurv import (
    Columns,
    Scenario,
    compare_sp_batch,
    cox_wald_batch,
    fit_mple_batch,
    generate_columns,
    km_compare_batch,
    snapshot,
)
from seqsurv.cox import RiskSets
from seqsurv.data import Snapshot
from seqsurv.sim import COVARIATE_SCHEMES
from oracles import lexsort_layout

DAYS = 365.25


@st.composite
def batches(draw):
    """1-12 snapshots of small trials that share one covariate scheme, and a
    t0 no later than the earliest look.  Some trials keep one arm only;
    in some every treated subject outlives every control, or a covariate
    orders the event times (separation); early looks leave an arm without
    events; day-rounded times tie."""
    scheme = draw(st.sampled_from(COVARIATE_SCHEMES))
    days = draw(st.booleans())
    snaps = []
    for _ in range(draw(st.integers(1, 12))):
        scenario = Scenario(
            n0=draw(st.integers(2, 40)), n1=draw(st.integers(2, 40)), tau=1.0,
            beta_w=draw(st.sampled_from((0.0, -1.0, 1.0))), covariate_scheme=scheme,
            phi=0.5, accrual=2.0,
        )
        cols = generate_columns(scenario, draw(st.integers(0, 2**32 - 1)))
        kind = draw(st.sampled_from(("both", "both", "both", "separated", "ordered", 0, 1)))
        if kind in (0, 1):
            keep = cols.arm == kind
            cols = Columns(tuple(np.array(cols.ids)[keep]), *(c[keep] for c in cols[1:]))
        elif kind == "separated":
            # treated subjects enter at 0 and have no event before any look,
            # so each is followed longer than any control: the Cox-Wald
            # treatment coefficient runs off towards -inf
            treated = cols.arm == 1
            cols = cols._replace(entry=np.where(treated, 0.0, cols.entry),
                                 time_on_study=np.where(treated, 10.0, cols.time_on_study))
        elif kind == "ordered" and cols.covariates.shape[1]:
            # the first covariate falls with the event time: both Cox fits separate
            z = cols.covariates.copy()
            z[:, 0] = -3.0 * cols.time_on_study
            cols = cols._replace(covariates=z)
        if days:
            cols = cols._replace(
                entry=np.round(cols.entry * DAYS) / DAYS,
                time_on_study=np.maximum(1.0, np.ceil(cols.time_on_study * DAYS)) / DAYS,
            )
        u = draw(st.sampled_from((0.05, 0.2, 0.6, 1.5, 3.0)))
        snaps.append(snapshot(cols, u))
    t0 = min(s.calendar_time for s in snaps) * draw(st.sampled_from((0.5, 1.0)))
    return snaps, t0


def _bits(values) -> tuple:
    return tuple(np.asarray(v, dtype=np.float64).tobytes() for v in values)


def _error(error) -> tuple | None:
    return None if error is None else (type(error), str(error))


def _fit_rows(snaps, t0):
    batch = fit_mple_batch(snaps)
    rows = []
    for b, error in enumerate(batch.errors):
        row = [_bits((batch.beta_hat[b], batch.iterations[b], batch.step_halvings[b])),
               bool(batch.singular_information[b]), _error(error)]
        if error is None:
            values = batch.risk_sets.row_values(batch.values, b)
            row.append(_bits((values.loglik, values.score, values.information, values.r0, values.r1)))
        rows.append(row)
    return rows


def _sp_rows(snaps, t0):
    batch = compare_sp_batch(snaps, t0)
    return [
        [_bits((batch.z[b], batch.info_level[b], batch.sigma2_hat[b])), _error(error),
         None if error is not None else _bits(batch.result(b).s_hat)]
        for b, error in enumerate(batch.errors)
    ]


def _km_rows(snaps, t0):
    batch = km_compare_batch(snaps, t0)
    return [
        [_bits((batch.s_hat[b], batch.variance[b], batch.z[b], batch.info_level[b])), _error(error)]
        for b, error in enumerate(batch.errors)
    ]


def _cox_wald_rows(snaps, t0):
    batch = cox_wald_batch(snaps)
    return [
        [_bits((batch.beta_w_hat[b], batch.se[b], batch.z[b], batch.info_level[b])), _error(error)]
        for b, error in enumerate(batch.errors)
    ]


ROWS = {
    "fit_mple_batch": _fit_rows,
    "compare_sp_batch": _sp_rows,
    "km_compare_batch": _km_rows,
    "cox_wald_batch": _cox_wald_rows,
}


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("name", ROWS)
@given(drawn=batches())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_each_row_is_its_batch_of_one_in_either_order(name, drawn):
    snaps, t0 = drawn
    rows = ROWS[name]
    batch = rows(snaps, t0)
    assert batch == [rows([snap], t0)[0] for snap in snaps]
    assert rows(snaps[::-1], t0) == batch[::-1]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(drawn=batches())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_risk_sets_serves_every_batch_function(drawn):
    # as at simulated looks: one RiskSets, handed to each statistic in turn;
    # the second round sees whatever the first left in it
    snaps, t0 = drawn
    shared = RiskSets.from_snapshots(snaps)
    alone = {name: rows(snaps, t0) for name, rows in ROWS.items()}
    for _ in range(2):
        for name in ROWS:
            assert ROWS[name](shared, t0) == alone[name], name


@st.composite
def tied_rows(draw):
    """1-6 rows of 1-12 subjects whose follow-ups tie: whole numbers 0-3,
    some of them -0.0, and in some rows only 0.0 and -0.0, in float64 or
    float32.  Some rows keep one arm, and a row may come twice in a row, so
    that equal follow-ups meet across a row boundary."""
    rows = []
    for _ in range(draw(st.integers(1, 6))):
        n = draw(st.integers(1, 12))

        def each(elements):
            return np.array(draw(st.lists(elements, min_size=n, max_size=n)))

        arm_of = draw(st.sampled_from((st.integers(0, 1), st.just(0), st.just(1))))
        values = (0.0, -0.0, 1.0, 2.0, 3.0)[: draw(st.integers(2, 5))]
        dtype = draw(st.sampled_from((np.float64, np.float32)))
        snap = Snapshot(
            calendar_time=3.0, ids=tuple(map(str, range(n))), arm=each(arm_of).astype(np.int8),
            follow_up=each(st.sampled_from(values)).astype(dtype),
            event_observed=each(st.booleans()), covariates=np.zeros((n, 0)),
        )
        rows += [snap] * draw(st.integers(1, 2))
    return rows


@given(snaps=tied_rows())
@settings(max_examples=100, deadline=None)
def test_layout_equals_the_lexsort_layout(snaps):
    risk_sets, oracle = RiskSets.from_snapshots(snaps), vars(lexsort_layout(snaps))
    assert all(a is b for a, b in zip(risk_sets.snapshots, oracle.pop("snapshots")))
    for name, want in oracle.items():
        got = getattr(risk_sets, name)
        assert got.dtype == want.dtype and got.shape == want.shape, name
        assert got.tobytes() == want.tobytes(), name


def _no_subjects(snap):
    return replace(snap, ids=(), arm=snap.arm[:0], follow_up=snap.follow_up[:0],
                   event_observed=snap.event_observed[:0], covariates=snap.covariates[:0])


def _follow_up_at_0(snap, value):
    return replace(snap, follow_up=np.concatenate(([value], snap.follow_up[1:])))


def _arm_at_0(snap, value):
    return replace(snap, arm=np.concatenate(([value], snap.arm[1:])).astype(snap.arm.dtype))


@pytest.mark.parametrize("name", ROWS)
@pytest.mark.parametrize("bad, message", [
    (_no_subjects, "snapshot 1 of the batch has no subjects"),
    (lambda s: _follow_up_at_0(s, -1.0), "snapshot 1 of the batch has a negative or NaN follow-up"),
    (lambda s: _follow_up_at_0(s, np.nan), "snapshot 1 of the batch has a negative or NaN follow-up"),
    # arm 2 would sort into stratum 0 (its key bit is 0) yet count in stratum 1
    (lambda s: _arm_at_0(s, 2), "snapshot 1 of the batch has an arm other than 0 or 1"),
    (lambda s: _arm_at_0(s, -1), "snapshot 1 of the batch has an arm other than 0 or 1"),
])
def test_batch_rejects_a_row_it_cannot_sort(name, bad, message, hand_snapshot):
    with pytest.raises(ValueError, match=message):
        ROWS[name]([hand_snapshot, bad(hand_snapshot), hand_snapshot], 1.0)
