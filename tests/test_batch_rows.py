"""The batch-row invariant, as hypothesis properties: each snapshot's row of a
batched statistic is its batch of one bit for bit, with the same error class
and message, whatever the other rows are and in whatever order they come,
also when the batch is given as its risk-set layout or its ``RiskSets``."""

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
from seqsurv.cox import RiskSetLayout, RiskSets
from seqsurv.sim import COVARIATE_SCHEMES

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
# the batch functions that also take the snapshots' risk-set layout as the batch
LAYOUT_READERS = ("fit_mple_batch", "compare_sp_batch", "km_compare_batch", "cox_wald_batch")


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
    if name in LAYOUT_READERS:
        assert rows(RiskSetLayout.from_snapshots(snaps), t0) == batch


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@given(drawn=batches())
@settings(max_examples=40, deadline=None, suppress_health_check=[HealthCheck.too_slow])
def test_one_risk_sets_serves_every_batch_function(drawn):
    # as at simulated looks: one RiskSets, handed to each statistic in turn;
    # the second round sees whatever the first left in it
    snaps, t0 = drawn
    shared = RiskSets.from_snapshots(snaps)
    alone = {name: ROWS[name](snaps, t0) for name in LAYOUT_READERS}
    for _ in range(2):
        for name in LAYOUT_READERS:
            assert ROWS[name](shared, t0) == alone[name], name
