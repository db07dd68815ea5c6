"""The batch-row invariant, as hypothesis properties: each snapshot's row of a
batched statistic is its batch of one bit for bit, with the same error class
and message, whatever the other rows are and in whatever order they come."""

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
from seqsurv.sim import COVARIATE_SCHEMES

DAYS = 365.25


@st.composite
def batches(draw):
    """1-6 snapshots of small trials that share one covariate scheme, and a
    t0 no later than the earliest look.  Some trials keep one arm only;
    early looks leave an arm without events; day-rounded times tie."""
    scheme = draw(st.sampled_from(COVARIATE_SCHEMES))
    days = draw(st.booleans())
    snaps = []
    for _ in range(draw(st.integers(1, 6))):
        scenario = Scenario(
            n0=draw(st.integers(2, 40)), n1=draw(st.integers(2, 40)), tau=1.0,
            beta_w=draw(st.sampled_from((0.0, -1.0, 1.0))), covariate_scheme=scheme,
            phi=0.5, accrual=2.0,
        )
        cols = generate_columns(scenario, draw(st.integers(0, 2**32 - 1)))
        one_arm = draw(st.sampled_from((None, None, None, 0, 1)))
        if one_arm is not None:
            keep = cols.arm == one_arm
            cols = Columns(tuple(np.array(cols.ids)[keep]), *(c[keep] for c in cols[1:]))
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
