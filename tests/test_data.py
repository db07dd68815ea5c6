import csv

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from seqsurv import SubjectRecord, ValidationError, ingest_csv, snapshot, to_columns


def test_event_not_yet_reached_at_snapshot():
    rec = SubjectRecord("a", 0, 1.0, 2.0, True, ())
    snap = snapshot([rec], 2.0)
    assert snap.follow_up[0] == pytest.approx(1.0)
    assert not snap.event_observed[0]


def test_event_observed_once_horizon_passes():
    rec = SubjectRecord("a", 0, 1.0, 2.0, True, ())
    snap = snapshot([rec], 4.0)
    assert snap.follow_up[0] == pytest.approx(2.0)
    assert snap.event_observed[0]


def test_administrative_censoring_truncates_follow_up():
    rec = SubjectRecord("a", 0, 0.0, 5.0, False, ())
    snap = snapshot([rec], 3.0)
    assert snap.follow_up[0] == pytest.approx(3.0)
    assert not snap.event_observed[0]


def test_not_yet_enrolled_subject_contributes_zero_risk():
    rec = SubjectRecord("a", 1, 4.0, 2.0, True, ())
    snap = snapshot([rec], 4.0)  # entry exactly at the analysis time
    assert snap.follow_up[0] == 0.0
    assert not snap.event_observed[0]


def test_negative_time_names_subject():
    recs = [
        SubjectRecord("ok", 0, 0.0, 1.0, True, ()),
        SubjectRecord("bad", 1, 0.0, -2.0, True, ()),
    ]
    with pytest.raises(ValidationError, match="bad"):
        snapshot(recs, 1.0)


def test_ragged_covariates_rejected():
    recs = [
        SubjectRecord("x", 0, 0.0, 1.0, True, (1.0,)),
        SubjectRecord("y", 1, 0.0, 1.0, True, (1.0, 2.0)),
    ]
    with pytest.raises(ValidationError, match="y"):
        to_columns(recs)


@pytest.mark.parametrize("arm", [0.5, "1", 300])
def test_record_arm_checked_before_the_int8_cast(arm):
    recs = [SubjectRecord("ok", 0, 0.0, 1.0, True, ()), SubjectRecord("bad", arm, 0.0, 1.0, True, ())]
    with pytest.raises(ValidationError, match="subject 'bad': arm must be 0 or 1"):
        to_columns(recs)


def test_columns_are_validated_and_passed_through():
    cols = to_columns([SubjectRecord("a", 0, 0.0, 1.0, True, ()), SubjectRecord("b", 1, 0.0, 1.0, True, ())])
    assert to_columns(cols) is cols
    bad = cols._replace(time_on_study=np.array([1.0, np.inf]))
    with pytest.raises(ValidationError, match="subject 'b': time_on_study"):
        to_columns(bad)
    with pytest.raises(ValidationError, match="one entry per subject"):
        to_columns(cols._replace(entry=np.zeros(1)))


def test_duplicate_ids_rejected():
    recs = [
        SubjectRecord("x", 0, 0.0, 1.0, True, ()),
        SubjectRecord("x", 1, 0.0, 1.0, True, ()),
    ]
    with pytest.raises(ValidationError, match="duplicate"):
        to_columns(recs)


@given(
    entry=st.floats(0, 5),
    time_on_study=st.floats(0, 5),
    event=st.booleans(),
    u=st.floats(0, 10),
    v=st.floats(0, 10),
)
@settings(max_examples=200)
def test_follow_up_and_events_monotone_in_calendar_time(entry, time_on_study, event, u, v):
    u, v = min(u, v), max(u, v)
    rec = SubjectRecord("a", 0, entry, time_on_study, event, ())
    su = snapshot([rec], u)
    sv = snapshot([rec], v)
    assert su.follow_up[0] <= sv.follow_up[0] + 1e-12
    if su.event_observed[0]:
        assert sv.event_observed[0]


def test_snapshot_saturates_once_everything_is_observed():
    recs = [
        SubjectRecord("a", 0, 0.5, 2.0, True, (1.0,)),
        SubjectRecord("b", 1, 1.5, 3.0, False, (0.0,)),
    ]
    horizon = max(r.entry + r.time_on_study for r in recs)
    s1 = snapshot(recs, horizon)
    s2 = snapshot(recs, horizon + 7.0)
    assert np.array_equal(s1.follow_up, s2.follow_up)
    assert np.array_equal(s1.event_observed, s2.event_observed)


def test_snapshot_arrays_are_write_protected():
    snap = snapshot([SubjectRecord("a", 0, 0.0, 1.0, True, ())], 2.0)
    with pytest.raises(ValueError):
        snap.follow_up[0] = 99.0


def test_ingest_two_row_file(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,time,event,z1\np1,0,0.0,1.5,1,0.3\np2,1,0.5,2.0,0,-0.7\n")
    cols = ingest_csv(path)
    assert len(cols.ids) == 2
    assert tuple(cols.covariates[0]) == (0.3,)
    assert cols.arm[1] == 1 and not cols.event[1]


def test_ingest_rejects_bad_arm(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,time,event\np1,2,0.0,1.5,1\n")
    with pytest.raises(ValidationError, match="arm must be 0 or 1"):
        ingest_csv(path)


def test_ingest_no_covariate_columns_is_legal(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,time,event\np1,0,0.0,1.5,1\np2,1,0.2,0.8,0\n")
    cols = ingest_csv(path)
    assert cols.covariates.shape == (2, 0)


def test_ingest_reports_line_numbers(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,time,event\np1,0,0.0,oops,1\n")
    with pytest.raises(ValidationError, match=":2:"):
        ingest_csv(path)


def test_ingest_missing_column(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,event\np1,0,0.0,1\n")
    with pytest.raises(ValidationError, match="time"):
        ingest_csv(path)


def test_ingest_orders_covariates_by_index(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,time,event,z2,z1\np1,0,0.0,1.0,1,22.0,11.0\n")
    cols = ingest_csv(path)
    assert tuple(cols.covariates[0]) == (11.0, 22.0)


def _write_records(path, records, p):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "arm", "entry", "time", "event"] + [f"z{k + 1}" for k in range(p)])
        for r in records:
            writer.writerow([r.id, r.arm, repr(r.entry), repr(r.time_on_study), int(r.event)]
                            + [repr(z) for z in r.covariates])


@st.composite
def record_lists(draw):
    p = draw(st.integers(0, 3))
    ids = draw(st.lists(
        st.text(alphabet='ab1 ,"', min_size=1, max_size=6).map(str.strip).filter(bool),
        min_size=1, max_size=12, unique=True,
    ))
    times = st.floats(0, 1e6, allow_nan=False)
    return p, [
        SubjectRecord(
            sid, draw(st.sampled_from([0, 1])), draw(times), draw(times), draw(st.booleans()),
            tuple(draw(st.lists(st.floats(-1e6, 1e6), min_size=p, max_size=p))),
        )
        for sid in ids
    ]


@given(record_lists())
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ingest_round_trips_records(tmp_path, case):
    p, records = case
    path = tmp_path / "data.csv"
    _write_records(path, records, p)
    got, want = ingest_csv(path), to_columns(records)
    assert got.ids == want.ids
    for name in ("arm", "entry", "time_on_study", "event", "covariates"):
        a, b = getattr(got, name), getattr(want, name)
        assert a.dtype == b.dtype and a.shape == b.shape, name
        assert np.array_equal(a, b), name


@pytest.mark.parametrize("body, message", [
    # bad time on line 3 is reported before bad arm on line 5
    ("p1,0,0,1,1\np2,0,0,oops,1\np3,0,0,1,1\np4,2,0,1,1\n",
     ":3: field 'time' is not numeric: 'oops'"),
    ("p1,0,0,1,1\np2,0,0,1\np3,x,0,1,1\n", ":3: expected 5 fields, got 4"),
    # within a line: event range comes before entry and time
    ("p1,0,0,1,1\np2,1,bad,bad,7\n", ":3: event must be 0 or 1, got 7"),
    ("p1,1,-,1,x\n", ":2: field 'event' is not an integer: 'x'"),
])
def test_ingest_reports_the_first_bad_line(tmp_path, body, message):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,time,event\n" + body)
    with pytest.raises(ValidationError) as err:
        ingest_csv(path)
    assert str(err.value) == f"{path}{message}"


def test_ingest_skips_blank_rows_and_keeps_line_numbers(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,time,event\n\np1,0,0,1,1\n  , ,\t,,\n   \np2,1,0,2,0\n")
    assert ingest_csv(path).ids == ("p1", "p2")
    path.write_text("id,arm,entry,time,event\n\n  ,,,,\np1,0,0,1,1\np2,3,0,1,1\n")
    with pytest.raises(ValidationError, match=":5: arm must be 0 or 1, got 3"):
        ingest_csv(path)


def test_ingest_quoted_id_with_comma(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text('id,arm,entry,time,event\n"smith, j ",0,0,1,1\np2,1,0,1,0\n')
    assert ingest_csv(path).ids == ("smith, j", "p2")


def test_ingest_header_only_is_empty(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,time,event,z1\n")
    with pytest.raises(ValidationError, match="^dataset is empty$"):
        ingest_csv(path)


def test_ingest_nan_entry_names_subject(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("id,arm,entry,time,event\np1,0,0,1,1\np2,1,nan,1,0\n")
    with pytest.raises(ValidationError, match="subject 'p2': entry must be finite"):
        ingest_csv(path)
