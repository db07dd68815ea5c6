import csv
import re

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from seqsurv import (
    ValidationError,
    ingest_csv,
    km_compare,
    snapshot,
    to_columns,
)
from seqsurv import data
from conftest import columns


def test_event_not_yet_reached_at_snapshot():
    snap = snapshot(columns([("a", 0, 1.0, 2.0, True, ())]), 2.0)
    assert snap.follow_up[0] == pytest.approx(1.0)
    assert not snap.event_observed[0]


def test_event_observed_once_horizon_passes():
    snap = snapshot(columns([("a", 0, 1.0, 2.0, True, ())]), 4.0)
    assert snap.follow_up[0] == pytest.approx(2.0)
    assert snap.event_observed[0]


def test_administrative_censoring_truncates_follow_up():
    snap = snapshot(columns([("a", 0, 0.0, 5.0, False, ())]), 3.0)
    assert snap.follow_up[0] == pytest.approx(3.0)
    assert not snap.event_observed[0]


def test_not_yet_enrolled_subject_contributes_zero_risk():
    # entry exactly at the analysis time
    snap = snapshot(columns([("a", 1, 4.0, 2.0, True, ())]), 4.0)
    assert snap.follow_up[0] == 0.0
    assert not snap.event_observed[0]


def test_not_yet_enrolled_subject_with_zero_time_has_no_event():
    recs = columns([
        ("a", 0, 5.0, 0.0, True, ()),  # enters after the analysis time
        ("b", 0, 0.0, 3.0, False, ()),
        ("c", 1, 0.0, 1.0, True, ()),
        ("d", 1, 0.0, 3.0, False, ()),
    ])
    snap = snapshot(recs, 1.5)
    assert snap.follow_up[0] == 0.0
    assert not snap.event_observed[0]
    assert km_compare(snap, 1.2).s_hat[0] == 1.0


def test_negative_time_names_subject():
    with pytest.raises(ValidationError, match="bad"):
        columns([
            ("ok", 0, 0.0, 1.0, True, ()),
            ("bad", 1, 0.0, -2.0, True, ()),
        ])


def test_columns_are_validated_and_passed_through():
    cols = columns([("a", 0, 0.0, 1.0, True, ()), ("b", 1, 0.0, 1.0, True, ())])
    assert to_columns(cols) is cols
    bad = cols._replace(time_on_study=np.array([1.0, np.inf]))
    with pytest.raises(ValidationError, match="subject 'b': time_on_study"):
        to_columns(bad)
    with pytest.raises(ValidationError, match="one entry per subject"):
        to_columns(cols._replace(entry=np.zeros(1)))


@pytest.mark.parametrize("event, dtype", [
    (np.array([1, 2, 0, 1, 2, 0]), "int64"),
    (np.array([1.0, 0.0, 1.0, 0.0, 1.0, 0.0]), "float64"),
])
def test_event_column_must_be_bool(event, dtype):
    cols = columns([(f"s{k}", k % 2, 0.0, 1.0, True, ()) for k in range(6)])
    with pytest.raises(ValidationError, match=f"^event must be a bool column, got dtype {dtype}$"):
        to_columns(cols._replace(event=event))


def test_duplicate_ids_rejected():
    with pytest.raises(ValidationError, match="duplicate"):
        columns([
            ("x", 0, 0.0, 1.0, True, ()),
            ("x", 1, 0.0, 1.0, True, ()),
        ])


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
    cols = columns([("a", 0, entry, time_on_study, event, ())])
    su = snapshot(cols, u)
    sv = snapshot(cols, v)
    assert su.follow_up[0] <= sv.follow_up[0] + 1e-12
    if su.event_observed[0]:
        assert sv.event_observed[0]


def test_snapshot_saturates_once_everything_is_observed():
    recs = columns([
        ("a", 0, 0.5, 2.0, True, (1.0,)),
        ("b", 1, 1.5, 3.0, False, (0.0,)),
    ])
    horizon = float(np.max(recs.entry + recs.time_on_study))
    s1 = snapshot(recs, horizon)
    s2 = snapshot(recs, horizon + 7.0)
    assert np.array_equal(s1.follow_up, s2.follow_up)
    assert np.array_equal(s1.event_observed, s2.event_observed)


def test_snapshot_arrays_are_write_protected():
    snap = snapshot(columns([("a", 0, 0.0, 1.0, True, ())]), 2.0)
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


def _write_rows(path, rows, p):
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "arm", "entry", "time", "event"] + [f"z{k + 1}" for k in range(p)])
        for sid, arm, entry, time_on_study, event, covariates in rows:
            writer.writerow([sid, arm, repr(entry), repr(time_on_study), int(event)]
                            + [repr(z) for z in covariates])


@st.composite
def row_lists(draw):
    p = draw(st.integers(0, 3))
    ids = draw(st.lists(
        st.text(alphabet='ab1 ,"', min_size=1, max_size=6).map(str.strip).filter(bool),
        min_size=1, max_size=12, unique=True,
    ))
    times = st.floats(0, 1e6, allow_nan=False)
    return p, [
        (
            sid, draw(st.sampled_from([0, 1])), draw(times), draw(times), draw(st.booleans()),
            tuple(draw(st.lists(st.floats(-1e6, 1e6), min_size=p, max_size=p))),
        )
        for sid in ids
    ]


@given(row_lists())
@settings(max_examples=100, suppress_health_check=[HealthCheck.function_scoped_fixture])
def test_ingest_round_trips_records(tmp_path, case):
    p, rows = case
    path = tmp_path / "data.csv"
    _write_rows(path, rows, p)
    got, want = ingest_csv(path), columns(rows)
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


def test_ingest_ignores_a_byte_order_mark(tmp_path):
    path = tmp_path / "data.csv"
    path.write_text("\ufeffid,arm,entry,time,event\np1,0,0,1,1\np2,1,0,2,0\n", encoding="utf-8")
    assert ingest_csv(path).ids == data._ingest_rows(path).ids == ("p1", "p2")


@pytest.mark.parametrize("read", [ingest_csv, data._ingest_rows], ids=["ingest_csv", "rows"])
@pytest.mark.parametrize("text, lineno, column", [
    (b"id,arm,entry,time,event\nJos\xe9,0,0,1,1\np2,1,0,2,0\n", 2, 4),
    (b"id,arm,entry,time,event\nJos\xc3\xa9,0,0,1,1\np\xff,1,0,2,0\n", 3, 2),
    (b"id,arm,entry,time,event,z\xb9\n", 1, 26),
], ids=["latin1-id", "after-a-utf8-line", "header"])
def test_ingest_names_the_line_of_a_non_utf8_byte(tmp_path, read, text, lineno, column):
    path = tmp_path / "data.csv"
    path.write_bytes(text)
    message = f"{re.escape(str(path))}:{lineno}: not UTF-8 at byte {column}$"
    with pytest.raises(ValidationError, match=f"^{message}"):
        read(path)


def _bits(cols):
    """The ids and each array column as ``(dtype, shape, bytes)``."""
    return cols.ids, [(a.dtype, a.shape, a.tobytes()) for a in cols[1:]]


def _outcome(read, path):
    """What ``read(path)`` gives: its error message, or :func:`_bits` of its columns."""
    try:
        cols = read(path)
    except ValidationError as exc:
        return "error", str(exc)
    return "columns", _bits(cols)


_ODD_INTS = [" 1", "+0", "01", "1.0", "2", "-1", "1_0", "\u0661", '"1"', "", "x"]
_ODD_FLOATS = [
    " 3.25 ", "-0.0", "1e3", "1_0.5", "\u0661", "nan", "inf", "-inf", "1e400", "",
    "x", '"4.5"', "\u00a02", "\x1c2", "3\x1f", "0x1p3", "1d5",
]
_ID_TEXT = st.text(alphabet='ab ,"\r\n\x1c\u0661', max_size=4)


@st.composite
def csv_texts(draw):
    """CSV files around the well-formed case: quoted ids, padded and
    unusual numbers, blank and comma-only rows, mixed line endings, extra
    columns, and short and long rows."""
    p = draw(st.integers(0, 2))
    names = ["id", "arm", "entry", "time", "event"] + [f"z{k + 1}" for k in range(p)]
    names += draw(st.lists(st.sampled_from(["site", "note"]), max_size=2, unique=True))
    names = draw(st.permutations(names))
    quote_header = draw(st.booleans())
    lines = [",".join(f'"{name}"' if quote_header else name for name in names)]
    noisy = draw(st.booleans())  # else every row is well formed
    kinds = ["row"] * 8 + ["blank"] + (["spaces", "commas", "short", "long"] if noisy else [])
    for i in range(draw(st.integers(0, 8))):
        kind = draw(st.sampled_from(kinds))
        if kind in ("blank", "spaces", "commas"):
            lines.append({"blank": "", "spaces": " \t ", "commas": ",," * len(names)}[kind])
            continue
        row = []
        for name in names:
            if name == "id":
                quoted = '"' + (draw(_ID_TEXT) + str(i)).replace('"', '""') + '"'
                row.append(draw(st.sampled_from([f"p{i}", quoted])))
            elif name in ("arm", "event"):
                row.append(draw(st.sampled_from(["0", "1"])))
            else:
                low = -1e6 if name.startswith("z") else 0.0
                row.append(repr(draw(st.floats(low, 1e6))))
        if noisy and draw(st.integers(0, 2)) == 0:
            j = draw(st.integers(0, len(names) - 1))
            odd = {"id": [draw(_ID_TEXT)], "arm": _ODD_INTS, "event": _ODD_INTS}
            row[j] = draw(st.sampled_from(odd.get(names[j], _ODD_FLOATS)))
        if kind == "short":
            row.pop()
        elif kind == "long":
            row.append("0")
        lines.append(",".join(row))
    ends = draw(st.sampled_from(["\n", "\r\n", "\r", "mixed"]))
    text = "".join(
        line + (draw(st.sampled_from(["\n", "\r\n", "\r"])) if ends == "mixed" else ends)
        for line in lines
    )
    if draw(st.booleans()):
        text = text.rstrip("\r\n")
    return text


@given(csv_texts())
@example("id,arm,entry,time,event\np1,0,\x1c2,1,1\n")  # numpy strips \x1c, float() does not
@example('id,arm,entry,time,event\n"a\r\nb",0,2,1,1\n')  # numpy reads the id as 'a\nb'
@example("id,arm,entry,time,event\np1,1.0,2,1,1\n")
@example("id,arm,entry,time,event\np1, 1,2,1,1\np2,\u0661,2,1_0.5,0\n")
@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.function_scoped_fixture, HealthCheck.too_slow])
def test_ingest_matches_the_row_reader(tmp_path, text):
    path = tmp_path / "data.csv"
    path.write_text(text, encoding="utf-8", newline="")
    assert _outcome(ingest_csv, path) == _outcome(data._ingest_rows, path)


@pytest.mark.parametrize("style", ["bench", "crlf", "r_write_csv"])
def test_well_formed_files_skip_the_row_reader(tmp_path, monkeypatch, style):
    rng = np.random.default_rng(7)
    quote = '"' if style == "r_write_csv" else ""
    names = ["id", "arm", "entry", "time", "event", "z1", "z2"]
    lines = [",".join(f"{quote}{name}{quote}" for name in names)] + [
        f"{quote}c{k:05d}{quote},{k % 2},{rng.integers(0, 2190)},{rng.integers(1, 3000)},"
        f"{rng.integers(0, 2)},{rng.normal()!r},{float(rng.integers(0, 2))!r}"
        for k in range(50)
    ]
    if style == "r_write_csv":  # R's write.csv adds the row names as an unnamed first column
        lines = [f'"{k or ""}",{line}' for k, line in enumerate(lines)]
    path = tmp_path / "data.csv"
    path.write_bytes(("\r\n" if style == "crlf" else "\n").join(lines).encode() + b"\n")
    want = data._ingest_rows(path)
    monkeypatch.setattr(data, "_ingest_rows", lambda path: pytest.fail("row reader used"))
    got = ingest_csv(path)
    assert _bits(got) == _bits(want)
    assert len(got.ids) == 50 and got.covariates.shape == (50, 2)
