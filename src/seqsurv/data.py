"""Two-time-scale survival data model.

Subjects enter a trial at staggered calendar times and are followed on their
own study clock.  An interim analysis at calendar time ``u`` sees each subject
administratively censored at its elapsed follow-up ``(u - entry)+``; the
:func:`snapshot` operation materializes that view.

Downstream estimators assume enrollment times are independent of outcomes,
censoring, and covariates (accrual patterns do not drift over the study).
That assumption is untestable from a single dataset and is documented here
rather than checked.
"""

from __future__ import annotations

import csv
import io
import math
import warnings
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import ValidationError

CONTROL = 0
TREATMENT = 1


class Columns(NamedTuple):
    """A dataset, one array per field: what the simulator draws, what
    :func:`ingest_csv` returns and what :func:`snapshot` censors."""

    ids: tuple[str, ...]
    arm: np.ndarray          # (n,) int8
    entry: np.ndarray        # (n,) float64
    time_on_study: np.ndarray  # (n,) float64
    event: np.ndarray        # (n,) bool
    covariates: np.ndarray   # (n, p) float64


def validate_dataset(cols: Columns) -> None:
    """Check structural invariants with one vectorised pass over the columns.

    On failure the error names the first offending subject, as a per-subject
    scan in dataset order would.
    """
    n = len(cols.ids)
    if n == 0:
        raise ValidationError("dataset is empty")
    shapes = [np.shape(a) for a in (cols.arm, cols.entry, cols.time_on_study, cols.event)]
    if shapes != [(n,)] * 4 or np.ndim(cols.covariates) != 2 or len(cols.covariates) != n:
        raise ValidationError(f"every column must have one entry per subject ({n})")
    event_dtype = np.asarray(cols.event).dtype
    if event_dtype != bool:
        raise ValidationError(f"event must be a bool column, got dtype {event_dtype}")
    ok = (
        len(set(cols.ids)) == n
        and bool(np.all((cols.arm == CONTROL) | (cols.arm == TREATMENT)))
        and bool(np.all(np.isfinite(cols.entry) & (cols.entry >= 0)))
        and bool(np.all(np.isfinite(cols.time_on_study) & (cols.time_on_study >= 0)))
        and bool(np.all(np.isfinite(cols.covariates)))
    )
    if not ok:
        _raise_first_subject_error(
            zip(cols.ids, cols.arm.tolist(), cols.entry.tolist(),
                cols.time_on_study.tolist(), cols.covariates.tolist())
        )


def _raise_first_subject_error(subjects) -> None:
    """Raise the error of the first subject, in order, that breaks an invariant.

    ``subjects`` yields ``(id, arm, entry, time_on_study, covariates)``.  The
    checks run per subject in this order: duplicate id, arm, entry, time,
    covariate values.
    """
    seen: set[str] = set()
    for sid, arm, entry, time_on_study, covariates in subjects:
        if sid in seen:
            raise ValidationError(f"duplicate subject id {sid!r}")
        seen.add(sid)
        if arm not in (CONTROL, TREATMENT):
            raise ValidationError(f"subject {sid!r}: arm must be 0 or 1, got {arm!r}")
        if not np.isfinite(entry) or entry < 0:
            raise ValidationError(f"subject {sid!r}: entry must be finite and >= 0")
        if not np.isfinite(time_on_study) or time_on_study < 0:
            raise ValidationError(f"subject {sid!r}: time_on_study must be finite and >= 0")
        if not all(np.isfinite(z) for z in covariates):
            raise ValidationError(f"subject {sid!r}: non-finite covariate value")


def to_columns(cols: Columns) -> Columns:
    """``cols`` after :func:`validate_dataset` has checked them."""
    validate_dataset(cols)
    return cols


def _freeze(a: np.ndarray) -> np.ndarray:
    a.setflags(write=False)
    return a


@dataclass(frozen=True)
class Snapshot:
    """The dataset as visible at calendar time ``u``.

    All subjects are present, including those not yet enrolled (they carry
    zero follow-up and no event, so they never enter a risk set at a positive
    study time but still count toward group sizes and covariate averages).
    Arrays are write-protected; snapshots are safe to share across threads.
    """

    calendar_time: float
    ids: tuple[str, ...]
    arm: np.ndarray
    follow_up: np.ndarray
    event_observed: np.ndarray
    covariates: np.ndarray

    def __post_init__(self) -> None:
        for a in (self.arm, self.follow_up, self.event_observed, self.covariates):
            _freeze(a)

    @property
    def n(self) -> int:
        return len(self.ids)

    @property
    def n_covariates(self) -> int:
        return self.covariates.shape[1]


def check_t0(t0: float, snap: Snapshot | None = None) -> None:
    """Raise ``ValueError`` unless the comparison time ``t0`` is finite and
    positive and, given a snapshot, no later than its calendar time."""
    if not (math.isfinite(t0) and t0 > 0.0):
        raise ValueError(f"t0 must be finite and positive, got {t0!r}")
    if snap is not None and t0 > snap.calendar_time:
        raise ValueError(
            f"survival time {t0:g} exceeds the snapshot's calendar time {snap.calendar_time:g}"
        )


def snapshot(cols: Columns, u: float) -> Snapshot:
    """Apply administrative censoring at calendar time ``u``.

    Per subject: ``follow_up = min(time_on_study, (u - entry)+)`` and the
    event is observed iff it had occurred by that horizon.  A subject with
    ``entry >= u`` contributes zero follow-up and no event, even one at time 0.
    """
    if not np.isfinite(u) or u < 0:
        raise ValidationError(f"calendar time must be finite and >= 0, got {u!r}")
    horizon = np.maximum(u - cols.entry, 0.0)
    follow_up = np.minimum(cols.time_on_study, horizon)
    event_observed = cols.event & (cols.time_on_study <= horizon) & (horizon > 0.0)
    return Snapshot(
        calendar_time=float(u),
        ids=cols.ids,
        arm=cols.arm.copy(),
        follow_up=follow_up,
        event_observed=event_observed,
        covariates=cols.covariates.copy(),
    )


_REQUIRED = ("id", "arm", "entry", "time", "event")
# ``str.isspace`` characters that numpy strips around a number and
# ``float()`` does not.
_UNSTRIPPED_SPACES = "\x1c\x1d\x1e\x1f"


def ingest_csv(path) -> Columns:
    """Read subjects from a CSV file with header ``id,arm,entry,time,event,z1,...,zp``
    into validated columns.

    Covariate columns are recognized by the ``z`` prefix; a file with no such
    columns yields a valid zero-covariate dataset.  Blank rows are skipped.  A
    malformed record is reported with the line on which it starts, the first
    such record in the file; a dataset-level fault (duplicate id, negative
    time, ...) names the first offending subject.  A UTF-8 byte order mark is
    ignored.

    A well-formed file is parsed in one :func:`numpy.loadtxt` pass.  Any file
    that pass declines goes to the one-pass row reader :func:`_ingest_rows`,
    which accepts the same files with the same values and reports the errors.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            reader = csv.reader(fh)
            header, col, zcols = _read_header(reader, path)
            body = fh.read()
    except UnicodeDecodeError:
        raise _decode_error(path) from None
    # the pass skips one physical line for the header and strips more
    # characters around a number than float() does
    plain = reader.line_num == 1 and not any(c in body for c in _UNSTRIPPED_SPACES)
    cols = _load_well_formed(path, len(header), col, zcols) if plain else None
    if cols is None:
        return _ingest_rows(path)
    validate_dataset(cols)
    return cols


def _read_header(reader, path):
    """The header row of ``reader``, the column index of each required field
    and the ``(name, index)`` of the covariate columns in ``z<k>`` order."""
    try:
        header = [h.strip() for h in next(reader)]
    except StopIteration:
        raise ValidationError(f"{path}: file is empty") from None
    missing = [c for c in _REQUIRED if c not in header]
    if missing:
        raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
    col = {name: header.index(name) for name in _REQUIRED}
    zcols = [(name, header.index(name)) for name in header if name.startswith("z")]
    zcols.sort(key=lambda item: _z_index(item[0], path))
    return header, col, zcols


def _load_well_formed(path, width: int, col, zcols) -> Columns | None:
    """The columns of the data rows in one C pass, or None when the pass
    declines the file.

    Numbers are parsed as ``float()`` parses them.  ``arm`` and ``event`` are
    read as text and taken only when every value is exactly ``0`` or ``1``:
    numpy's integer parser misreads some non-ASCII text.  Any error or
    warning, no rows, or an id holding a line break (the pass translates
    ``\\r``) declines.  The result is not validated.
    """
    kinds = ["O"] * width
    for j in (col["entry"], col["time"], *(idx for _, idx in zcols)):
        kinds[j] = "f8"
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            data = np.loadtxt(
                path, dtype=[(f"f{j}", k) for j, k in enumerate(kinds)], delimiter=",",
                skiprows=1, comments=None, quotechar='"', ndmin=1, encoding="utf-8",
            )
    except (ValueError, Warning):
        return None
    field = {name: data[f"f{j}"] for name, j in col.items()}
    ids = tuple(map(str.strip, field["id"]))
    arm1, event1 = field["arm"] == "1", field["event"] == "1"
    if (
        "\n" in "".join(ids)
        or not (arm1 | (field["arm"] == "0")).all()
        or not (event1 | (field["event"] == "0")).all()
    ):
        return None
    covariates = np.empty((len(data), len(zcols)))
    for j, (_, idx) in enumerate(zcols):
        covariates[:, j] = data[f"f{idx}"]
    return Columns(
        ids=ids,
        arm=arm1.astype(np.int8),
        entry=field["entry"].copy(),
        time_on_study=field["time"].copy(),
        event=event1,
        covariates=covariates,
    )


def _ingest_rows(path) -> Columns:
    """:func:`ingest_csv` with one Python row per CSV record: the reference
    reader, which accepts every form ``float()`` and ``int()`` accept and
    names the line on which the first bad record starts.

    Each record is checked where it is read, in this order: field count, arm,
    event, entry, time, covariates by index.  Lines are counted at ``\\n``,
    ``\\r`` and ``\\r\\n`` breaks, inside quoted fields too.
    """
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            text = fh.read()
    except UnicodeDecodeError:
        raise _decode_error(path) from None
    reader = csv.reader(io.StringIO(text, newline=""))
    header, col, zcols = _read_header(reader, path)
    ids, arm, event, entry, time_on_study, covariates = [], [], [], [], [], []
    end = reader.line_num
    for row in reader:
        lineno, end = end + 1, reader.line_num
        if not "".join(row).strip():
            continue
        if len(row) != len(header):
            raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        ids.append(row[col["id"]].strip())
        arm.append(_parse_flag(row[col["arm"]], path, lineno, "arm"))
        event.append(_parse_flag(row[col["event"]], path, lineno, "event"))
        entry.append(_parse_float(row[col["entry"]], path, lineno, "entry"))
        time_on_study.append(_parse_float(row[col["time"]], path, lineno, "time"))
        covariates.append([_parse_float(row[idx], path, lineno, name) for name, idx in zcols])
    cols = Columns(
        ids=tuple(ids),
        arm=np.array(arm, dtype=np.int8),
        entry=np.array(entry, dtype=np.float64),
        time_on_study=np.array(time_on_study, dtype=np.float64),
        event=np.array(event, dtype=bool),
        covariates=np.array(covariates, dtype=np.float64),
    )
    validate_dataset(cols)
    return cols


def _decode_error(path) -> ValidationError:
    """The error naming the first line of ``path`` that is not UTF-8, with
    lines broken as :func:`_ingest_rows` counts them (a line break byte never
    occurs inside a multi-byte UTF-8 character)."""
    with open(path, "rb") as fh:
        for lineno, line in enumerate(fh.read().splitlines(), start=1):
            try:
                line.decode("utf-8")
            except UnicodeDecodeError as exc:
                return ValidationError(f"{path}:{lineno}: not UTF-8 at byte {exc.start + 1}")
    return ValidationError(f"{path}: not UTF-8 text")


def _z_index(name: str, path) -> int:
    try:
        return int(name[1:])
    except ValueError:
        raise ValidationError(f"{path}: covariate column {name!r} is not of the form z<k>") from None


def _parse_float(text: str, path, lineno: int, name: str) -> float:
    try:
        return float(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: field {name!r} is not numeric: {text!r}") from None


def _parse_flag(text: str, path, lineno: int, name: str) -> int:
    """``text`` as the integer 0 or 1."""
    try:
        value = int(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: field {name!r} is not an integer: {text!r}") from None
    if value not in (0, 1):
        raise ValidationError(f"{path}:{lineno}: {name} must be 0 or 1, got {value}")
    return value
