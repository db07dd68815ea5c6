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
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .errors import ValidationError

CONTROL = 0
TREATMENT = 1


@dataclass(frozen=True)
class SubjectRecord:
    """One enrolled subject, on the raw (uncensored-by-analysis) scale.

    ``time_on_study`` is the minimum of the event and random-censoring times,
    measured from the subject's own entry; ``event`` says which one it was.
    """

    id: str
    arm: int
    entry: float
    time_on_study: float
    event: bool
    covariates: tuple[float, ...] = ()


class Columns(NamedTuple):
    """Columnar view of a dataset: what the simulator draws and what
    :func:`ingest_csv` returns."""

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
                cols.time_on_study.tolist(), cols.covariates.tolist()),
            cols.covariates.shape[1],
        )


def _raise_first_subject_error(subjects, p: int) -> None:
    """Raise the error of the first subject, in order, that breaks an invariant.

    ``subjects`` yields ``(id, arm, entry, time_on_study, covariates)``.  The
    checks run per subject in this order: duplicate id, arm, entry, time,
    covariate length, covariate values.
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
        if len(covariates) != p:
            raise ValidationError(
                f"subject {sid!r}: covariate vector has length {len(covariates)}, expected {p}"
            )
        if not all(np.isfinite(z) for z in covariates):
            raise ValidationError(f"subject {sid!r}: non-finite covariate value")


def to_columns(dataset: Sequence[SubjectRecord] | Columns) -> Columns:
    """Validated columnar view of a dataset.

    ``Columns`` are validated and returned as they are; subject records are
    converted first.
    """
    if isinstance(dataset, Columns):
        validate_dataset(dataset)
        return dataset
    if not dataset:
        raise ValidationError("dataset is empty")
    n = len(dataset)
    p = len(dataset[0].covariates)
    # Checked on the Python values: an int8 cast would truncate 0.5 or wrap 300,
    # and ragged covariate vectors cannot form an (n, p) array.
    if any(r.arm not in (CONTROL, TREATMENT) or len(r.covariates) != p for r in dataset):
        _raise_first_subject_error(
            ((r.id, r.arm, r.entry, r.time_on_study, r.covariates) for r in dataset), p
        )
    cols = Columns(
        ids=tuple(r.id for r in dataset),
        arm=np.fromiter((r.arm for r in dataset), dtype=np.int8, count=n),
        entry=np.fromiter((r.entry for r in dataset), dtype=np.float64, count=n),
        time_on_study=np.fromiter((r.time_on_study for r in dataset), dtype=np.float64, count=n),
        event=np.fromiter((r.event for r in dataset), dtype=bool, count=n),
        covariates=np.array([r.covariates for r in dataset], dtype=np.float64).reshape(n, p),
    )
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

    def arm_size(self, arm: int) -> int:
        return int(np.count_nonzero(self.arm == arm))


def snapshot(dataset: Sequence[SubjectRecord] | Columns, u: float) -> Snapshot:
    """Apply administrative censoring at calendar time ``u``.

    Per subject: ``follow_up = min(time_on_study, (u - entry)+)`` and the
    event is observed iff it had occurred by that horizon.  A subject with
    ``entry >= u`` contributes zero follow-up.
    """
    if not np.isfinite(u) or u < 0:
        raise ValidationError(f"calendar time must be finite and >= 0, got {u!r}")
    cols = dataset if isinstance(dataset, Columns) else to_columns(dataset)
    horizon = np.maximum(u - cols.entry, 0.0)
    follow_up = np.minimum(cols.time_on_study, horizon)
    event_observed = cols.event & (cols.time_on_study <= horizon)
    return Snapshot(
        calendar_time=float(u),
        ids=cols.ids,
        arm=cols.arm.copy(),
        follow_up=follow_up,
        event_observed=event_observed,
        covariates=cols.covariates.copy(),
    )


def ingest_csv(path, *, delimiter: str = ",") -> Columns:
    """Read subjects from a CSV file with header ``id,arm,entry,time,event,z1,...,zp``
    into validated columns.

    Covariate columns are recognized by the ``z`` prefix; a file with no such
    columns yields a valid zero-covariate dataset.  Blank rows are skipped.  A
    malformed field is reported with its line, the first such line in the
    file; a dataset-level fault (duplicate id, negative time, ...) names the
    first offending subject.
    """
    required = ["id", "arm", "entry", "time", "event"]
    with open(path, newline="", encoding="utf-8") as fh:
        reader = csv.reader(fh, delimiter=delimiter)
        try:
            header = next(reader)
        except StopIteration:
            raise ValidationError(f"{path}: file is empty") from None
        header = [h.strip() for h in header]
        missing = [c for c in required if c not in header]
        if missing:
            raise ValidationError(f"{path}: missing column(s) {', '.join(missing)}")
        col = {name: header.index(name) for name in required}
        zcols = [(name, header.index(name)) for name in header if name.startswith("z")]
        zcols.sort(key=lambda item: _z_index(item[0], path))
        rows: list[list[str]] = []
        lines: list[int] = []
        for lineno, row in enumerate(reader, start=2):
            if "".join(row).strip():
                rows.append(row)
                lines.append(lineno)
    if not rows:
        raise ValidationError("dataset is empty")
    if any(len(row) != len(header) for row in rows):
        _raise_first_line_error(path, header, rows, lines, col, zcols)
    cells = list(zip(*rows))
    del rows  # the cells hold the same strings; drop the per-row lists early
    n, p = len(lines), len(zcols)
    try:
        arm = list(map(int, cells[col["arm"]]))
        event = list(map(int, cells[col["event"]]))
        if not {0, 1}.issuperset(arm) or not {0, 1}.issuperset(event):
            raise ValueError
        entry = np.fromiter(map(float, cells[col["entry"]]), np.float64, n)
        time_on_study = np.fromiter(map(float, cells[col["time"]]), np.float64, n)
        covariates = np.empty((n, p))
        for j, (_, idx) in enumerate(zcols):
            covariates[:, j] = np.fromiter(map(float, cells[idx]), np.float64, n)
    except ValueError:
        _raise_first_line_error(path, header, zip(*cells), lines, col, zcols)
        raise  # not reached: the scan repeats the check that failed
    cols = Columns(
        ids=tuple(map(str.strip, cells[col["id"]])),
        arm=np.array(arm, dtype=np.int8),
        entry=entry,
        time_on_study=time_on_study,
        event=np.array(event, dtype=bool),
        covariates=covariates,
    )
    validate_dataset(cols)
    return cols


def _raise_first_line_error(path, header, rows, lines, col, zcols) -> None:
    """Raise the error of the first malformed row, checking each row's fields
    in this order: field count, arm, event, entry, time, covariates by index."""
    for lineno, row in zip(lines, rows):
        if len(row) != len(header):
            raise ValidationError(f"{path}:{lineno}: expected {len(header)} fields, got {len(row)}")
        arm = _parse_int(row[col["arm"]], path, lineno, "arm")
        if arm not in (0, 1):
            raise ValidationError(f"{path}:{lineno}: arm must be 0 or 1, got {arm}")
        event = _parse_int(row[col["event"]], path, lineno, "event")
        if event not in (0, 1):
            raise ValidationError(f"{path}:{lineno}: event must be 0 or 1, got {event}")
        _parse_float(row[col["entry"]], path, lineno, "entry")
        _parse_float(row[col["time"]], path, lineno, "time")
        for name, idx in zcols:
            _parse_float(row[idx], path, lineno, name)


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


def _parse_int(text: str, path, lineno: int, name: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise ValidationError(f"{path}:{lineno}: field {name!r} is not an integer: {text!r}") from None
