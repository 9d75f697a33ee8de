"""Individual-level and aggregate-level data model, CSV/JSON ingestion, validation.

Subjects exist only as the columns of a ``Dataset``. The CSV layout is fixed:
``id,group,<covariate...>,outcome[,time,event]`` with a header row, UTF-8,
decimal point. Covariates are every column other than ``id``, ``group``,
``outcome``, ``time`` and ``event``. Row order is the canonical subject
order for every weight vector produced downstream. Missing covariate values
are rejected, never imputed; multi-level categoricals must arrive
pre-expanded to 0/1 indicator columns.
"""

from __future__ import annotations

import csv
import enum
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from .errors import (
    DataError,
    EmptyDataset,
    MissingColumn,
    MissingValue,
    NonNumericCovariate,
    ProportionOutOfRange,
    ResponderCountExceedsN,
    ScaleIncompatibleWithOutcome,
    SchemaViolation,
    UnknownGroupLabel,
    checked_field,
    is_count,
    is_int,
    is_number,
)


class Group(enum.Enum):
    TRIAL = 1
    EXTERNAL = 0


class OutcomeKind(enum.Enum):
    BINARY = "binary"
    CONTINUOUS = "continuous"
    TIME_TO_EVENT = "survival"


_GROUP_LABELS = {"trial": Group.TRIAL, "external": Group.EXTERNAL}

_MISSING_TOKENS = {"", "na", "nan", "null", "none", "."}

# Header names with a fixed role; every other column is a covariate.
ROLE_COLUMNS = ("id", "group", "outcome", "time", "event")


def _check_follow_up(rid, time: float, event: float) -> None:
    """Follow-up rules for one subject; NaN marks a missing time or event."""
    if math.isnan(time) != math.isnan(event):
        raise SchemaViolation(f"record {rid!r}: time and event must be present together")
    if time < 0:
        raise SchemaViolation(f"record {rid!r}: negative follow-up time")


_COLUMNS = ("ids", "trial", "X", "outcome", "time", "event")


def _read_only(col: np.ndarray) -> np.ndarray:
    col.flags.writeable = False
    return col


def _float_column(values, n: int) -> np.ndarray:
    """Float copy of an optional column; NaN marks a subject without a value."""
    if values is None:
        return np.full(n, np.nan)
    return np.array(values, dtype=float)


@dataclass(frozen=True, eq=False)
class Dataset:
    """Immutable columnar table of subjects with a declared covariate order.

    Row ``i`` of every column is subject ``i``, and row order is the
    canonical subject order of every weight vector produced downstream.
    ``X`` is the n x p covariate matrix (C-contiguous). ``outcome``,
    ``time`` and ``event`` are float columns holding NaN where a subject has
    no value; a column not given is all NaN. The constructor copies and
    validates the columns once and stores them read-only; ``take`` and
    ``restrict`` select rows of a valid table without validating again.
    """

    covariate_names: tuple[str, ...]
    ids: np.ndarray
    trial: np.ndarray
    X: np.ndarray
    outcome: Optional[np.ndarray] = None
    time: Optional[np.ndarray] = None
    event: Optional[np.ndarray] = None
    outcome_kind: Optional[OutcomeKind] = None

    def __post_init__(self):
        n = len(self.ids)
        columns = {
            "ids": np.array(self.ids, dtype=object),
            "trial": np.array(self.trial, dtype=bool),
            "X": np.array(self.X, dtype=float, order="C"),
            "outcome": _float_column(self.outcome, n),
            "time": _float_column(self.time, n),
            "event": _float_column(self.event, n),
        }
        object.__setattr__(self, "covariate_names", tuple(self.covariate_names))
        p = len(self.covariate_names)
        for name, col in columns.items():
            shape = (n, p) if name == "X" else (n,)
            if col.shape != shape:
                raise SchemaViolation(f"column {name!r} has shape {col.shape}, expected {shape}")
            object.__setattr__(self, name, _read_only(col))

        time, event = columns["time"], columns["event"]
        bad = (np.isnan(time) != np.isnan(event)) | (time < 0)
        if bad.any():
            i = int(np.argmax(bad))
            _check_follow_up(self.ids[i], time[i], event[i])
        if len(set(self.covariate_names)) != p:
            raise SchemaViolation("covariate names must be unique")
        for name in self.covariate_names:
            if name in ROLE_COLUMNS:
                raise SchemaViolation(f"covariate {name!r} has the name of a role column")
        if not self.trial.any():
            raise EmptyDataset("dataset contains no trial records")
        if self.outcome_kind is OutcomeKind.BINARY:
            y = self.outcome
            bad = ~np.isnan(y) & (y != 0.0) & (y != 1.0)
            if bad.any():
                i = int(np.argmax(bad))
                raise SchemaViolation(
                    f"record {self.ids[i]!r}: binary outcome must be 0 or 1, got {y[i]}"
                )

    def __len__(self):
        return len(self.ids)

    @property
    def n_trial(self) -> int:
        return int(np.count_nonzero(self.trial))

    @property
    def n_external(self) -> int:
        return len(self.ids) - self.n_trial

    @property
    def group_mask(self) -> np.ndarray:
        """Boolean mask, True for trial subjects, in row order (read-only)."""
        return self.trial

    def covariate_matrix(self, names: Optional[Sequence[str]] = None) -> np.ndarray:
        """n x p C-contiguous matrix of the named covariates (all, by default).

        The full matrix is returned as the stored read-only array; a subset
        or reordering is a new array.
        """
        if names is None or tuple(names) == self.covariate_names:
            return self.X
        idx = []
        for name in names:
            if name not in self.covariate_names:
                raise MissingColumn(f"unknown covariate {name!r}")
            idx.append(self.covariate_names.index(name))
        # Column selection yields a Fortran-ordered array; BLAS results
        # depend on the layout, so every matrix handed out is C-ordered.
        return np.ascontiguousarray(self.X[:, idx])

    def outcomes(self) -> np.ndarray:
        if np.isnan(self.outcome).any():
            raise MissingValue("outcome missing for at least one record")
        return self.outcome

    def times_events(self) -> tuple[np.ndarray, np.ndarray]:
        if np.isnan(self.time).any():
            raise MissingValue("time/event missing for at least one record")
        return self.time, self.event.astype(int)

    def take(self, rows) -> "Dataset":
        """Sub-dataset of the given row indices, in that order, repeats allowed.

        Rows of a validated dataset are valid, so only the one table-level
        rule that a subset can break is checked: a trial subject remains.
        """
        rows = np.asarray(rows, dtype=np.intp)
        sub = object.__new__(Dataset)
        vars(sub).update(
            covariate_names=self.covariate_names,
            outcome_kind=self.outcome_kind,
            **{name: _read_only(getattr(self, name)[rows]) for name in _COLUMNS},
        )
        if not sub.trial.any():
            raise EmptyDataset("dataset contains no trial records")
        return sub

    def restrict(self, group: Group) -> "Dataset":
        """Sub-dataset holding only one group, preserving row order."""
        mask = self.trial if group is Group.TRIAL else ~self.trial
        if mask.all():
            return self
        return self.take(np.flatnonzero(mask))


@dataclass(frozen=True)
class AggregateSummary:
    """Published-only external data: covariate means plus an outcome summary."""

    covariate_names: tuple[str, ...]
    covariate_means: tuple[float, ...]
    n: int
    outcome_kind: OutcomeKind
    outcome_summary: dict = field(default_factory=dict)

    def __post_init__(self):
        if self.n <= 0:
            raise SchemaViolation("aggregate n must be positive")
        if len(self.covariate_names) != len(self.covariate_means):
            raise SchemaViolation("covariate names/means length mismatch")
        if self.outcome_kind is OutcomeKind.BINARY:
            x0 = self.outcome_summary.get("responders")
            if not is_count(x0):
                raise SchemaViolation(
                    f"binary aggregate outcome needs responders, an integer >= 0, got {x0!r}")
            if x0 > self.n:
                raise ResponderCountExceedsN(f"responders {x0} > n {self.n}")
        elif self.outcome_kind is OutcomeKind.CONTINUOUS:
            if self.outcome_summary.get("sd", 0.0) < 0:
                raise SchemaViolation("aggregate sd must be >= 0")
        elif self.outcome_kind is OutcomeKind.TIME_TO_EVENT:
            s = self.outcome_summary.get("survival")
            if s is not None and not 0.0 <= s <= 1.0:
                raise ProportionOutOfRange(f"survival probability {s} outside [0,1]")

    def mean_of(self, name: str) -> float:
        if name not in self.covariate_names:
            raise MissingColumn(f"aggregate has no covariate {name!r}")
        return self.covariate_means[self.covariate_names.index(name)]

    def outcome_value(self) -> float:
        """The external outcome as one number: response rate or mean."""
        if self.outcome_kind is OutcomeKind.BINARY:
            return self.outcome_summary["responders"] / self.n
        if self.outcome_kind is OutcomeKind.CONTINUOUS:
            return float(self.outcome_summary["mean"])
        raise ScaleIncompatibleWithOutcome(
            "aggregate survival outcomes have no single outcome value; "
            "MAIC and STC need a binary or continuous aggregate"
        )


def _parse_number(token: str, column: str, row: int) -> float:
    token = token.strip()
    if token.lower() in _MISSING_TOKENS:
        raise MissingValue(f"missing value in column {column!r} at row {row}", row=row)
    try:
        value = float(token)
    except ValueError:
        raise NonNumericCovariate(
            f"non-numeric value {token!r} in column {column!r} at row {row}"
        ) from None
    if not math.isfinite(value):
        raise NonNumericCovariate(
            f"non-finite value {token!r} in column {column!r} at row {row}"
        )
    return value


def _parse_optional(token: str, column: str, row: int) -> float:
    if token.strip().lower() in _MISSING_TOKENS:
        return math.nan
    return _parse_number(token, column, row)


class _Malformed(Exception):
    """Some cell does not parse; a row-by-row scan reports the first one."""


def _parse_column(tokens, optional: bool) -> np.ndarray:
    """All cells of one column as floats, NaN where an optional cell is empty.

    Raises ``_Malformed`` on any value ``_parse_number`` would reject.
    """
    missing = None
    if optional:
        missing = np.array([t.strip().lower() in _MISSING_TOKENS for t in tokens], dtype=bool)
        tokens = ["nan" if m else t for t, m in zip(tokens, missing.tolist())]
    try:
        values = np.fromiter(map(float, tokens), dtype=float, count=len(tokens))
    except ValueError:
        raise _Malformed from None
    ok = np.isfinite(values)
    if missing is not None:
        ok |= missing
    if not ok.all():
        raise _Malformed
    return values


def _raise_first_error(path, rows, header, col_index, cov_names, optional) -> None:
    """Scan rows in order and raise the error of the first offending cell.

    Used only once the column parse has found a problem, so that errors
    name the same row and cell as a row-at-a-time reader would.
    """
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaViolation(f"{path}: row {i} has {len(row)} cells, expected {len(header)}")
        label = row[col_index["group"]].strip().lower()
        if label not in _GROUP_LABELS:
            raise UnknownGroupLabel(f"{path}: unknown group label {label!r} at row {i}")
        for name in cov_names:
            _parse_number(row[col_index[name]], name, i)
        _, time, event = (
            math.nan if col is None else _parse_optional(row[col_index[col]], col, i)
            for col in optional
        )
        _check_follow_up(row[col_index["id"]].strip(), time, event)


def load_dataset(path) -> Dataset:
    """Load and validate an individual-level CSV file.

    Columns are found by header name. ``id`` and ``group`` are required;
    ``outcome``, ``time`` and ``event`` are read when present; every other
    column is a covariate, in header order. The outcome kind is inferred
    from the values. Returns the validated dataset in file row order.
    """
    path = Path(path)
    try:
        with path.open(newline="", encoding="utf-8") as fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise EmptyDataset(f"{path}: file is empty") from None
            header = [h.strip() for h in header]
            rows = [row for row in reader if any(map(str.strip, row))]
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read file ({exc})") from None

    for required in ("id", "group"):
        if required not in header:
            raise MissingColumn(f"{path}: required column {required!r} not found")
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")

    cov_names = [h for h in header if h not in ROLE_COLUMNS]
    if not cov_names:
        raise MissingColumn(f"{path}: no covariate columns")

    col_index = {name: header.index(name) for name in header}
    # Outcome, time and event columns present in the file, else None.
    optional = [col if col in header else None for col in ("outcome", "time", "event")]

    try:
        if set(map(len, rows)) != {len(header)}:
            raise _Malformed
        cells = list(zip(*rows))
        groups = [_GROUP_LABELS.get(t.strip().lower()) for t in cells[col_index["group"]]]
        if None in groups:
            raise _Malformed
        X = np.empty((len(rows), len(cov_names)))
        for j, name in enumerate(cov_names):
            X[:, j] = _parse_column(cells[col_index[name]], optional=False)
        outcome, time, event = (
            None if col is None else _parse_column(cells[col_index[col]], optional=True)
            for col in optional
        )
    except _Malformed:
        _raise_first_error(path, rows, header, col_index, cov_names, optional)
        raise AssertionError("column parse and row scan disagree") from None

    return Dataset(
        tuple(cov_names),
        ids=[t.strip() for t in cells[col_index["id"]]],
        trial=[g is Group.TRIAL for g in groups],
        X=X,
        outcome=outcome,
        time=time,
        # Event indicators are read as integers, truncating toward zero.
        event=None if event is None else np.trunc(event),
        outcome_kind=_infer_outcome_kind(outcome, time),
    )


def _infer_outcome_kind(outcome, time) -> Optional[OutcomeKind]:
    if time is not None and not np.isnan(time).all():
        return OutcomeKind.TIME_TO_EVENT
    if outcome is None or np.isnan(outcome).all():
        return None
    present = outcome[~np.isnan(outcome)]
    if np.all((present == 0.0) | (present == 1.0)):
        return OutcomeKind.BINARY
    return OutcomeKind.CONTINUOUS


def save_dataset(data: Dataset, path) -> None:
    """Write a Dataset back to the canonical CSV layout (round-trip safe)."""
    path = Path(path)
    has_outcome = not np.isnan(data.outcome).all()
    has_time = not np.isnan(data.time).all()
    header = ["id", "group"] + list(data.covariate_names)
    if has_outcome:
        header.append("outcome")
    if has_time:
        header += ["time", "event"]
    columns = zip(
        data.ids.tolist(), data.trial.tolist(), data.X.tolist(),
        data.outcome.tolist(), data.time.tolist(), data.event.tolist(),
    )
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        for rid, is_trial, x, y, t, d in columns:
            row = [rid, "trial" if is_trial else "external"]
            row += [repr(v) for v in x]
            if has_outcome:
                row.append("" if math.isnan(y) else repr(y))
            if has_time:
                row.append("" if math.isnan(t) else repr(t))
                row.append("" if math.isnan(d) else str(int(d)))
            writer.writerow(row)


def load_aggregate(path) -> AggregateSummary:
    """Load and validate an aggregate-only external summary from JSON.

    Expected shape::

        {"n": 272,
         "covariates": {"age": 34.5, "severe": 0.75},
         "binary_covariates": ["severe"],          # optional, bounds-checked
         "outcome": {"kind": "binary", "responders": 90}}

    Continuous outcomes carry ``mean``/``sd``; survival outcomes carry
    ``horizon``/``survival``.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: invalid JSON ({exc})") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read file ({exc})") from None

    def field(block, key, ok, what, default=None, where=""):
        return checked_field(block, key, default, ok, what, f"{path}: {where}", SchemaViolation)

    if not isinstance(payload, dict):
        raise SchemaViolation(f"{path}: an aggregate must be a JSON object")
    for key in ("n", "covariates", "outcome"):
        if key not in payload:
            raise SchemaViolation(f"{path}: missing key {key!r}")
    n = field(payload, "n", lambda v: is_int(v) and v > 0, "a positive integer")
    covs = field(payload, "covariates", lambda v: isinstance(v, dict) and v, "a non-empty object")
    names = tuple(covs.keys())
    means = tuple(float(field(covs, name, is_number, "a finite number", where="covariate "))
                  for name in names)
    binary = field(payload, "binary_covariates",
                   lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                   "a list of names", default=[])
    for name in binary:
        if name not in covs:
            raise SchemaViolation(f"{path}: binary covariate {name!r} not in covariates")
        if not 0.0 <= float(covs[name]) <= 1.0:
            raise ProportionOutOfRange(
                f"{path}: proportion {covs[name]} for {name!r} outside [0,1]"
            )

    outcome = field(payload, "outcome", lambda v: isinstance(v, dict), "an object")
    kind_token = outcome.get("kind")
    try:
        kind = OutcomeKind(kind_token)
    except ValueError:
        raise SchemaViolation(f"{path}: unknown outcome kind {kind_token!r}") from None
    summary = {k: v for k, v in outcome.items() if k != "kind"}
    for key in summary:
        field(summary, key, is_number, "a number", where="outcome ")
    if kind is OutcomeKind.CONTINUOUS and "mean" not in summary:
        raise SchemaViolation(f"{path}: continuous outcome needs 'mean'")
    return AggregateSummary(
        covariate_names=names,
        covariate_means=means,
        n=n,
        outcome_kind=kind,
        outcome_summary=summary,
    )
