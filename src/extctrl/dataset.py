"""Individual-level and aggregate-level data model, CSV/JSON ingestion, CSV output, validation.

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
import warnings
from dataclasses import dataclass
from functools import cached_property
from itertools import chain
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
    check_settings,
    checked_field,
    is_count,
    is_int,
    is_number,
    setting,
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


def _check_follow_up(rid, time: float, event: float, row: int) -> None:
    """Follow-up rules for subject ``row``; NaN marks a missing time or event."""
    if math.isnan(time) != math.isnan(event):
        raise SchemaViolation(f"record {rid!r}: time and event must be present together",
                              row=row)
    if time < 0:
        raise SchemaViolation(f"record {rid!r}: negative follow-up time", row=row)
    if not (math.isnan(event) or event in (0.0, 1.0)):
        raise SchemaViolation(f"record {rid!r}: event must be 0 or 1, got {event:g} at row {row}",
                              row=row)


_COLUMNS = ("ids", "trial", "X", "outcome", "time", "event")
_FLOAT_COLUMNS = ("outcome", "time", "event")


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
    ``X`` is the n x p covariate matrix (C-contiguous), finite: a NaN cell is
    MissingValue and an infinite one NonNumericCovariate. ``outcome``,
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

        bad = ~np.isfinite(self.X)
        if bad.any():
            i, j = np.argwhere(bad)[0]
            error = MissingValue if np.isnan(self.X[i, j]) else NonNumericCovariate
            raise error(f"record {self.ids[i]!r}: covariate {self.covariate_names[j]!r} "
                        f"is {self.X[i, j]} at row {i}", row=int(i))
        time, event = columns["time"], columns["event"]
        missing = np.isnan(event)
        bad = (np.isnan(time) != missing) | (time < 0) | ~(missing | (event == 0) | (event == 1))
        if bad.any():
            i = int(np.argmax(bad))
            _check_follow_up(self.ids[i], time[i], event[i], i)
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

    @cached_property
    def group_rows(self) -> tuple[np.ndarray, np.ndarray]:
        """Row indices of the trial and of the external subjects, each in row
        order (read-only, computed once per dataset)."""
        return (_read_only(np.flatnonzero(self.trial)),
                _read_only(np.flatnonzero(~self.trial)))

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

    @cached_property
    def _missing(self) -> dict:
        """Per float column (outcome, time, event), the number of rows without a value."""
        return {name: int(np.count_nonzero(np.isnan(getattr(self, name))))
                for name in _FLOAT_COLUMNS}

    def outcomes(self) -> np.ndarray:
        if self._missing["outcome"]:
            raise MissingValue("outcome missing for at least one record")
        return self.outcome

    def times_events(self) -> tuple[np.ndarray, np.ndarray]:
        if self._missing["time"]:
            raise MissingValue("time/event missing for at least one record")
        return self.time, self.event.astype(int)

    def take(self, rows) -> "Dataset":
        """Sub-dataset of the given row indices, in that order, repeats allowed.

        Rows of a validated dataset are valid, so only the one table-level
        rule that a subset can break is checked: a trial subject remains. A
        float column with no value (all NaN) is not gathered, and where each
        float column is full or empty, so is the sub-dataset's.
        """
        rows = np.asarray(rows, dtype=np.intp)
        n, missing = len(rows), self._missing
        sub = object.__new__(Dataset)
        columns = vars(sub)
        columns.update(covariate_names=self.covariate_names, outcome_kind=self.outcome_kind)
        for name in _COLUMNS:
            col = getattr(self, name)
            if missing.get(name) == len(col):
                col = col if n == len(col) else np.full(n, np.nan)
            else:
                col = col.take(rows, axis=0)
            col.flags.writeable = False
            columns[name] = col
        if {0, len(self)}.issuperset(missing.values()):
            columns["_missing"] = {name: n if k else 0 for name, k in missing.items()}
        if not np.count_nonzero(sub.trial):
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
    """Published-only external data: covariate means plus an outcome summary.
    Each field declares its check, whose failure is SchemaViolation ("aggregate n ...")."""

    covariate_names: tuple[str, ...] = setting(
        "a list of distinct strings", lambda v: isinstance(v, (list, tuple))
        and all(isinstance(c, str) for c in v) and len(set(v)) == len(v), tuple)
    covariate_means: tuple[float, ...] = setting("a list", lambda v: isinstance(v, (list, tuple)))
    n: int = setting("a positive integer", lambda v: is_int(v) and v > 0)
    outcome_kind: OutcomeKind = setting("an OutcomeKind", lambda v: isinstance(v, OutcomeKind))
    outcome_summary: dict = setting(
        "an object of finite numbers",
        lambda v: isinstance(v, dict) and all(map(is_number, v.values())), default_factory=dict)

    def __post_init__(self):
        check_settings(self, "aggregate ", SchemaViolation)
        if len(self.covariate_names) != len(self.covariate_means):
            raise SchemaViolation("covariate names/means length mismatch")
        for name, mean in zip(self.covariate_names, self.covariate_means):
            if not is_number(mean):
                raise SchemaViolation(f"covariate {name!r} mean must be a finite number, "
                                      f"got {mean!r}")
        object.__setattr__(self, "covariate_means", tuple(map(float, self.covariate_means)))
        summary = self.outcome_summary
        if self.outcome_kind is OutcomeKind.BINARY:
            x0 = summary.get("responders")
            if not is_count(x0):
                raise SchemaViolation(
                    f"binary aggregate outcome needs responders, an integer >= 0, got {x0!r}")
            if x0 > self.n:
                raise ResponderCountExceedsN(f"responders {x0} > n {self.n}")
        elif self.outcome_kind is OutcomeKind.CONTINUOUS:
            if "mean" not in summary:
                raise SchemaViolation("continuous aggregate outcome needs a mean")
            if summary.get("sd", 0.0) < 0:
                raise SchemaViolation("aggregate sd must be >= 0")
        elif not 0.0 <= summary.get("survival", 0.0) <= 1.0:
            raise ProportionOutOfRange(f"survival probability {summary['survival']} outside [0,1]")

    def matched_covariates(self, trial: Dataset, covariates=None) -> tuple[str, ...]:
        """``covariates``, else the trial covariates the aggregate has; MissingColumn if none."""
        if covariates is None:
            covariates = [c for c in trial.covariate_names if c in self.covariate_names]
            if not covariates:
                raise MissingColumn("no covariate to match: the trial and the aggregate share none")
        elif not covariates:
            raise MissingColumn("no covariate to match: the covariate list is empty")
        return tuple(covariates)

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


def _parse_optional(token: str, column=None, row=None) -> float:
    """One number cell as a float, NaN for a missing token.

    A number is what NumPy's text reader reads: ``float``'s grammar less the
    digit-group underscores (``1_000``) and non-ASCII digits ``float`` allows.
    """
    token = token.strip()
    value = None
    if token.isascii() and "_" not in token:
        try:
            value = float(token)
        except ValueError:
            pass
        else:
            if math.isfinite(value):
                return value
    if token.lower() in _MISSING_TOKENS:
        return math.nan
    what = "non-numeric" if value is None else "non-finite"
    raise NonNumericCovariate(f"{what} value {token!r} in column {column!r} at row {row}",
                              row=row)


def _parse_number(token: str, column: str, row: int) -> float:
    value = _parse_optional(token, column, row)
    if math.isnan(value):
        raise MissingValue(f"missing value in column {column!r} at row {row}", row=row)
    return value


# Per-cell text clean-ups, looped in C over an object column.
_strip = np.frompyfunc(str.strip, 1, 1)
_label = np.frompyfunc(lambda cell: cell.strip().lower(), 1, 1)


def _read_columns(source, header, col_index, cov_names, optional) -> Optional[dict]:
    """The ``Dataset`` columns of the data rows in text file ``source``, in one C pass.

    None where NumPy's reader stops (at a fault, or at a row of blank cells,
    which it does not skip), or where a group label is invalid or a
    covariate, outcome, time or event value is missing or non-finite.
    """
    present = [col_index[col] for col in optional if col is not None]
    numeric = {col_index[name] for name in cov_names}.union(present)
    dtype = [(f"f{j}", float if j in numeric else object) for j in range(len(header))]
    with warnings.catch_warnings():
        # A file of a header alone is EmptyDataset, raised by the row reader.
        warnings.filterwarnings("ignore", "loadtxt: input contained no data", UserWarning)
        try:
            table = np.loadtxt(source, dtype=dtype, delimiter=",", quotechar='"',
                               comments=None, ndmin=1)
        except ValueError:
            return None

    def column(name):
        return None if name is None else table[f"f{col_index[name]}"]

    labels = column("group")
    trial, external = labels == "trial", labels == "external"
    if not (trial | external).all():  # padded or not lower-case labels, or invalid ones
        labels = _label(labels)
        trial, external = labels == "trial", labels == "external"
    X = np.stack([column(name) for name in cov_names], axis=1)
    outcome, time, event = map(column, optional)
    numbers = [col for col in (X, outcome, time, event) if col is not None]
    if not (trial | external).all() or not all(np.isfinite(col).all() for col in numbers):
        return None
    return dict(
        ids=_strip(column("id")),
        trial=trial,
        X=X,
        outcome=outcome,
        time=time,
        event=event,
    )


def _read_rows(path, records, header, col_index, cov_names, optional) -> dict:
    """The ``Dataset`` columns of CSV ``records``, read one cell at a time.

    Records whose cells are all blank are skipped, and rows are counted
    among the records kept. Raises the error of the first offending cell,
    in row order.
    """
    rows = [row for row in records if any(map(str.strip, row))]
    if not rows:
        raise EmptyDataset(f"{path}: no data rows")
    if not cov_names:
        raise MissingColumn(f"{path}: no covariate columns")
    ids, trial, X, follow_up = [], [], [], []
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaViolation(
                f"{path}: row {i} has {len(row)} cells, expected {len(header)}", row=i)
        label = row[col_index["group"]].strip().lower()
        if label not in _GROUP_LABELS:
            raise UnknownGroupLabel(f"{path}: unknown group label {label!r} at row {i}", row=i)
        X.append([_parse_number(row[col_index[name]], name, i) for name in cov_names])
        outcome, time, event = [
            math.nan if col is None else _parse_optional(row[col_index[col]], col, i)
            for col in optional
        ]
        rid = row[col_index["id"]].strip()
        _check_follow_up(rid, time, event, i)
        ids.append(rid)
        trial.append(label == "trial")
        follow_up.append((outcome, time, event))
    outcome, time, event = np.array(follow_up).T
    return dict(ids=ids, trial=trial, X=np.array(X), outcome=outcome, time=time, event=event)


def load_dataset(path) -> Dataset:
    """Load and validate an individual-level CSV file.

    Columns are found by header name. ``id`` and ``group`` are required;
    ``outcome``, ``time`` and ``event`` are read when present; every other
    column is a covariate, in header order. The outcome kind is inferred
    from the values. Returns the validated dataset in file row order.

    A file is read by one of two readers. A complete file (no blank row, no
    fault, and every outcome, time and event cell present and finite) is
    parsed in one C pass (``np.loadtxt``), with no per-cell Python. Any
    other file is read again from its first data row by a ``csv.reader``
    row reader, which skips blank records, parses each cell in Python and
    raises the error of the first offending cell.
    """
    path = Path(path)
    try:
        # utf-8-sig drops the byte-order mark of a spreadsheet's UTF-8 export.
        with path.open(newline="", encoding="utf-8-sig") as fh:
            # Read by ``readline``, which leaves ``tell`` working.
            header = next(csv.reader(iter(fh.readline, "")), None)
            if header is None:
                raise EmptyDataset(f"{path}: file is empty")
            header = [h.strip() for h in header]
            for required in ("id", "group"):
                if required not in header:
                    raise MissingColumn(f"{path}: required column {required!r} not found")
            # Where a name repeats, its first column is the one read.
            col_index = {name: header.index(name) for name in header}
            cov_names = [h for h in header if h not in ROLE_COLUMNS]
            # Outcome, time and event columns present in the file, else None.
            optional = [col if col in header else None for col in ("outcome", "time", "event")]

            body, columns = fh.tell(), None
            if cov_names:
                columns = _read_columns(fh, header, col_index, cov_names, optional)
            if columns is None or not len(columns["ids"]):
                fh.seek(body)
                columns = _read_rows(path, csv.reader(fh), header, col_index, cov_names, optional)
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read file ({exc})") from None

    return Dataset(
        tuple(cov_names),
        **columns,
        outcome_kind=_infer_outcome_kind(columns["outcome"], columns["time"]),
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


def _needs_quotes(text: str) -> bool:
    return any(ch in text for ch in ',"\r\n')


def _text_cells(column) -> list:
    """``column`` as text cells, each quoted as RFC 4180 says where it must be."""
    text = list(map(str, column.tolist() if isinstance(column, np.ndarray) else column))
    if not _needs_quotes("".join(text)):
        return text
    return ['"' + c.replace('"', '""') + '"' if _needs_quotes(c) else c for c in text]


def _float_cells(col: np.ndarray) -> list:
    """``col`` as text cells of 17 significant digits, NaN as an empty cell."""
    cells = (("%.17g\n" * len(col)) % tuple(col.tolist())).split("\n")[:-1]
    for i in np.flatnonzero(np.isnan(col)).tolist():
        cells[i] = ""
    return cells


def csv_text(header, columns) -> str:
    """CSV text of ``columns`` under ``header``, one line per row.

    A float array is written with 17 significant digits, and NaN as an empty
    cell. Any other column is written as text, and a cell holding a comma, a
    double quote, CR or LF is quoted as RFC 4180 says.
    """
    cells = [_float_cells(col) if isinstance(col, np.ndarray) and col.dtype.kind == "f"
             else _text_cells(col) for col in columns]
    lines = chain([",".join(_text_cells(header))], map(",".join, zip(*cells)))
    return "\n".join(lines) + "\n"


def save_dataset(data: Dataset, path) -> None:
    """Write a Dataset in the canonical CSV layout with ``csv_text``.

    Every value reads back bit for bit: floats have 17 significant digits,
    and a missing outcome, time or event is an empty cell.
    """
    header = ["id", "group", *data.covariate_names]
    columns = [data.ids, np.where(data.trial, "trial", "external"), *data.X.T]
    if not np.isnan(data.outcome).all():
        header.append("outcome")
        columns.append(data.outcome)
    if not np.isnan(data.time).all():
        header += ["time", "event"]
        columns += [data.time, data.event]
    Path(path).write_text(csv_text(header, columns), encoding="utf-8")


def load_aggregate(path) -> AggregateSummary:
    """Load and validate an aggregate-only external summary from JSON.

    Expected shape::

        {"n": 272,
         "covariates": {"age": 34.5, "severe": 0.75},
         "binary_covariates": ["severe"],          # optional, bounds-checked
         "outcome": {"kind": "binary", "responders": 90}}

    Continuous outcomes carry ``mean``/``sd``; survival outcomes carry
    ``horizon``/``survival``. Only the JSON shape and the binary covariates
    are checked here; ``AggregateSummary`` checks the values, and any
    DataError names the file.
    """
    path = Path(path)
    try:
        payload = json.loads(path.read_text(encoding="utf-8-sig"))
    except json.JSONDecodeError as exc:
        raise SchemaViolation(f"{path}: invalid JSON ({exc})") from None
    except (OSError, UnicodeDecodeError) as exc:
        raise DataError(f"{path}: cannot read file ({exc})") from None

    def field(block, key, ok, what, default=None):
        return checked_field(block, key, default, ok, what, f"{path}: ", SchemaViolation)

    if not isinstance(payload, dict):
        raise SchemaViolation(f"{path}: an aggregate must be a JSON object")
    for key in ("n", "covariates", "outcome"):
        if key not in payload:
            raise SchemaViolation(f"{path}: missing key {key!r}")
    covs = field(payload, "covariates", lambda v: isinstance(v, dict) and v, "a non-empty object")
    binary = field(payload, "binary_covariates",
                   lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
                   "a list of names", default=[])
    outcome = field(payload, "outcome", lambda v: isinstance(v, dict), "an object")
    kind_token = outcome.get("kind")
    try:
        kind = OutcomeKind(kind_token)
    except ValueError:
        raise SchemaViolation(f"{path}: unknown outcome kind {kind_token!r}") from None
    try:
        aggregate = AggregateSummary(
            covariate_names=tuple(covs),
            covariate_means=tuple(covs.values()),
            n=payload["n"],
            outcome_kind=kind,
            outcome_summary={k: v for k, v in outcome.items() if k != "kind"},
        )
        for name in binary:
            if name not in covs:
                raise SchemaViolation(f"binary covariate {name!r} not in covariates")
            if not 0.0 <= aggregate.mean_of(name) <= 1.0:
                raise ProportionOutOfRange(f"proportion {covs[name]} for {name!r} outside [0,1]")
    except DataError as exc:
        raise type(exc)(f"{path}: {exc}") from None
    return aggregate
