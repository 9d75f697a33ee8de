import csv
import io
import json
import math
import re
import warnings

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from extctrl import dataset as dataset_module
from extctrl import (
    AggregateSummary,
    CovariateSpec,
    Dataset,
    OutcomeKind,
    ScenarioConfig,
    load_aggregate,
    load_dataset,
    save_dataset,
)
from extctrl.errors import (
    EmptyDataset,
    InvalidConfig,
    MissingColumn,
    MissingValue,
    NonNumericCovariate,
    ProportionOutOfRange,
    ResponderCountExceedsN,
    SchemaViolation,
    UnknownGroupLabel,
)

FIG2_CSV = """id,group,severe
t1,trial,1
t2,trial,0
t3,trial,0
t4,trial,0
e1,external,1
e2,external,1
e3,external,1
e4,external,0
"""


def test_load_toy_csv(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(FIG2_CSV)
    data = load_dataset(path)
    assert len(data) == 8
    assert data.covariate_names == ("severe",)
    assert data.n_trial == 4
    assert data.n_external == 4
    assert data.X[data.trial, 0].sum() == 1


def test_row_order_preserved(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(FIG2_CSV)
    data = load_dataset(path)
    assert data.ids.tolist() == ["t1", "t2", "t3", "t4", "e1", "e2", "e3", "e4"]


def test_group_labels_case_insensitive(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,group,x\na,Trial,1\nb,EXTERNAL,0\n")
    data = load_dataset(path)
    assert data.trial.tolist() == [True, False]


def test_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyDataset):
        load_dataset(path)


def test_header_only_csv(tmp_path):
    # NumPy's "input contained no data" warning does not escape.
    path = tmp_path / "hdr.csv"
    path.write_text("id,group,x\n")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(EmptyDataset):
            load_dataset(path)


def test_missing_required_column(tmp_path):
    path = tmp_path / "nogroup.csv"
    path.write_text("id,x\na,1\n")
    with pytest.raises(MissingColumn):
        load_dataset(path)


def test_na_covariate_rejected_with_row(tmp_path):
    path = tmp_path / "na.csv"
    path.write_text("id,group,x\na,trial,1\nb,external,NA\n")
    with pytest.raises(MissingValue) as exc:
        load_dataset(path)
    assert exc.value.row == 1


def test_non_numeric_covariate(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text("id,group,x\na,trial,high\nb,external,0\n")
    with pytest.raises(NonNumericCovariate):
        load_dataset(path)


@pytest.mark.parametrize("cell, error", [
    (math.nan, MissingValue), (math.inf, NonNumericCovariate), (-math.inf, NonNumericCovariate),
], ids=["nan", "inf", "-inf"])
def test_non_finite_covariate_cell_is_rejected_by_the_constructor(cell, error):
    # Unchecked, a NaN column would drop out of the propensity model unseen.
    X = [[0.0, 1.0], [1.0, 0.0], [0.5, cell], [0.2, 0.3]]
    with pytest.raises(error, match=r"^record 's2': covariate 'y' is -?(nan|inf) at row 2$") as exc:
        Dataset(("x", "y"), ids=["s0", "s1", "s2", "s3"], trial=[True, False, True, False], X=X)
    assert exc.value.row == 2


def test_unknown_group_label(tmp_path):
    path = tmp_path / "grp.csv"
    path.write_text("id,group,x\na,treated,1\n")
    with pytest.raises(UnknownGroupLabel):
        load_dataset(path)


def one_subject(**columns):
    return Dataset(("x",), ids=["a"], trial=columns.pop("trial", [True]), X=[[1.0]],
                   **columns)


def test_binary_outcome_values_checked():
    with pytest.raises(SchemaViolation):
        one_subject(outcome=[2.0], outcome_kind=OutcomeKind.BINARY)


def test_time_requires_event():
    with pytest.raises(SchemaViolation):
        one_subject(time=[3.0])


def test_negative_time_rejected():
    with pytest.raises(SchemaViolation):
        one_subject(time=[-1.0], event=[1])


def _optional(values):
    """Strategy for an optional float cell: a value, or NaN for an empty cell."""
    return st.one_of(st.just(float("nan")), values)


@st.composite
def datasets(draw):
    n = draw(st.integers(1, 12))
    p = draw(st.integers(1, 3))
    finite = st.floats(allow_nan=False, allow_infinity=False)
    trial = draw(st.lists(st.booleans(), min_size=n, max_size=n).filter(any))
    X = draw(st.lists(st.lists(finite, min_size=p, max_size=p), min_size=n, max_size=n))
    outcome = draw(st.lists(_optional(finite), min_size=n, max_size=n))
    follow_up = draw(st.lists(_optional(st.tuples(st.floats(0, 1e6), st.sampled_from([0.0, 1.0]))),
                              min_size=n, max_size=n))
    return Dataset(
        tuple(f"x{j}" for j in range(p)),
        ids=draw(st.lists(st.from_regex(r'[A-Za-z0-9_,"]{1,8}', fullmatch=True),
                          min_size=n, max_size=n)),
        trial=trial,
        X=X,
        outcome=outcome,
        time=[f if isinstance(f, float) else f[0] for f in follow_up],
        event=[f if isinstance(f, float) else f[1] for f in follow_up],
    )


@settings(max_examples=200, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(datasets())
def test_round_trip(tmp_path, data):
    path = tmp_path / "d.csv"
    save_dataset(data, path)
    again = load_dataset(path)
    assert again.covariate_names == data.covariate_names
    assert again.ids.tolist() == data.ids.tolist()
    for col in ("trial", "X"):
        assert getattr(again, col).tobytes() == getattr(data, col).tobytes()
    for col in ("outcome", "time", "event"):
        a, b = getattr(again, col), getattr(data, col)
        assert np.array_equal(np.isnan(a), np.isnan(b))
        assert a[~np.isnan(a)].tobytes() == b[~np.isnan(b)].tobytes()
    # What is read back is written as the same bytes.
    again_path = tmp_path / "again.csv"
    save_dataset(again, again_path)
    assert again_path.read_bytes() == path.read_bytes()


def aggregate_payload(**overrides):
    payload = {
        "n": 272,
        "covariates": {"age": 34.5, "severe": 0.75},
        "binary_covariates": ["severe"],
        "outcome": {"kind": "binary", "responders": 90},
    }
    payload.update(overrides)
    return payload


def test_load_aggregate_valid(tmp_path):
    path = tmp_path / "agg.json"
    path.write_text(json.dumps(aggregate_payload()))
    agg = load_aggregate(path)
    assert agg.n == 272
    assert agg.mean_of("severe") == 0.75
    assert agg.outcome_kind is OutcomeKind.BINARY


def test_aggregate_responders_exceed_n(tmp_path):
    path = tmp_path / "agg.json"
    path.write_text(json.dumps(aggregate_payload(n=5, outcome={"kind": "binary", "responders": 10})))
    with pytest.raises(ResponderCountExceedsN):
        load_aggregate(path)



def test_aggregate_field_errors_name_the_file(tmp_path):
    path = tmp_path / "agg.json"
    path.write_text(json.dumps(aggregate_payload(
        n=10, outcome={"kind": "binary", "responders": 11})))
    with pytest.raises(ResponderCountExceedsN, match=f"^{re.escape(str(path))}: responders"):
        load_aggregate(path)


@pytest.mark.parametrize("mean", [math.nan, math.inf, -math.inf, "0.5"])
def test_aggregate_mean_that_is_not_a_finite_number_is_schema_violation(mean):
    # MAIC would otherwise report a NaN target mean as collinear covariates.
    with pytest.raises(SchemaViolation, match="covariate 'age' mean must be a finite number"):
        AggregateSummary(("severe", "age"), (0.5, mean), 100, OutcomeKind.BINARY,
                         {"responders": 30})


@pytest.mark.parametrize("summary", [{}, {"sd": 1.0}, {"mean": math.nan}, {"mean": "0.5"},
                                     {"mean": 0.2, "sd": math.nan}, {"mean": 0.2, "sd": -1.0}])
def test_continuous_aggregate_needs_a_finite_mean_and_sd(summary):
    # Without a mean, outcome_value() would raise a bare KeyError only when read.
    with pytest.raises(SchemaViolation):
        AggregateSummary(("age",), (50.0,), 100, OutcomeKind.CONTINUOUS, summary)


def test_aggregate_proportion_out_of_range(tmp_path):
    path = tmp_path / "agg.json"
    payload = aggregate_payload()
    payload["covariates"]["severe"] = 1.2
    path.write_text(json.dumps(payload))
    with pytest.raises(ProportionOutOfRange):
        load_aggregate(path)


def test_aggregate_missing_key(tmp_path):
    path = tmp_path / "agg.json"
    path.write_text(json.dumps({"covariates": {"x": 1}}))
    with pytest.raises(SchemaViolation):
        load_aggregate(path)


def test_aggregate_bad_json(tmp_path):
    path = tmp_path / "agg.json"
    path.write_text("{not json")
    with pytest.raises(SchemaViolation):
        load_aggregate(path)


def test_no_trial_records_rejected():
    with pytest.raises(EmptyDataset):
        one_subject(trial=[False])


def test_first_offending_row_wins(tmp_path):
    # Errors are reported in row order, whatever column the fault is in.
    path = tmp_path / "d.csv"
    path.write_text("id,group,x,time,event\n"
                    "a,trial,1,2,1\n"
                    "b,trial,1,-1,1\n"
                    "c,trial,oops,2,1\n")
    with pytest.raises(SchemaViolation, match="'b': negative"):
        load_dataset(path)
    path.write_text("id,group,x\na,trial,1\nb,external,NA\nc,martian,1\nd,trial\n")
    with pytest.raises(MissingValue) as exc:
        load_dataset(path)
    assert exc.value.row == 1
    path.write_text("id,group,x,outcome\na,trial,1,\nb,external,0,inf\n")
    with pytest.raises(NonNumericCovariate, match="row 1"):
        load_dataset(path)


def test_rows_of_blank_cells_are_skipped(tmp_path):
    # Spreadsheet exports end a table with rows of commas; whitespace-only
    # lines and empty lines are skipped too, between rows and at the end.
    path = tmp_path / "d.csv"
    path.write_text('id,group,x,outcome\n'
                    'a,trial,1,0\n'
                    ',,,\n'
                    '   \n'
                    '"b,1",external,2,1\n'
                    '\n'
                    ' , ,"", \t\n'
                    'c,trial,3,\n'
                    ',,,\n'
                    '\t\n')
    data = load_dataset(path)
    assert data.ids.tolist() == ["a", "b,1", "c"]
    assert data.trial.tolist() == [True, False, True]
    assert data.X[:, 0].tolist() == [1.0, 2.0, 3.0]
    assert np.array_equal(data.outcome, [0.0, 1.0, np.nan], equal_nan=True)
    # A fault after a blank row is named by its row among the data rows.
    path.write_text("id,group,x\na,trial,1\n,,\nb,external,oops\n")
    with pytest.raises(NonNumericCovariate, match="at row 1"):
        load_dataset(path)


@pytest.mark.parametrize("text,ids", [
    (b'id,group,x\r\n,,\r\n"a\r\nb",trial,1\r\n\r\n"c\n\nz",external,2\r\n , ,\r\n"d",trial,"3"',
     ["a\r\nb", "c\n\nz", "d"]),
    (b'id,group,x\n"a\n,,\n",trial,1\n,,\n"b",external,2\n', ["a\n,,", "b"]),
    (b'id,group,x\r,,\r"a\rb",trial,1\r\r"c",external,2\r', ["a\rb", "c"]),
], ids=["crlf", "quoted-blank-line", "cr"])
def test_blank_rows_between_records_that_span_lines(text, ids, tmp_path):
    # A blank row stops the C pass, and the row reader reads the records: a
    # quoted line break, even one before a line of commas, stays inside its
    # cell, whatever the line ends.
    path = tmp_path / "d.csv"
    path.write_bytes(text)
    data = load_dataset(path)
    assert data.ids.tolist() == ids
    assert data.X[:, 0].tolist() == [float(i + 1) for i in range(len(ids))]


@pytest.mark.parametrize("token", ["1_000", "1_0", "\u0661", "\uff11", "\uff11.5"])
@pytest.mark.parametrize("column", ["x", "time"])
def test_underscores_and_non_ascii_digits_are_not_numbers(token, column, tmp_path):
    # float() reads these; NumPy's text reader, and so the CSV grammar, does not.
    path = tmp_path / "d.csv"
    cells = {"x": "1", "time": "2"}
    cells[column] = token
    path.write_text(f"id,group,x,time,event\na,trial,1,2,1\nb,external,{cells['x']},"
                    f"{cells['time']},0\n", encoding="utf-8")
    with pytest.raises(NonNumericCovariate, match=f"column '{column}' at row 1") as exc:
        load_dataset(path)
    assert exc.value.row == 1


SURVIVAL_CSV = ("id,group,x,time,event\n"
                "a,trial,1,2.5,1\n"
                "b,external,0,0.5,0\n"
                "c, Trial ,1,4,0\n"
                "d,EXTERNAL,0,3,1\n")


def _counting_parser(monkeypatch):
    """Count the calls of the per-cell parser of outcome, time and event cells."""
    calls = []
    parse = dataset_module._parse_optional

    def counted(*args):
        calls.append(args[0])
        return parse(*args)

    monkeypatch.setattr(dataset_module, "_parse_optional", counted)
    return calls


def test_valid_file_reads_no_cell_in_python(tmp_path, monkeypatch):
    # Present, finite outcome, time and event cells are read by NumPy alone;
    # padded and upper-case group labels are still trial and external.
    calls = _counting_parser(monkeypatch)
    path = tmp_path / "d.csv"
    path.write_text(SURVIVAL_CSV)
    data = load_dataset(path)
    assert calls == []
    assert data.trial.tolist() == [True, False, True, False]
    assert data.time.tolist() == [2.5, 0.5, 4.0, 3.0]
    assert data.event.tolist() == [1.0, 0.0, 0.0, 1.0]
    # A missing cell sends the file to the row reader, which parses each cell.
    path.write_text(SURVIVAL_CSV.replace("0.5,0", ","))
    data = load_dataset(path)
    assert calls
    assert np.isnan(data.time[1]) and np.isnan(data.event[1])


@pytest.mark.parametrize("cell,expected", [
    ("nan", math.nan), ("NaN", math.nan), ("", math.nan), ("NA", math.nan),
    (" 1.5 ", 1.5), ('"2"', 2.0),
    ("-nan", NonNumericCovariate), ("inf", NonNumericCovariate),
    ("-inf", NonNumericCovariate),
])
@pytest.mark.parametrize("column", ["outcome", "time"])
def test_outcome_and_time_cells(cell, expected, column, tmp_path):
    # Row 1's outcome, or its time and event, hold ``cell``: a missing token
    # is NaN, and a non-finite number is an error naming the row.
    cells = {"outcome": "1", "time": "3", "event": "1"}
    cells.update({"outcome": cell} if column == "outcome" else {"time": cell, "event": cell})
    path = tmp_path / "d.csv"
    path.write_text("id,group,x,outcome,time,event\na,trial,1,0,2,1\n"
                    f"b,external,0,{cells['outcome']},{cells['time']},{cells['event']}\n")
    if expected is NonNumericCovariate:
        with pytest.raises(NonNumericCovariate, match=f"column '{column}' at row 1") as exc:
            load_dataset(path)
        assert exc.value.row == 1
        return
    if column == "time" and expected == expected:
        # The event cell holds the same number, and an event is 0 or 1.
        with pytest.raises(SchemaViolation, match="event must be 0 or 1") as exc:
            load_dataset(path)
        assert exc.value.row == 1
        return
    data = load_dataset(path)
    assert np.array_equal(getattr(data, column), [0.0 if column == "outcome" else 2.0, expected],
                          equal_nan=True)
    if column == "time":
        assert np.array_equal(data.event, [1.0, math.nan], equal_nan=True)


# A trailing row of commas stops the C pass, so the row reader reads the file.
_READERS = pytest.mark.parametrize("tail", ["", ",,,,\n"], ids=["c-pass", "row-reader"])


@_READERS
@pytest.mark.parametrize("event", ["2", "-1", "1.5"])
def test_event_other_than_0_or_1_is_rejected(event, tail, tmp_path, monkeypatch):
    # A competing-risk code or a fraction is not a censoring indicator; both
    # readers name the record and its row. An event of 1.0 reads as 1.
    calls = _counting_parser(monkeypatch)
    path = tmp_path / "d.csv"
    path.write_text(SURVIVAL_CSV.replace("2.5,1", "2.5,1.0") + tail)
    assert load_dataset(path).event.tolist() == [1.0, 0.0, 0.0, 1.0]
    assert bool(calls) == bool(tail)
    path.write_text(SURVIVAL_CSV.replace("4,0", f"4,{event}") + tail)
    with pytest.raises(SchemaViolation,
                       match=f"record 'c': event must be 0 or 1, got {event} at row 2") as exc:
        load_dataset(path)
    assert exc.value.row == 2


@_READERS
def test_byte_order_mark_is_not_part_of_the_header(tail, tmp_path, monkeypatch):
    # A spreadsheet's "CSV UTF-8" export starts with a byte-order mark.
    calls = _counting_parser(monkeypatch)
    path = tmp_path / "d.csv"
    path.write_text("\ufeff" + SURVIVAL_CSV + tail, encoding="utf-8")
    data = load_dataset(path)
    assert bool(calls) == bool(tail)
    assert data.ids.tolist() == ["a", "b", "c", "d"]
    assert data.time.tolist() == [2.5, 0.5, 4.0, 3.0]


def test_aggregate_with_byte_order_mark(tmp_path):
    path = tmp_path / "agg.json"
    path.write_text("\ufeff" + json.dumps(aggregate_payload()), encoding="utf-8")
    assert load_aggregate(path).n == aggregate_payload()["n"]


# Cells for the reader property below. Each is CSV text: a padded or quoted
# cell is written as it would appear in the file.
_NUMBERS = st.one_of(
    st.floats(allow_nan=False, allow_infinity=False).map(repr),
    st.integers(-20, 20).map(str),
    st.sampled_from(["1e3", "-2.5E-1", ".5", "3.", "+4", "0007", "1e-320"]),
)
_MISSING = st.sampled_from(["", "NA", "nan", "NaN", "NULL", "None", ".", "na"])
_JUNK = st.sampled_from(["abc", "1_0", "1_000", "\u0661", "\uff11", "inf", "-Infinity",
                         "-nan", "+nan", "0x10", "1e", "1d5", "--1", "1 2", "1e999"])


def _dressed(cells):
    """``cells`` as written in a file: bare, padded with whitespace, or quoted."""
    def dress(cell, how):
        if how == "pad":
            return f" {cell}\t"
        if how == "nbsp":
            return f"\u00a0{cell} "
        if how == "quote" or any(ch in cell for ch in ',"\n'):
            return '"' + cell.replace('"', '""') + '"'
        return cell
    return st.tuples(cells, st.sampled_from(["bare", "bare", "pad", "nbsp", "quote"])).map(
        lambda pair: dress(*pair))


_IDS = _dressed(st.sampled_from(["a", "s1", "a,1", 'q"x', "line\nbreak", " pad "]))
_LABELS = ["trial", "external", "Trial", "EXTERNAL"]
_GROUPS = _dressed(st.sampled_from(_LABELS + ["martian", ""]))
_BLANK_ROWS = st.sampled_from(["", "   ", "\t", ",,,,,,,,", " , ", '"",""'])


@st.composite
def _csv_files(draw):
    """A small CSV: a header, rows of cells of every kind, and blank rows."""
    p = draw(st.integers(1, 2))
    faulty = draw(st.booleans())
    optional = draw(st.lists(st.sampled_from(["outcome", "time", "event"]), unique=True)
                    if faulty else
                    st.sampled_from([[], ["outcome"], ["time", "event"],
                                     ["outcome", "time", "event"]]))
    header = ["id", "group"] + [f"x{j}" for j in range(p)] + optional
    value = st.one_of(_NUMBERS, _MISSING, _JUNK) if faulty else _NUMBERS
    event = st.sampled_from(["0", "1", "1.0"]) if not faulty else value
    lines = [",".join(header)]
    for _ in range(draw(st.integers(0, 5))):
        if draw(st.integers(0, 5)) == 0:
            lines.append(draw(_BLANK_ROWS))
            continue
        cells = [draw(_IDS), draw(_GROUPS if faulty else _dressed(st.sampled_from(_LABELS)))]
        for name in header[2:]:
            if name == "event":
                cell = event
            elif name == "time" and not faulty:
                cell = st.floats(0, 1e6).map(repr)
            elif name in ("outcome", "time"):
                cell = st.one_of(value, _MISSING)
            else:
                cell = value
            cells.append(draw(_dressed(cell)))
        if faulty and draw(st.integers(0, 9)) == 0:
            cells.pop()
        lines.append(",".join(cells))
    return "\n".join(lines) + draw(st.sampled_from(["\n", ""]))


_REFERENCE_MISSING = {"", "na", "nan", "null", "none", "."}


def _reference_number(cell, column, row, optional):
    """A cell by float(), less underscores and non-ASCII digits; NaN if missing."""
    token = cell.strip()
    if token.lower() in _REFERENCE_MISSING:
        if optional:
            return math.nan
        raise MissingValue("missing", row=row)
    if not token.isascii() or "_" in token:
        raise NonNumericCovariate("non-numeric", row=row)
    try:
        value = float(token)
    except ValueError:
        raise NonNumericCovariate("non-numeric", row=row) from None
    if not math.isfinite(value):
        raise NonNumericCovariate("non-finite", row=row)
    return value


def _reference_load(text):
    """The columns ``load_dataset`` should return, by csv.reader and float()."""
    records = list(csv.reader(io.StringIO(text, newline="")))
    header = [h.strip() for h in records[0]]
    rows = [row for row in records[1:] if any(cell.strip() for cell in row)]
    if not rows:
        raise EmptyDataset("no data rows")
    covariates = [h for h in header if h not in ("id", "group", "outcome", "time", "event")]
    columns = {"ids": [], "trial": [], "X": [], "outcome": [], "time": [], "event": []}
    for i, row in enumerate(rows):
        if len(row) != len(header):
            raise SchemaViolation("row length", row=i)
        cell = dict(zip(header, row))
        label = cell["group"].strip().lower()
        if label not in ("trial", "external"):
            raise UnknownGroupLabel("group", row=i)
        x = [_reference_number(cell[name], name, i, False) for name in covariates]
        values = {name: _reference_number(cell[name], name, i, True) if name in cell
                  else math.nan for name in ("outcome", "time", "event")}
        if math.isnan(values["time"]) != math.isnan(values["event"]) or values["time"] < 0:
            raise SchemaViolation("follow-up", row=i)
        if not (math.isnan(values["event"]) or values["event"] in (0.0, 1.0)):
            raise SchemaViolation("event", row=i)
        columns["ids"].append(cell["id"].strip())
        columns["trial"].append(label == "trial")
        columns["X"].append(x)
        for name, v in values.items():
            columns[name].append(v)
    if not any(columns["trial"]):
        raise EmptyDataset("no trial records")
    return columns


@settings(max_examples=300, deadline=None, derandomize=True,
          suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(_csv_files())
def test_load_dataset_agrees_with_a_row_by_row_reader(tmp_path, text):
    # The C pass, the row scan and a csv.reader + float() reader written
    # here agree on every file: the same columns, or the same error and row.
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8", newline="")
    try:
        expected = _reference_load(text)
    except (EmptyDataset, MissingValue, NonNumericCovariate, SchemaViolation,
            UnknownGroupLabel) as exc:
        with pytest.raises(type(exc)) as got:
            load_dataset(path)
        assert type(got.value) is type(exc)
        assert got.value.row == exc.row
        return
    data = load_dataset(path)
    assert data.ids.tolist() == expected["ids"]
    assert data.trial.tolist() == expected["trial"]
    assert data.X.tobytes() == np.array(expected["X"], dtype=float).tobytes()
    for name in ("outcome", "time", "event"):
        assert np.array_equal(getattr(data, name), expected[name], equal_nan=True)


def test_both_readers_read_the_same_bits(tmp_path, monkeypatch):
    # One seeded file, read as it is by the C pass and, with a trailing row of
    # commas, by the row reader: every column is equal bit for bit.
    rng = np.random.default_rng(2024)
    n = 5000

    def dressed(cells):
        how = rng.integers(0, 3, size=len(cells)).tolist()
        return [c if h == 0 else f" {c}\t" if h == 1 else f'"{c}"' for c, h in zip(cells, how)]

    def numbers(values):
        return dressed(list(map(repr, values.tolist())))

    X = rng.standard_normal((n, 2)) * 10.0 ** rng.integers(-300, 300, size=(n, 2))
    X[0, 0] = 1e-320
    time = rng.exponential(5.0, size=n)
    time[1] = 1e-320
    ids = [f'"s,{i}"' if i % 3 == 0 else f" s{i}\t" if i % 3 == 1 else f"s{i}" for i in range(n)]
    groups = rng.choice(["trial", " Trial ", "EXTERNAL", '"external"'], size=n).tolist()
    events = rng.choice(["0", "1", "1.0", " 0 ", '"1"'], size=n).tolist()
    columns = [ids, groups, numbers(X[:, 0]), numbers(X[:, 1]),
               numbers(rng.standard_normal(n)), numbers(time), events]
    text = "id,group,x0,x1,outcome,time,event\n" + "".join(
        ",".join(row) + "\n" for row in zip(*columns))
    calls = _counting_parser(monkeypatch)
    path = tmp_path / "d.csv"
    path.write_text(text, encoding="utf-8")
    c_pass = load_dataset(path)
    assert calls == []
    path.write_text(text + ",,,,,,\n", encoding="utf-8")
    row_reader = load_dataset(path)
    assert calls
    assert c_pass.ids.tolist() == row_reader.ids.tolist()
    assert c_pass.ids.tolist()[:3] == ["s,0", "s1", "s2"]
    for name in ("trial", "X", "outcome", "time", "event"):
        assert getattr(c_pass, name).tobytes() == getattr(row_reader, name).tobytes(), name


def test_take_keeps_row_order_and_needs_a_trial_row():
    data = Dataset(("x", "z"), ids=["a", "b"], trial=[True, False],
                   X=[[1.0, 2.5], [0.0, -1.0]], outcome=[1.0, float("nan")],
                   time=[3.0, 0.5], event=[1.0, 0.0],
                   outcome_kind=OutcomeKind.TIME_TO_EVENT)
    sub = data.take([1, 0, 0])
    assert sub.ids.tolist() == ["b", "a", "a"]
    assert sub.trial.tolist() == [False, True, True]
    assert sub.X.tolist() == [[0.0, -1.0], [1.0, 2.5], [1.0, 2.5]]
    assert np.array_equal(sub.outcome, [float("nan"), 1.0, 1.0], equal_nan=True)
    assert sub.time.tolist() == [0.5, 3.0, 3.0]
    assert sub.event.tolist() == [0.0, 1.0, 1.0]
    assert sub.covariate_names == data.covariate_names
    assert sub.outcome_kind is OutcomeKind.TIME_TO_EVENT
    with pytest.raises(EmptyDataset):
        data.take([1])


def test_take_knows_which_rows_have_no_value():
    # A column with no value is shared, not gathered, and a sub-dataset of
    # full or empty columns inherits their missing counts; a partly missing
    # column is checked on the rows taken.
    nan = float("nan")
    data = Dataset(("x",), ids=["a", "b", "c"], trial=[True, False, True],
                   X=[[1.0], [0.0], [2.0]], outcome=[1.0, nan, 0.0],
                   outcome_kind=OutcomeKind.BINARY)
    for rows, missing in (([0, 2, 2], False), ([1, 0, 1], True), ([2, 1], True)):
        sub = data.take(rows)
        assert len(sub.time) == len(rows)
        assert np.isnan(sub.time).all() and np.isnan(sub.event).all()
        assert not sub.time.flags.writeable and not sub.event.flags.writeable
        if missing:
            with pytest.raises(MissingValue):
                sub.outcomes()
        else:
            assert sub.outcomes().tolist() == [1.0, 0.0, 0.0]
        with pytest.raises(MissingValue):
            sub.times_events()
    full = data.take([0, 2])
    assert full.take([1, 0]).time is full.time  # an empty column of the same length
    again = full.take([1, 1, 0])
    assert again.outcomes().tolist() == [0.0, 0.0, 1.0]
    with pytest.raises(MissingValue):
        again.times_events()


def test_covariate_matrix_is_c_contiguous_and_row_exact():
    rng = np.random.default_rng(4)
    rows = rng.normal(size=(30, 3)).tolist()
    data = Dataset(("a", "b", "c"), ids=[f"s{i}" for i in range(30)],
                   trial=[i % 3 != 0 for i in range(30)], X=rows)
    for names in (None, ("a", "b", "c"), ("c", "a"), ("b",)):
        chosen = names or data.covariate_names
        idx = [data.covariate_names.index(n) for n in chosen]
        expected = np.array([[row[j] for j in idx] for row in rows])
        got = data.covariate_matrix(names)
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected)
    with pytest.raises(ValueError):
        data.covariate_matrix()[0, 0] = 1.0  # stored columns are read-only


@pytest.mark.parametrize("name", ["id", "group", "outcome", "time", "event"])
def test_covariate_named_like_a_role_column_is_rejected(name):
    # save_dataset would write a header that load_dataset cannot read back.
    with pytest.raises(SchemaViolation):
        Dataset((name,), ids=["a"], trial=[True], X=[[1.0]])
    with pytest.raises(InvalidConfig):
        ScenarioConfig(n_trial=5, n_external=5,
                       covariates=(CovariateSpec(name, "binary", p=0.4),),
                       assignment=(0.0, 1.0), outcome_kind=OutcomeKind.BINARY,
                       outcome_coefficients=(0.0, 1.0), effect=0.1)


@pytest.mark.parametrize("change", [
    {"outcome": 5},
    {"outcome": {"kind": "binary", "responders": "3"}},
    {"outcome": {"kind": ["binary"], "responders": 3}},
    {"covariates": [34.5]},
    {"covariates": {"age": "34.5", "severe": 0.75}},
    {"binary_covariates": 5},
    {"binary_covariates": [["severe"]]},
    {"n": 2.5},
], ids=["outcome-number", "responders-string", "kind-list", "covariates-list",
        "mean-string", "binary-number", "binary-nested", "n-float"])
def test_aggregate_field_of_wrong_type_is_schema_violation(change, tmp_path):
    path = tmp_path / "agg.json"
    path.write_text(json.dumps(aggregate_payload(**change)))
    with pytest.raises(SchemaViolation):
        load_aggregate(path)
