import json

import pytest

from extctrl import (
    CsvSchema,
    Dataset,
    Group,
    OutcomeKind,
    PatientRecord,
    load_aggregate,
    load_dataset,
    save_dataset,
)
from extctrl.errors import (
    EmptyDataset,
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
    trial_severe = [r.covariates[0] for r in data.records if r.group is Group.TRIAL]
    assert sum(trial_severe) == 1


def test_row_order_preserved(tmp_path):
    path = tmp_path / "toy.csv"
    path.write_text(FIG2_CSV)
    data = load_dataset(path)
    assert [r.id for r in data.records] == ["t1", "t2", "t3", "t4", "e1", "e2", "e3", "e4"]


def test_group_labels_case_insensitive(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,group,x\na,Trial,1\nb,EXTERNAL,0\n")
    data = load_dataset(path)
    assert data.records[0].group is Group.TRIAL
    assert data.records[1].group is Group.EXTERNAL


def test_empty_csv(tmp_path):
    path = tmp_path / "empty.csv"
    path.write_text("")
    with pytest.raises(EmptyDataset):
        load_dataset(path)


def test_header_only_csv(tmp_path):
    path = tmp_path / "hdr.csv"
    path.write_text("id,group,x\n")
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


def test_unknown_group_label(tmp_path):
    path = tmp_path / "grp.csv"
    path.write_text("id,group,x\na,treated,1\n")
    with pytest.raises(UnknownGroupLabel):
        load_dataset(path)


def test_binary_outcome_values_checked():
    rec = PatientRecord("a", Group.TRIAL, (1.0,), outcome=2.0)
    with pytest.raises(SchemaViolation):
        Dataset.from_records(("x",), (rec,), OutcomeKind.BINARY)


def test_time_requires_event():
    with pytest.raises(SchemaViolation):
        PatientRecord("a", Group.TRIAL, (1.0,), time=3.0)


def test_negative_time_rejected():
    with pytest.raises(SchemaViolation):
        PatientRecord("a", Group.TRIAL, (1.0,), time=-1.0, event=1)


def test_round_trip(tmp_path):
    src = tmp_path / "src.csv"
    src.write_text(
        "id,group,x,y,outcome,time,event\n"
        "a,trial,1,0.5,1,12.5,1\n"
        "b,trial,0,1.25,0,3,0\n"
        "c,external,1,-2.75,1,8,1\n"
    )
    data = load_dataset(src)
    dst = tmp_path / "dst.csv"
    save_dataset(data, dst)
    again = load_dataset(dst)
    assert again.covariate_names == data.covariate_names
    assert again.records == data.records
    assert again.outcome_kind == data.outcome_kind


def test_schema_explicit_covariates(tmp_path):
    path = tmp_path / "d.csv"
    path.write_text("id,group,x,z,outcome\na,trial,1,9,0\nb,external,0,8,1\n")
    data = load_dataset(path, CsvSchema(covariate_cols=("x",)))
    assert data.covariate_names == ("x",)


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
    rec = PatientRecord("a", Group.EXTERNAL, (1.0,))
    with pytest.raises(EmptyDataset):
        Dataset.from_records(("x",), (rec,))


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


def test_records_view_round_trips_through_columns():
    recs = (
        PatientRecord("a", Group.TRIAL, (1.0, 2.5), outcome=1.0, time=3.0, event=1),
        PatientRecord("b", Group.EXTERNAL, (0.0, -1.0), time=0.5, event=0),
    )
    data = Dataset.from_records(("x", "z"), recs, OutcomeKind.TIME_TO_EVENT)
    assert data.records == recs
    assert data.take([1, 0, 0]).records == (recs[1], recs[0], recs[0])
    with pytest.raises(EmptyDataset):
        data.take([1])


def test_covariate_matrix_is_c_contiguous_and_row_exact():
    import numpy as np

    rng = np.random.default_rng(4)
    recs = tuple(
        PatientRecord(f"s{i}", Group.TRIAL if i % 3 else Group.EXTERNAL,
                      tuple(rng.normal(size=3).tolist()))
        for i in range(30)
    )
    data = Dataset.from_records(("a", "b", "c"), recs)
    for names in (None, ("a", "b", "c"), ("c", "a"), ("b",)):
        chosen = names or data.covariate_names
        idx = [data.covariate_names.index(n) for n in chosen]
        expected = np.array([[r.covariates[j] for j in idx] for r in recs])
        got = data.covariate_matrix(names)
        assert got.flags.c_contiguous
        assert np.array_equal(got, expected)
    with pytest.raises(ValueError):
        data.covariate_matrix()[0, 0] = 1.0  # stored columns are read-only


def test_weighting_plan_builds_no_patient_records(tmp_path, monkeypatch):
    # Guard for the columnar data path: ingest, fitting, a bootstrap and the
    # weights output must not fall back to row objects.
    import numpy as np

    from extctrl import dataset
    from extctrl.plan import parse_plan, run_plan

    rng = np.random.default_rng(9)
    lines = ["id,group,x1,x2,outcome"]
    for i in range(80):
        grp = "trial" if i % 2 else "external"
        lines.append(f"s{i},{grp},{rng.normal()!r},{int(rng.random() < 0.5)},"
                     f"{int(rng.random() < 0.4)}")
    path = tmp_path / "d.csv"
    path.write_text("\n".join(lines) + "\n")

    built = []
    original = dataset.PatientRecord.__post_init__

    def counting(self):
        built.append(self.id)
        original(self)

    monkeypatch.setattr(dataset.PatientRecord, "__post_init__", counting)
    artifacts = run_plan(parse_plan({
        "method": "weighting", "dataset": str(path), "estimand": "ate",
        "bootstrap": {"replicates": 50, "seed": 2},
    }))
    artifacts.write(tmp_path / "out")
    assert artifacts.report["bootstrap"]["refits"] == 50
    assert built == []
    Dataset.from_records(("x",), (PatientRecord("a", Group.TRIAL, (1.0,)),))
    assert built == ["a"]  # the counter does see row objects
