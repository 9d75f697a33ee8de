"""The output boundary: CSV tables as RFC 4180 text, reports as strict JSON."""

import csv
import io
import json
from dataclasses import dataclass

import numpy as np
import pytest

from extctrl import Dataset, cli, dataset, save_dataset
from extctrl.plan import RunArtifacts, canonical_json, csv_text, parse_plan, run_plan

# Ids and a covariate name that only load and write back intact when the
# CSV cells are quoted.
AWKWARD_IDS = ["a,1", 'q"x', "line\nbreak"]
AWKWARD_COVARIATE = "age, years"


@pytest.fixture
def awkward_csv(tmp_path):
    rng = np.random.default_rng(5)
    ids = AWKWARD_IDS + [f"s{i}" for i in range(37)]
    groups = ["trial" if i % 2 == 0 else "external" for i in range(len(ids))]
    path = tmp_path / "awkward.csv"
    with path.open("w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(["id", "group", AWKWARD_COVARIATE, "severe", "time", "event"])
        for rid, grp in zip(ids, groups):
            writer.writerow([rid, grp, repr(rng.normal(50.0, 10.0)),
                             int(rng.random() < 0.4), repr(rng.exponential(5.0)),
                             int(rng.random() < 0.7)])
    return path, ids, groups


def read_csv(path):
    with path.open(newline="", encoding="utf-8") as fh:
        return list(csv.reader(fh))


def check_weights(rows, ids, groups):
    assert rows[0] == ["id", "group", "score", "weight"]
    assert [r[0] for r in rows[1:]] == ids
    assert [r[1] for r in rows[1:]] == groups
    assert all(len(r) == 4 and float(r[2]) > 0 and float(r[3]) >= 0 for r in rows[1:])


def test_awkward_cells_round_trip_through_every_table(awkward_csv, tmp_path, capsys):
    data, ids, groups = awkward_csv
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"method": "weighting", "dataset": str(data),
                                "estimand": "ate", "horizon": 3.0}), encoding="utf-8")
    run_out, weight_out, fit_out, cmp_out = (tmp_path / d for d in ("r", "w", "p", "c"))
    assert cli.main(["--out-dir", str(run_out), "run", str(plan)]) == 0
    assert cli.main(["--out-dir", str(weight_out), "weight", str(data),
                     "--estimand", "ate"]) == 0
    assert cli.main(["--out-dir", str(fit_out), "ps-fit", str(data)]) == 0
    assert cli.main(["--out-dir", str(cmp_out), "compare", str(data),
                     "--estimand", "ate", "--horizon", "3"]) == 0

    for out in (run_out, weight_out, cmp_out):
        check_weights(read_csv(out / "weights.csv"), ids, groups)
    balance = read_csv(run_out / "balance.csv")
    assert balance[0] == ["covariate", "unweighted_smd", "weighted_smd"]
    assert [r[0] for r in balance[1:]] == [AWKWARD_COVARIATE, "severe"]
    assert all(len(r) == 3 for r in balance)
    assert read_csv(cmp_out / "balance.csv") == balance
    scores = read_csv(fit_out / "scores.csv")
    assert scores[0] == ["id", "score"]
    assert [r[0] for r in scores[1:]] == ids
    curve = read_csv(cmp_out / "curve_trial.csv")
    assert curve[0] == ["time", "survival", "at_risk"]
    assert len(curve) > 1 and all(len(r) == 3 for r in curve)
    assert all(0.0 <= float(r[1]) <= 1.0 for r in curve[1:])

    # Without --out-dir the same table, and nothing else, goes to stdout.
    assert cli.main(["weight", str(data), "--estimand", "ate"]) == 0
    stdout = capsys.readouterr().out
    assert stdout == (weight_out / "weights.csv").read_text(encoding="utf-8")
    check_weights(list(csv.reader(io.StringIO(stdout, newline=""))), ids, groups)


def test_csv_text_formats_floats_and_quotes_text():
    text = csv_text(("id", "x,y"), (["a", 'b"c'], np.array([0.1, np.nan])))
    assert text == 'id,"x,y"\na,0.10000000000000001\n"b""c",\n'
    assert csv_text(("t",), (np.array([], dtype=float),)) == "t\n"
    # Each float cell is format(v, ".17g"), and NaN an empty cell: signed
    # zero, subnormals, infinities, an all-NaN column (the score column MAIC
    # writes) and a 0-length column.
    nan = float("nan")
    for values in ([-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, float("inf"),
                    float("-inf")],
                   [nan, nan, nan],
                   [],
                   [0.1, nan, -1 / 3, 1e-7, 123456789012345678.0, nan]):
        cells = ["" if v != v else format(v, ".17g") for v in values]
        ids = [f"s{i}" for i in range(len(values))]
        assert csv_text(("v",), (np.array(values),)) == "".join(f"{c}\n" for c in ["v"] + cells)
        rows = ["id,v"] + [f"{i},{c}" for i, c in zip(ids, cells)]
        assert csv_text(("id", "v"), (ids, np.array(values))) == "\n".join(rows) + "\n"


def test_csv_text_formats_only_float_arrays_as_numbers():
    # A float array is written to 17 digits; any other column, a list of
    # floats included, is written as text (str, the shortest repr).
    assert csv_text(("v",), (np.array([1 / 3]),)) == "v\n0.33333333333333331\n"
    assert csv_text(("v",), ([1 / 3],)) == "v\n0.3333333333333333\n"


def _reference_csv(header, columns) -> str:
    """CSV text written value by value: format(v, ".17g") for a float, NaN
    as an empty cell, and RFC 4180 quoting for text."""
    def cell(v):
        if isinstance(v, float):
            return "" if v != v else format(v, ".17g")
        text = str(v)
        return '"' + text.replace('"', '""') + '"' if any(c in text for c in ',"\r\n') else text

    rows = zip(*(c.tolist() if isinstance(c, np.ndarray) else c for c in columns))
    return "".join(",".join(map(cell, row)) + "\n" for row in [header, *rows])


def _long_table():
    """A table of more than two row blocks: text that needs quotes, a float
    column with no NaN and one with NaN, both holding -0, infinities and
    subnormals."""
    n = 2 * dataset._BLOCK_ROWS + 3
    rng = np.random.default_rng(11)
    ids = [f"s{i}" for i in range(n)]
    for i, awkward in zip((0, 5000, n - 1), ("a,1", 'q"x', "line\r\nbreak")):
        ids[i] = awkward
    special = [-0.0, 0.0, 5e-324, 2.2250738585072014e-308, 1e308, np.inf, -np.inf, 1 / 3]
    clean = rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, size=n)
    clean[::997][:len(special)] = special
    holes = rng.standard_normal(n)
    holes[1::1013][:len(special)] = special
    holes[rng.random(n) < 0.1] = np.nan
    groups = np.where(rng.random(n) < 0.5, "trial", "external")
    return ("id", "group", "x,clean", "holes"), (ids, groups, clean, holes)


@pytest.mark.parametrize("rows", [0, 1, None])
def test_csv_text_matches_a_value_by_value_writer_across_row_blocks(rows):
    header, columns = _long_table()
    columns = [c[:rows] for c in columns]
    assert csv_text(header, columns) == _reference_csv(header, columns)


def test_run_artifacts_write_the_bytes_of_csv_text(tmp_path):
    # A hand-built table of several row blocks, and the tables of a weighting
    # plan whose balance.csv holds an undefined SMD (a constant covariate).
    header, columns = _long_table()
    RunArtifacts({}, {"long.csv": (header, columns)}).write(tmp_path / "long")
    assert (tmp_path / "long" / "long.csv").read_bytes() == csv_text(header, columns).encode()

    rng = np.random.default_rng(4)
    n = 200
    X = np.column_stack([rng.standard_normal(n), np.ones(n)])
    data = Dataset(("x", "const"), ids=AWKWARD_IDS + [f"s{i}" for i in range(n - 3)],
                   trial=rng.random(n) < 0.5, X=X, time=rng.exponential(5.0, n),
                   event=(rng.random(n) < 0.7).astype(float))
    save_dataset(data, tmp_path / "d.csv")
    artifacts = run_plan(parse_plan({"method": "weighting", "dataset": str(tmp_path / "d.csv"),
                                     "estimand": "ato", "horizon": 3.0}))
    artifacts.write(tmp_path / "run")
    assert set(artifacts.tables) == {"weights.csv", "balance.csv"}
    for name, (header, columns) in artifacts.tables.items():
        assert (tmp_path / "run" / name).read_bytes() == csv_text(header, columns).encode()
    assert read_csv(tmp_path / "run" / "balance.csv")[2] == ["const", "", ""]


# Dataclasses are written field by field, so their field names are the output
# keys; these are the keys the reports have always carried.
POSITIVITY_KEYS = ["band", "external_range", "insufficient_overlap", "n_outside_external",
                   "n_outside_trial", "overlap_interval", "prop_outside_external",
                   "prop_outside_trial", "trial_range"]
BALANCE_KEYS = ["ess_external", "ess_trial", "imbalance", "max_abs_weighted_smd", "rows",
                "threshold", "undefined_covariates"]
BALANCE_ROW_KEYS = ["covariate", "unweighted_smd", "weighted_smd"]
# The design block of a weighting plan run on data without outcomes; its
# weights block is what extctrl weight writes to ess.json.
DESIGN_KEYS = ["balance", "coefficients", "positivity", "weighted_prevalence", "weights"]
ESS_KEYS = ["ess_external", "ess_trial", "estimand", "n_zero_weight"]
CHECKLIST_KEYS = ["caveats", "items", "status"]
TRUTH_KEYS = ["atc", "ate", "att", "mc_se", "scale"]


def test_report_key_sets_are_pinned(awkward_csv, tmp_path, capsys):
    data, _, _ = awkward_csv
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"method": "weighting", "dataset": str(data),
                                "estimand": "ato", "horizon": 3.0}), encoding="utf-8")
    assert cli.main(["--out-dir", str(tmp_path / "r"), "run", str(plan)]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text(encoding="utf-8"))
    diagnostics = report["effect"]["diagnostics"]
    assert sorted(diagnostics["positivity"]) == POSITIVITY_KEYS
    assert sorted(diagnostics["balance"]) == BALANCE_KEYS
    assert all(sorted(r) == BALANCE_ROW_KEYS for r in diagnostics["balance"]["rows"])
    assert sorted(report["checklist"]) == CHECKLIST_KEYS

    assert cli.main(["balance", str(data), "--estimand", "ate"]) == 0
    assert sorted(json.loads(capsys.readouterr().out)["balance"]) == BALANCE_KEYS
    assert cli.main(["--out-dir", str(tmp_path / "p"), "ps-fit", str(data)]) == 0
    fit = json.loads((tmp_path / "p" / "positivity.json").read_text(encoding="utf-8"))
    assert sorted(fit["positivity"]) == POSITIVITY_KEYS

    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps({
        "n_trial": 30, "n_external": 30,
        "covariates": [{"name": "severe", "kind": "binary", "p": 0.4}],
        "assignment": [0.0, -1.0], "outcome_kind": "binary",
        "outcome_coefficients": [-0.5, 1.0], "effect": 0.1, "seed": 3,
    }), encoding="utf-8")
    assert cli.main(["simulate", "--scenario", str(scenario),
                     "--out", str(tmp_path / "sim.csv")]) == 0
    truth = json.loads((tmp_path / "sim.truth.json").read_text(encoding="utf-8"))
    assert sorted(truth["truth"]) == TRUTH_KEYS


def test_design_report_key_sets_are_pinned(awkward_csv, tmp_path):
    data, _, _ = awkward_csv
    # The same subjects with the time and event columns cut off.
    design = tmp_path / "design.csv"
    with design.open("w", newline="", encoding="utf-8") as fh:
        csv.writer(fh).writerows(row[:4] for row in read_csv(data))
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"method": "weighting", "dataset": str(design),
                                "estimand": "ato"}), encoding="utf-8")
    assert cli.main(["--out-dir", str(tmp_path / "r"), "run", str(plan)]) == 0
    report = json.loads((tmp_path / "r" / "report.json").read_text(encoding="utf-8"))
    assert sorted(report["design"]) == DESIGN_KEYS
    assert sorted(report["design"]["positivity"]) == POSITIVITY_KEYS
    assert sorted(report["design"]["balance"]) == BALANCE_KEYS
    assert sorted(report["design"]["weights"]) == ESS_KEYS

    assert cli.main(["--out-dir", str(tmp_path / "w"), "weight", str(data),
                     "--estimand", "ato"]) == 0
    ess = json.loads((tmp_path / "w" / "ess.json").read_text(encoding="utf-8"))
    assert sorted(ess) == sorted(ESS_KEYS + ["plan_hash"])


def test_canonical_json_writes_nested_dataclasses_by_field():
    @dataclass(frozen=True)
    class Inner:
        x: float
        tag: tuple

    @dataclass(frozen=True)
    class Outer:
        rows: tuple
        note: object = None

    payload = {"o": Outer(rows=(Inner(np.float64(0.5), ("a",)),), note=float("inf"))}
    assert canonical_json(payload) == '{"o":{"note":null,"rows":[{"tag":["a"],"x":0.5}]}}'
