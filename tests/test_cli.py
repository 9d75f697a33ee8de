import csv
import io
import json

import numpy as np
import pytest

from extctrl import cli, errors
from extctrl.plan import canonical_json, parse_plan, plan_hash

TOY_ROWS = [
    ("t1", "trial", 1, 1),
    ("t2", "trial", 0, 1),
    ("t3", "trial", 0, 0),
    ("t4", "trial", 0, 1),
    ("e1", "external", 1, 0),
    ("e2", "external", 1, 1),
    ("e3", "external", 1, 0),
    ("e4", "external", 0, 0),
]


@pytest.fixture
def toy_csv(tmp_path):
    lines = ["id,group,severe,outcome"]
    lines += [f"{i},{g},{s},{y}" for i, g, s, y in TOY_ROWS]
    path = tmp_path / "toy.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def big_csv(tmp_path):
    # 60 subjects with a confounded binary covariate and non-degenerate
    # outcomes, large enough for stable bootstrap refits.
    import numpy as np

    rng = np.random.default_rng(42)
    lines = ["id,group,severe,outcome"]
    for i in range(30):
        s = int(rng.random() < 0.3)
        y = int(rng.random() < 0.4 + 0.2 * s)
        lines.append(f"t{i},trial,{s},{y}")
    for i in range(30):
        s = int(rng.random() < 0.7)
        y = int(rng.random() < 0.4 + 0.2 * s)
        lines.append(f"e{i},external,{s},{y}")
    path = tmp_path / "big.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def aggregate_json(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({
        "n": 80,
        "covariates": {"severe": 0.75},
        "binary_covariates": ["severe"],
        "outcome": {"kind": "binary", "responders": 30},
    }), encoding="utf-8")
    return path


def run_cli(argv):
    return cli.main([str(a) for a in argv])


def test_ps_fit_scores_and_exit_code(toy_csv, tmp_path, capsys):
    out = tmp_path / "out"
    code = run_cli(["--out-dir", out, "ps-fit", toy_csv])
    assert code == 0
    scores = (out / "scores.csv").read_text().strip().splitlines()[1:]
    by_id = {line.split(",")[0]: float(line.split(",")[1]) for line in scores}
    assert by_id["t1"] == pytest.approx(0.25, abs=1e-9)
    assert by_id["t2"] == pytest.approx(0.75, abs=1e-9)
    payload = json.loads((out / "positivity.json").read_text())
    assert "positivity" in payload and "coefficients" in payload


def test_weight_emits_ipw_weights(toy_csv, tmp_path):
    out = tmp_path / "out"
    code = run_cli(["--out-dir", out, "weight", toy_csv, "--estimand", "ate"])
    assert code == 0
    rows = (out / "weights.csv").read_text().strip().splitlines()[1:]
    weights = {line.split(",")[0]: float(line.split(",")[3]) for line in rows}
    assert weights["t1"] == pytest.approx(4.0, abs=1e-9)
    assert weights["t2"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert weights["e1"] == pytest.approx(4.0 / 3.0, abs=1e-9)
    assert weights["e4"] == pytest.approx(4.0, abs=1e-9)
    ess = json.loads((out / "ess.json").read_text())
    assert ess["estimand"] == "ate"


def test_weight_stdout_is_only_the_csv(toy_csv, tmp_path, capsys):
    assert run_cli(["weight", toy_csv, "--estimand", "att"]) == 0
    captured = capsys.readouterr()
    rows = list(csv.reader(io.StringIO(captured.out, newline="")))
    assert len(rows) == len(TOY_ROWS) + 1
    assert all(len(r) == 4 for r in rows)
    assert [r[0] for r in rows[1:]] == [r[0] for r in TOY_ROWS]
    out = tmp_path / "out"
    assert run_cli(["--out-dir", out, "weight", toy_csv, "--estimand", "att"]) == 0
    assert captured.out == (out / "weights.csv").read_text(encoding="utf-8")
    assert captured.err == (out / "ess.json").read_text(encoding="utf-8")
    assert json.loads(captured.err)["ess_external"] == pytest.approx(12.0 / 7.0, abs=1e-9)


def test_weight_att_external_tilt(toy_csv, tmp_path):
    out = tmp_path / "out"
    run_cli(["--out-dir", out, "weight", toy_csv, "--estimand", "att"])
    rows = (out / "weights.csv").read_text().strip().splitlines()[1:]
    weights = {line.split(",")[0]: float(line.split(",")[3]) for line in rows}
    assert weights["t1"] == pytest.approx(1.0, abs=1e-9)
    assert weights["e1"] == pytest.approx(1.0 / 3.0, abs=1e-9)
    assert weights["e4"] == pytest.approx(3.0, abs=1e-9)
    ess = json.loads((out / "ess.json").read_text())
    assert ess["ess_external"] == pytest.approx(12.0 / 7.0, abs=1e-9)


def test_balance_and_compare_stdout(toy_csv, big_csv, capsys):
    assert run_cli(["balance", toy_csv, "--estimand", "ato"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert abs(payload["balance"]["rows"][0]["weighted_smd"]) < 1e-6

    assert run_cli(["compare", big_csv, "--estimand", "ate",
                    "--scale", "rd", "--bootstrap", "50", "--seed", "3"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["effect"]["scale"] == "rd"
    assert len(payload["effect"]["ci"]) == 2
    assert payload["bootstrap"]["replicates"] == 50


def test_maic_and_stc_commands(toy_csv, big_csv, aggregate_json, capsys):
    assert run_cli(["maic", toy_csv, "--target", aggregate_json,
                    "--scale", "rd"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["maic"]["achieved_means"][0] == pytest.approx(0.75, abs=1e-8)

    assert run_cli(["stc", big_csv, "--target", aggregate_json, "--scale", "rd"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "effect" in payload


@pytest.mark.parametrize("bootstrap", [[], ["--bootstrap", "20"]])
def test_stc_prediction_below_exp_range_is_zero(bootstrap, tmp_path, capsys):
    # An outcome that falls with age and an aggregate age in days, not years:
    # the linear predictor at the aggregate is far below -709.8, where
    # exp(-eta) overflows, and the predicted response rate is its limit 0.
    import numpy as np

    rng = np.random.default_rng(0)
    lines = ["id,group,age,outcome"]
    for i in range(40):
        age = 50.0 + 5.0 * rng.normal()
        lines.append(f"t{i},trial,{age:.2f},{int(rng.random() < 1 / (1 + np.exp(age - 50)))}")
    data = tmp_path / "trial.csv"
    data.write_text("\n".join(lines) + "\n", encoding="utf-8")
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"n": 80, "covariates": {"age": 100000.0},
                                  "outcome": {"kind": "binary", "responders": 30}}),
                      encoding="utf-8")
    assert run_cli(["stc", data, "--target", target, "--scale", "rd", *bootstrap]) == 0
    effect = json.loads(capsys.readouterr().out)["effect"]
    assert effect["group_summary"]["predicted_trial_outcome_in_external_population"] == 0.0
    assert effect["point"] == -30 / 80 and effect["infinite"] is False
    if bootstrap:
        assert effect["ci"] == [-30 / 80, -30 / 80]
    assert run_cli(["stc", data, "--target", target, "--scale", "or", *bootstrap]) == 0
    assert json.loads(capsys.readouterr().out)["effect"]["infinite"] is True


def test_borrow_requires_assertion(capsys):
    code = run_cli(["borrow", "--x", "52", "--n", "61",
                    "--x0", "30", "--n0", "80", "--a0", "0.5"])
    assert code == 2
    code = run_cli(["borrow", "--x", "52", "--n", "61", "--x0", "30",
                    "--n0", "80", "--a0", "0.5", "--assume-comparable",
                    "--sweep", "0,0.5,1"])
    assert code == 0
    payload = json.loads(capsys.readouterr().out)
    assert payload["posterior"]["mean"] == pytest.approx(
        (1 + 52 + 0.5 * 30) / (2 + 61 + 0.5 * 80), abs=1e-12)
    assert len(payload["sensitivity"]) == 3


def test_power_prior_plan_with_sweep_equals_borrow_sweep(tmp_path):
    flags = ["--x", "52", "--n", "61", "--x0", "30", "--n0", "80", "--a0", "0.5",
             "--assume-comparable", "--sweep", "0,0.5,1"]
    assert run_cli(["--out-dir", tmp_path / "cli", "borrow"] + flags) == 0
    # The plan borrow builds from those flags: the grid is part of its hash.
    pp = {"x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5, "prior": [1.0, 1.0], "level": 0.95,
          "sweep": [0.0, 0.5, 1.0], "assume_comparable": True}
    reports = {}
    for name, sweep in (("floats", pp["sweep"]), ("ints", [0, 0.5, 1])):
        plan = tmp_path / f"{name}.json"
        plan.write_text(json.dumps({"method": "power_prior", "power_prior": {
            **pp, "sweep": sweep}}), encoding="utf-8")
        assert run_cli(["--out-dir", tmp_path / name, "run", plan]) == 0
        reports[name] = (tmp_path / name / "report.json").read_bytes()
    assert (tmp_path / "cli" / "posterior.json").read_bytes() == reports["floats"]
    report = json.loads(reports["floats"])
    assert report["provenance"]["plan_hash"] == plan_hash(
        {"method": "power_prior", "power_prior": pp})
    assert [row["a0"] for row in report["sensitivity"]] == [0.0, 0.5, 1.0]
    assert report["sensitivity"][1] == report["posterior"]
    assert json.loads(reports["ints"])["sensitivity"] == report["sensitivity"]


def test_power_prior_plan_with_integer_numbers_equals_borrow(tmp_path, capsys):
    # a0 and the prior mean floats, so a plan that writes them as integers
    # reports the posterior of `borrow`, whose flags argparse reads as floats.
    assert run_cli(["borrow", "--x", "52", "--n", "61", "--x0", "30", "--n0", "80",
                    "--a0", "1", "--assume-comparable"]) == 0
    posterior = json.loads(capsys.readouterr().out)["posterior"]
    plan = tmp_path / "ints.json"
    plan.write_text(json.dumps({"method": "power_prior", "power_prior": {
        "x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 1, "prior": [1, 1],
        "assume_comparable": True}}), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "ints", "run", plan]) == 0
    report = json.loads((tmp_path / "ints" / "report.json").read_text(encoding="utf-8"))
    assert canonical_json(report["posterior"]) == canonical_json(posterior)
    assert '"effective_prior_n":80.0' in canonical_json(report["posterior"])


SCENARIO = {
    "n_trial": 40, "n_external": 40,
    "covariates": [{"name": "severe", "kind": "binary", "p": 0.4}],
    "assignment": [0.0, -1.0],
    "outcome_kind": "binary",
    "outcome_coefficients": [-0.5, 1.0],
    "effect": 0.1, "seed": 3,
}


def test_simulate_writes_dataset_and_truth(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--scenario", scenario, "--out", out]) == 0
    assert out.exists()
    truth = json.loads((tmp_path / "sim.truth.json").read_text())
    assert truth["truth"]["scale"] == "rd"
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "id,group,severe,outcome"
    assert len(lines) == 81


def test_json_inputs_with_a_byte_order_mark(tmp_path):
    # An editor's or a spreadsheet's UTF-8 export may start with a byte-order mark.
    scenario = tmp_path / "scenario.json"
    scenario.write_text("\ufeff" + json.dumps(SCENARIO), encoding="utf-8")
    data = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--scenario", scenario, "--out", data]) == 0
    plan = tmp_path / "plan.json"
    plan.write_text("\ufeff" + json.dumps({"method": "weighting", "dataset": str(data),
                                           "estimand": "att"}), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "out", "run", plan]) == 0


def test_exit_code_data_error(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("id,group,severe,outcome\n1,martian,1,0\n", encoding="utf-8")
    assert run_cli(["ps-fit", bad]) == 3


def test_exit_code_solver_error(tmp_path):
    lines = ["id,group,x,outcome"]
    for i in range(10):
        lines.append(f"t{i},trial,{10.0 + i},1")
        lines.append(f"e{i},external,{-10.0 - i},0")
    sep = tmp_path / "sep.csv"
    sep.write_text("\n".join(lines) + "\n", encoding="utf-8")
    assert run_cli(["ps-fit", sep]) == 4


def test_exit_code_plan_invalid(tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"method": "teleport"}), encoding="utf-8")
    assert run_cli(["run", plan]) == 2
    plan.write_text("{ not json", encoding="utf-8")
    assert run_cli(["run", plan]) == 2
    plan.write_bytes(b'{"method": "weighting", "dataset": "\xff.csv"}')  # not UTF-8
    assert run_cli(["run", plan]) == 2


def test_exit_code_positivity_hard_fail(toy_csv, tmp_path):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({
        "method": "weighting",
        "dataset": str(toy_csv),
        "estimand": "ate",
        "scale": "rd",
        "fail_on_overlap": True,
        "positivity_a": 0.45,
    }), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "o", "run", plan]) == 5
    # The overlap check runs before any weight or effect: a plan whose weights
    # would also fail still exits 5. The toy scores are 0.25 and 0.75, so
    # trimming at 0.3 leaves every subject with weight zero (exit 4).
    payload = json.loads(plan.read_text(encoding="utf-8"))
    payload["estimand"] = "trim:0.3"
    plan.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "o", "run", plan]) == 5
    payload["fail_on_overlap"] = False
    plan.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "o", "run", plan]) == 4
    # A scale the outcome does not allow ("md" on a binary outcome) is a
    # usage error, found before the propensity model is fitted.
    payload["scale"] = "md"
    plan.write_text(json.dumps(payload), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "o", "run", plan]) == 2


# The documented exit code of every error class. A class moved to another
# family, or a new class missing here, fails the test below.
EXIT_CODES = {
    "ExtCtrlError": 4,
    "DataError": 3, "MissingColumn": 3, "EmptyDataset": 3, "NonNumericCovariate": 3,
    "MissingValue": 3, "UnknownGroupLabel": 3, "SchemaViolation": 3,
    "ProportionOutOfRange": 3, "ResponderCountExceedsN": 3,
    "SolverError": 4, "ConstantResponse": 4, "RankDeficientDesign": 4,
    "SeparationDetected": 4, "NoConvergence": 4, "DegenerateScores": 4,
    "TargetOutsideSupport": 4, "CollinearCovariates": 4, "TooManyReplicateFailures": 4,
    "AllWeightsZero": 4, "ZeroDenominator": 4, "ParameterOutOfRange": 4,
    "InvalidConfig": 2, "PlanInvalid": 2, "ScaleIncompatibleWithOutcome": 2,
    "PositivityHardFail": 5,
}
ERROR_CLASSES = sorted((c for c in vars(errors).values()
                        if isinstance(c, type) and issubclass(c, errors.ExtCtrlError)),
                       key=lambda c: c.__name__)


@pytest.mark.parametrize("error", ERROR_CLASSES, ids=lambda c: c.__name__)
def test_every_error_class_exits_with_its_code(error, monkeypatch, capsys):
    def handler(args):
        raise error(f"synthetic {error.__name__}")

    monkeypatch.setitem(cli._COMMANDS, "run", handler)
    assert run_cli(["run", "plan.json"]) == EXIT_CODES[error.__name__]
    out, err = capsys.readouterr()
    assert (out, err) == ("", f"error: synthetic {error.__name__}\n")


def test_exit_code_table_names_every_error_class():
    assert sorted(EXIT_CODES) == [c.__name__ for c in ERROR_CLASSES]


def make_plan(data_csv, tmp_path, **extra):
    payload = {
        "method": "weighting",
        "dataset": str(data_csv),
        "estimand": "att",
        "scale": "rd",
        "seed": 17,
        "checklist": {
            "eligibility": "aligned",
            "endpoint_measurement": "aligned",
            "calendar_time": "aligned",
            "treatment_decision_time": "aligned",
        },
        "bootstrap": {"replicates": 40, "level": 0.95, "seed": 17},
    }
    payload.update(extra)
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path, payload


def test_run_plan_artifacts_and_determinism(big_csv, tmp_path):
    plan_path, payload = make_plan(big_csv, tmp_path)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run_cli(["--out-dir", out1, "run", plan_path]) == 0
    assert run_cli(["--out-dir", out2, "run", plan_path]) == 0
    r1 = (out1 / "report.json").read_bytes()
    r2 = (out2 / "report.json").read_bytes()
    assert r1 == r2
    assert (out1 / "weights.csv").read_bytes() == (out2 / "weights.csv").read_bytes()
    assert (out1 / "balance.csv").read_bytes() == (out2 / "balance.csv").read_bytes()

    report = json.loads(r1)
    assert report["provenance"]["plan_hash"] == plan_hash(payload)
    assert report["provenance"]["estimand"] == "att"
    assert report["checklist"]["status"] == "PASS"
    assert len(report["effect"]["ci"]) == 2


def test_run_plan_toy_att_prevalence(toy_csv, tmp_path):
    plan = tmp_path / "toyplan.json"
    plan.write_text(json.dumps({
        "method": "weighting",
        "dataset": str(toy_csv),
        "estimand": "att",
        "scale": "rd",
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["--out-dir", out, "run", plan]) == 0
    report = json.loads((out / "report.json").read_text())
    prev = report["effect"]["diagnostics"]["weighted_prevalence"]["severe"]
    assert prev[0] == pytest.approx(0.25, abs=1e-9)
    assert prev[1] == pytest.approx(0.25, abs=1e-9)


def test_plan_hash_sensitive_to_every_field(toy_csv, tmp_path):
    _, payload = make_plan(toy_csv, tmp_path)
    base = plan_hash(payload)
    mutations = [
        ("estimand", "atc"),
        ("scale", "rr"),
        ("seed", 18),
        ("dataset", "elsewhere.csv"),
        ("bootstrap", {"replicates": 41, "level": 0.95, "seed": 17}),
        ("checklist", {}),
        ("method", "maic"),
    ]
    for key, value in mutations:
        mutated = dict(payload)
        mutated[key] = value
        assert plan_hash(mutated) != base, key
    # Key order must not matter.
    reordered = {k: payload[k] for k in reversed(list(payload))}
    assert plan_hash(reordered) == base


def test_canonical_json_float_stability():
    assert canonical_json({"a": 0.1 + 0.2}) == canonical_json({"a": 0.30000000000000004})
    assert canonical_json({"b": 1.0}) == '{"b":1.0}'
    # A float is written as its shortest repr: the bytes a round to 17
    # significant digits first gave, and the same double read back. Random bit
    # patterns, then subnormals (a zero exponent field) of either sign.
    rng = np.random.default_rng(23)
    bits = rng.integers(0, 2**64, size=20_000, dtype=np.uint64)
    bits[-2_000:] &= np.uint64(0x800F_FFFF_FFFF_FFFF)
    doubles = [v for v in bits.view(np.float64) if np.isfinite(v)]
    doubles += [-0.0, 0.0, 5e-324, -5e-324, 2.2250738585072009e-308, 1.7976931348623157e308]
    for v in doubles:
        text = canonical_json([v])
        assert text == json.dumps([float(format(float(v), ".17g"))], separators=(",", ":"))
        assert np.float64(json.loads(text)[0]).tobytes() == np.float64(v).tobytes()


def test_parse_plan_validation_errors(toy_csv):
    from extctrl.errors import PlanInvalid

    with pytest.raises(PlanInvalid):
        parse_plan({"method": "maic", "dataset": str(toy_csv)})  # no aggregate
    with pytest.raises(PlanInvalid):
        parse_plan({"method": "weighting"})  # no dataset
    with pytest.raises(PlanInvalid):
        parse_plan({"method": "weighting", "dataset": "d.csv",
                    "estimand": "trim:0.9"})
    with pytest.raises(PlanInvalid):
        parse_plan({"method": "power_prior",
                    "power_prior": {"x": 52, "n": 61, "x0": 30, "n0": 80,
                                    "a0": 0.5}})  # assume_comparable missing


@pytest.mark.parametrize("plan,message", [
    ({"method": "weighting", "dataset": "b.csv", "scael": "or"}, "unknown plan key 'scael'"),
    ({"method": "weighting", "dataset": "b.csv", "bootstrap": {"sed": 4}},
     "unknown bootstrap key 'sed'"),
    ({"method": "weighting", "dataset": "b.csv", "checklist": {"calender_time": "aligned"}},
     "unknown checklist key 'calender_time'"),
    ({"method": "weighting", "dataset": "b.csv", "aggregate": "a.json"},
     "method weighting takes no aggregate file"),
    ({"method": "weighting", "dataset": "b.csv", "link": "logit"},
     "method weighting reads no plan key 'link'"),
    ({"method": "weighting", "dataset": "b.csv", "power_prior": {"x": 1}},
     "method weighting reads no plan key 'power_prior'"),
    ({"method": "maic", "dataset": "b.csv", "aggregate": "a.json", "horizon": 3},
     "method maic reads no plan key 'horizon'"),
    ({"method": "maic", "dataset": "b.csv", "aggregate": "a.json", "link": "logit"},
     "method maic reads no plan key 'link'"),
    ({"method": "stc", "dataset": "b.csv", "aggregate": "a.json", "estimand": "ato"},
     "method stc reads no plan key 'estimand'"),
    ({"method": "stc", "dataset": "b.csv", "aggregate": "a.json", "positivity_a": 0.1},
     "method stc reads no plan key 'positivity_a'"),
    ({"method": "power_prior", "smd_threshold": 0.2, "power_prior": {}},
     "method power_prior reads no plan key 'smd_threshold'"),
    ({"method": "power_prior", "fail_on_overlap": True, "power_prior": {}},
     "method power_prior reads no plan key 'fail_on_overlap'"),
    ({"method": "power_prior", "bootstrap": {"replicates": 50}, "power_prior": {}},
     "method power_prior reads no plan key 'bootstrap'"),
    ({"method": "power_prior", "dataset": "b.csv", "power_prior": {}},
     "method power_prior reads no plan key 'dataset'"),
    # A power prior's report once echoed these two into its provenance.
    ({"method": "power_prior", "scale": "or", "power_prior": {}},
     "method power_prior reads no plan key 'scale'"),
    ({"method": "power_prior", "covariates": ["x"], "power_prior": {}},
     "method power_prior reads no plan key 'covariates'"),
])
def test_plan_error_names_the_key(plan, message):
    from extctrl.errors import PlanInvalid

    with pytest.raises(PlanInvalid, match=message):
        parse_plan(plan)


def test_front_ends_emit_only_keys_their_method_reads(big_csv, survival_csv, aggregate_json,
                                                      tmp_path, monkeypatch):
    # Every flag of every front end at once, taken from cli.FRONT_ENDS: the
    # plan each builds passes parse_plan, which rejects a key its method does
    # not read, and holds the plan key of each flag and nothing else.
    plans = []
    parse = cli.planmod.parse_plan
    monkeypatch.setattr(cli.planmod, "parse_plan", lambda raw: plans.append(raw) or parse(raw))
    values = {"data": big_csv, "--target": aggregate_json, "--estimand": "ato",
              "--covariates": "severe", "--scale": "rd", "--band": "0.05", "--threshold": "0.2",
              "--bootstrap": "20", "--level": "0.9", "--seed": "3",
              "--x": "52", "--n": "61", "--x0": "30", "--n0": "80", "--a0": "0.5",
              "--prior": "2,3", "--sweep": "0,0.5,1", "--assume-comparable": None}
    survival = {"data": survival_csv, "--covariates": "x", "--horizon": "3"}
    assert set(cli.FRONT_ENDS) == {"ps-fit", "weight", "balance", "compare", "maic", "stc",
                                   "borrow"}
    for command, (_, _, flags) in cli.FRONT_ENDS.items():
        given = {**values, **survival} if "--horizon" in flags else values
        argv = [command]
        for flag in flags:
            value = given[flag]
            if flag.startswith("--"):
                argv += [flag] if value is None else [flag, value]
            else:
                argv.append(value)
        assert run_cli(["--out-dir", tmp_path / command] + argv) == 0, argv
        plan = plans.pop()
        paths = {k for k, v in plan.items() if not isinstance(v, dict)}
        paths |= {f"{k}.{name}" for k, v in plan.items() if isinstance(v, dict) for name in v}
        assert paths == {"method"} | {key for key, _ in flags.values()}, command


def test_power_prior_plan_runs(tmp_path):
    plan = tmp_path / "pp.json"
    plan.write_text(json.dumps({
        "method": "power_prior",
        "power_prior": {"x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5,
                        "assume_comparable": True},
    }), encoding="utf-8")
    out = tmp_path / "out"
    assert run_cli(["--out-dir", out, "run", plan]) == 0
    report = json.loads((out / "report.json").read_text())
    assert report["posterior"]["mean"] == pytest.approx(
        (1 + 52 + 15) / (2 + 61 + 40), abs=1e-12)
    # A Beta posterior of a response rate: no covariates, the default scale.
    assert report["provenance"]["scale"] == "rd"
    assert report["provenance"]["covariates"] is None


@pytest.fixture
def survival_csv(tmp_path):
    import numpy as np

    rng = np.random.default_rng(11)
    lines = ["id,group,x,time,event"]
    for i in range(40):
        grp = "trial" if i % 2 == 0 else "external"
        lines.append(f"s{i},{grp},{rng.normal()!r},{rng.exponential(5.0)!r},"
                     f"{int(rng.random() < 0.7)}")
    path = tmp_path / "surv.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


def test_survival_plan_without_horizon_is_invalid(survival_csv, tmp_path):
    from extctrl.errors import PlanInvalid
    from extctrl.plan import run_plan

    plan_path, payload = make_plan(survival_csv, tmp_path, estimand="ate")
    del payload["bootstrap"]
    with pytest.raises(PlanInvalid):
        run_plan(parse_plan(payload))
    assert run_cli(["--out-dir", tmp_path / "o", "run", plan_path]) == 2
    payload["horizon"] = 3.0
    assert run_plan(parse_plan(payload)).report["effect"]["group_summary"]["horizon"] == 3.0


def test_compare_survival_without_horizon_is_usage_error(survival_csv, capsys):
    assert run_cli(["compare", survival_csv, "--estimand", "ate"]) == 2
    assert "horizon" in capsys.readouterr().err
    assert run_cli(["compare", survival_csv, "--estimand", "ate", "--horizon", "3"]) == 0


def test_horizon_without_time_to_event_outcome_is_usage_error(toy_csv, tmp_path, capsys):
    # Once accepted and ignored: the horizon of a weighting plan on a binary outcome.
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"method": "weighting", "dataset": str(toy_csv),
                                "estimand": "att", "horizon": 3}), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "o", "run", plan]) == 2
    assert capsys.readouterr().err.startswith("error: horizon needs a time-to-event outcome")
    assert not (tmp_path / "o").exists()
    assert run_cli(["compare", toy_csv, "--estimand", "att", "--horizon", "3"]) == 2
    assert "horizon" in capsys.readouterr().err


def test_report_json_strict_for_infinite_odds_ratio(tmp_path):
    from extctrl.plan import run_plan

    # The zero-cell odds-ratio case of the MAIC tests, run as a plan.
    data = tmp_path / "trial.csv"
    data.write_text("id,group,severe,outcome\n"
                    "a,trial,1,1\nb,trial,0,1\nc,trial,1,0\nd,trial,0,1\n", encoding="utf-8")
    target = tmp_path / "target.json"
    target.write_text(json.dumps({
        "n": 20,
        "covariates": {"severe": 0.5},
        "outcome": {"kind": "binary", "responders": 0},
    }), encoding="utf-8")
    artifacts = run_plan(parse_plan({
        "method": "maic", "dataset": str(data), "aggregate": str(target), "scale": "or",
    }))
    artifacts.write(tmp_path / "out")

    def reject(token):
        raise ValueError(f"non-standard JSON constant {token}")

    text = (tmp_path / "out" / "report.json").read_text(encoding="utf-8")
    report = json.loads(text, parse_constant=reject)
    assert report["effect"]["infinite"] is True
    assert report["effect"]["point"] is None


@pytest.mark.parametrize("plan", [
    [1, 2],
    {"method": "weighting", "dataset": "d.csv", "bootstrap": 5},
    {"method": "weighting", "dataset": "d.csv", "bootstrap": {"replicates": 2.5}},
    {"method": "weighting", "dataset": "d.csv", "covariates": "severe"},
    {"method": "weighting", "dataset": "d.csv", "positivity_a": "x"},
    {"method": "weighting", "dataset": "d.csv", "positivity_a": 0.7},
    {"method": "weighting", "dataset": "d.csv", "horizon": -1.0},
    {"method": "weighting", "dataset": "d.csv", "checklist": ["aligned"]},
    {"method": "weighting", "dataset": "d.csv", "seed": "7"},
    {"method": "weighting", "dataset": "d.csv", "smd_threshold": float("nan")},
    {"method": "weighting", "dataset": "d.csv", "smd_threshold": float("inf")},
    {"method": "weighting", "dataset": "d.csv", "smd_threshold": -1},
    {"method": "weighting", "dataset": "d.csv", "smd_threshold": 0},
    {"method": "weighting", "dataset": "d.csv", "smd_threshold": "0.1"},
    # A key the schema does not know, at the top level or in a block.
    {"method": "weighting", "dataset": "d.csv", "estimand": "att", "scael": "or"},
    {"method": "weighting", "dataset": "d.csv", "bootstrap": {"replicates": 20, "sed": 4}},
    {"method": "weighting", "dataset": "d.csv", "checklist": {"eligibilty": "aligned"}},
    {"method": "power_prior", "power_prior": {
        "x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5, "assume_comparable": True,
        "levl": 0.9}},
    # Only MAIC and STC read an aggregate.
    {"method": "weighting", "dataset": "d.csv", "aggregate": "nope.json"},
    {"method": "power_prior", "aggregate": "a.json", "power_prior": {
        "x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5, "assume_comparable": True}},
    {"method": "power_prior", "power_prior": {
        "x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5, "assume_comparable": True,
        "prior": [1]}},
    {"method": "power_prior", "power_prior": {
        "x": 70, "n": 61, "x0": 30, "n0": 80, "a0": 0.5, "assume_comparable": True}},
    {"method": "power_prior", "power_prior": {
        "x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 1.5, "assume_comparable": True}},
    {"method": "power_prior", "power_prior": {
        "x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5, "assume_comparable": True,
        "level": 1.0}},
    # Keys the method does not read, which a MAIC plan once ignored.
    {"method": "maic", "dataset": "d.csv", "aggregate": "a.json", "estimand": "ato",
     "horizon": 3, "smd_threshold": 5, "fail_on_overlap": True},
    # Only JSON true passes the comparability gate.
    *({"method": "power_prior", "power_prior": {
        "x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5, "assume_comparable": flag}}
      for flag in ("false", "no", 1)),
    # A sensitivity grid is a non-empty list of numbers in [0, 1].
    *({"method": "power_prior", "power_prior": {
        "x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5, "assume_comparable": True,
        "sweep": sweep}} for sweep in ([0, 1.5], [-0.5], [0, "x"], [0, None], [True], [], 0.5)),
])
def test_malformed_plan_is_plan_invalid(plan, tmp_path, capsys):
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(plan), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "o", "run", path]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("flags", [
    ["--prior", "1"],
    ["--prior", "1,b"],
    ["--sweep", "0,x"],
    ["--sweep", "0,1.5"],
    ["--a0", "1.5"],
    ["--level", "1"],
    ["--x", "70"],
])
def test_borrow_bad_input_is_usage_error(flags, capsys):
    args = {"--x": "52", "--n": "61", "--x0": "30", "--n0": "80", "--a0": "0.5"}
    args.update(zip(flags[::2], flags[1::2]))
    argv = ["borrow", "--assume-comparable"] + [t for kv in args.items() for t in kv]
    assert run_cli(argv) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv,code", [
    (["compare", "{dir}/nope.csv", "--estimand", "ate"], 3),
    (["maic", "{toy}", "--target", "{dir}/nope.json"], 3),
    (["simulate", "--scenario", "{dir}/nope.json", "--out", "{dir}/s.csv"], 2),
    (["simulate", "--scenario", "{dir}/malformed.json", "--out", "{dir}/s.csv"], 2),
    (["simulate", "--scenario", "{dir}/list.json", "--seed", "1", "--out", "{dir}/s.csv"], 2),
    (["simulate", "--scenario", "{dir}/rejected.json", "--out", "{dir}/s.csv"], 2),
], ids=["missing-data", "missing-target", "missing-scenario", "malformed-scenario",
        "list-scenario", "rejected-scenario"])
def test_bad_input_file_exit_code(argv, code, toy_csv, tmp_path, capsys):
    (tmp_path / "malformed.json").write_text("{ not json", encoding="utf-8")
    (tmp_path / "list.json").write_text("[1, 2]", encoding="utf-8")
    (tmp_path / "rejected.json").write_text(json.dumps(dict(SCENARIO, n_trial=0)),
                                            encoding="utf-8")
    argv = [a.format(dir=tmp_path, toy=toy_csv) for a in argv]
    assert run_cli(argv) == code
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    if "nope" in " ".join(argv):
        assert "nope." in err  # the message names the file


def test_fractional_responder_count_is_data_error(toy_csv, tmp_path, capsys):
    # 3.5 responders out of 10 was once reported as an external rate of 0.35.
    target = tmp_path / "target.json"
    target.write_text(json.dumps({"n": 10, "covariates": {"severe": 0.5},
                                  "outcome": {"kind": "binary", "responders": 3.5}}),
                      encoding="utf-8")
    assert run_cli(["maic", toy_csv, "--target", target]) == 3
    assert "responders" in capsys.readouterr().err


@pytest.mark.parametrize("change", [
    {"covariates": [{"name": "id", "kind": "binary", "p": 0.4}]},
    {"covariates": [{"name": 7, "kind": "binary", "p": 0.4}]},
    {"covariates": [{"name": "age", "kind": "continuous", "mean": "x"}]},
    {"n_trial": 2.5},
    {"n_external": "40"},
    {"seed": "x"},
    {"effect": None},
    {"assignment": [0.0, "a"]},
    {"unmeasured_confounder": 1},
], ids=["role-name", "name-number", "mean-string", "n-float", "n-string", "seed-string",
        "effect-null", "coefficient-string", "flag-number"])
def test_bad_scenario_field_is_usage_error(change, tmp_path, capsys):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(dict(SCENARIO, **change)), encoding="utf-8")
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--scenario", scenario, "--out", out]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not out.exists()



def test_unknown_scenario_key_is_usage_error(tmp_path, capsys):
    # "censoring" for "censoring_rate" once ran with no censoring at all.
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(dict(SCENARIO, outcome_kind="survival", censoring=0.5)),
                        encoding="utf-8")
    out = tmp_path / "sim.csv"
    assert run_cli(["simulate", "--scenario", scenario, "--out", out]) == 2
    assert "'censoring'" in capsys.readouterr().err
    assert not out.exists()


def test_simulate_creates_the_output_directory(tmp_path):
    scenario = tmp_path / "scenario.json"
    scenario.write_text(json.dumps(SCENARIO), encoding="utf-8")
    out = tmp_path / "new" / "nested" / "sim.csv"
    assert run_cli(["simulate", "--scenario", scenario, "--out", out]) == 0
    assert out.exists() and (out.parent / "sim.truth.json").exists()


def test_balance_creates_the_output_directory(toy_csv, tmp_path):
    out = tmp_path / "new" / "nested"
    assert run_cli(["--out-dir", out, "balance", toy_csv, "--estimand", "ate"]) == 0
    assert "balance" in json.loads((out / "balance.json").read_text(encoding="utf-8"))

@pytest.mark.parametrize("argv", [
    ["weight", "{toy}", "--estimand", "bogus"],
    ["balance", "{toy}", "--estimand", "trim:x"],
    ["balance", "{toy}", "--estimand", "trim:0.9"],
    ["ps-fit", "{toy}", "--band", "0.7"],
    ["ps-fit", "{toy}", "--band", "-0.1"],
    ["compare", "{toy}", "--estimand", "ate:x"],
    # The imbalance threshold is a finite number > 0 (plan key smd_threshold).
    ["balance", "{toy}", "--estimand", "ato", "--threshold", "nan"],
    ["balance", "{toy}", "--estimand", "ato", "--threshold", "inf"],
    ["balance", "{toy}", "--estimand", "ato", "--threshold", "-1"],
    ["balance", "{toy}", "--estimand", "ato", "--threshold", "0"],
])
def test_bad_estimand_or_band_is_usage_error(argv, toy_csv, capsys):
    assert run_cli([a.format(toy=toy_csv) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("argv", [
    ["run", "{plan}"],
    ["compare", "{big}", "--estimand", "ate", "--covariates", "severe,severe"],
    ["stc", "{big}", "--target", "{agg}", "--covariates", "severe,severe"],
    ["maic", "{big}", "--target", "{agg}", "--covariates", "severe, severe"],
    ["ps-fit", "{big}", "--covariates", "severe,severe"],
], ids=["plan", "compare", "stc", "maic", "ps-fit"])
def test_covariate_named_twice_is_usage_error(argv, big_csv, aggregate_json, tmp_path, capsys):
    # It once reached the solver and exited 4 as a rank-deficient design.
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"method": "weighting", "dataset": str(big_csv),
                                "estimand": "ate", "covariates": ["severe", "severe"]}),
                    encoding="utf-8")
    argv = [a.format(plan=plan, big=big_csv, agg=aggregate_json) for a in argv]
    assert run_cli(["--out-dir", tmp_path / "out"] + argv) == 2
    assert capsys.readouterr().err == "error: covariate 'severe' is named twice\n"


def test_seed_and_level_need_bootstrap(big_csv, capsys):
    base = ["compare", big_csv, "--estimand", "ate"]
    for flags in (["--seed", "3"], ["--level", "0.9"], ["--bootstrap", "0", "--seed", "3"]):
        assert run_cli(base + flags) == 2, flags
        assert capsys.readouterr().err == (
            "error: --seed and --level need --bootstrap B with B > 0\n")
    # --bootstrap alone gives the plan seed 0 and level 0.95, as it always has.
    assert run_cli(base + ["--bootstrap", "20"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["provenance"]["plan_hash"] == plan_hash({
        "method": "weighting", "dataset": str(big_csv), "estimand": "ate", "seed": 0,
        "bootstrap": {"replicates": 20, "level": 0.95}})


@pytest.mark.parametrize("command", [
    ["compare", "{big}", "--estimand", "ate"],
    ["maic", "{big}", "--target", "{agg}"],
    ["stc", "{big}", "--target", "{agg}", "--scale", "rd"],
])
def test_negative_bootstrap_is_usage_error(command, big_csv, aggregate_json, capsys):
    # --bootstrap 0 asks for no interval; a negative count is an error, as a
    # plan with "replicates": -1 is, not a run without an interval.
    argv = [a.format(big=big_csv, agg=aggregate_json) for a in command]
    for replicates in ("-1", "-20"):
        assert run_cli(argv + ["--bootstrap", replicates]) == 2
        assert capsys.readouterr().err == (
            f"error: --bootstrap must be an integer >= 0 (0 = no CI), got {replicates}\n")
    assert run_cli(argv + ["--bootstrap", "0"]) == 0
    report = json.loads(capsys.readouterr().out)
    assert report["effect"]["ci"] is None and "bootstrap" not in report


# --- compare/maic/stc are front ends to the plan runner ------------------------

FRONT_END_CASES = {
    "compare-binary": (
        ["compare", "{big}", "--estimand", "att", "--scale", "rr"],
        {"method": "weighting", "dataset": "{big}", "estimand": "att", "scale": "rr"},
    ),
    "compare-survival": (
        ["compare", "{surv}", "--estimand", "ato", "--horizon", "3"],
        {"method": "weighting", "dataset": "{surv}", "estimand": "ato", "horizon": 3.0},
    ),
    "maic": (
        ["maic", "{big}", "--target", "{agg}", "--covariates", "severe"],
        {"method": "maic", "dataset": "{big}", "aggregate": "{agg}",
         "covariates": ["severe"]},
    ),
    "stc": (
        ["stc", "{big}", "--target", "{agg}", "--scale", "or"],
        {"method": "stc", "dataset": "{big}", "aggregate": "{agg}", "scale": "or"},
    ),
}


@pytest.mark.parametrize("case", sorted(FRONT_END_CASES))
def test_front_end_report_equals_run(case, big_csv, survival_csv, aggregate_json, tmp_path):
    paths = {"big": str(big_csv), "surv": str(survival_csv), "agg": str(aggregate_json)}
    argv, plan = FRONT_END_CASES[case]
    argv = [a.format(**paths) for a in argv] + ["--bootstrap", "30", "--seed", "9"]
    plan = {k: v.format(**paths) if isinstance(v, str) else v for k, v in plan.items()}
    plan.update(seed=9, bootstrap={"replicates": 30, "level": 0.95})

    cli_out, run_out = tmp_path / "cli", tmp_path / "run"
    assert run_cli(["--out-dir", cli_out] + argv) == 0
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    assert run_cli(["--out-dir", run_out, "run", plan_path]) == 0

    report = (cli_out / "report.json").read_bytes()
    assert report == (run_out / "report.json").read_bytes()
    parsed = json.loads(report)
    assert parsed["provenance"]["plan_hash"] == plan_hash(plan)
    assert parsed["bootstrap"]["replicates"] == 30
    run_files = sorted(p.name for p in run_out.iterdir())
    for name in run_files:
        assert (cli_out / name).read_bytes() == (run_out / name).read_bytes()
    curves = ["curve_external.csv", "curve_trial.csv"] if case == "compare-survival" else []
    assert sorted(p.name for p in cli_out.iterdir()) == sorted(run_files + curves)
    if plan["method"] == "weighting":
        assert {"weights.csv", "balance.csv"} <= set(run_files)
        assert parsed["effect"]["diagnostics"]["balance"]["rows"]


def test_compare_survival_curves(survival_csv, tmp_path):
    out = tmp_path / "out"
    assert run_cli(["--out-dir", out, "compare", survival_csv, "--estimand", "ate",
                    "--horizon", "3"]) == 0
    report = json.loads((out / "report.json").read_text())
    trial = (out / "curve_trial.csv").read_text().splitlines()
    assert trial[0] == "time,survival,at_risk"
    times = [float(line.split(",")[0]) for line in trial[1:]]
    assert times == sorted(times)
    s_at = [float(line.split(",")[1]) for line in trial[1:] if float(line.split(",")[0]) <= 3]
    assert report["effect"]["group_summary"]["horizon"] == 3.0
    assert report["effect"]["group_summary"]["trial_survival"] == s_at[-1]


# --- the design alone: ps-fit, weight and balance, and plans without outcomes ---

@pytest.fixture
def design_csv(big_csv, tmp_path):
    """``big_csv`` with its outcome column cut off."""
    lines = big_csv.read_text(encoding="utf-8").splitlines()
    path = tmp_path / "design.csv"
    path.write_text("".join(line.rsplit(",", 1)[0] + "\n" for line in lines), encoding="utf-8")
    return path


def _design_run(plan, tmp_path):
    """The report and output directory of ``extctrl run`` on ``plan``."""
    plan_path, out = tmp_path / "plan.json", tmp_path / "run"
    tmp_path.mkdir(exist_ok=True)
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    assert run_cli(["--out-dir", out, "run", plan_path]) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8")), out


def test_weighting_plan_without_outcomes_runs_the_design(design_csv, big_csv, tmp_path):
    plan = {"method": "weighting", "dataset": str(design_csv), "estimand": "ato"}
    report, out = _design_run(plan, tmp_path)
    assert sorted(report) == ["checklist", "design", "provenance"]
    assert report["provenance"]["steps"] == ["estimand", "selection-diagnostics"]
    assert "scale" not in report["provenance"]
    assert report["provenance"]["plan_hash"] == plan_hash(plan)
    assert sorted(p.name for p in out.iterdir()) == ["balance.csv", "report.json", "weights.csv"]

    # The same plan on the data with outcomes reports the same diagnostics
    # under its effect, and writes the same tables.
    full, full_out = _design_run(dict(plan, dataset=str(big_csv)), tmp_path / "full")
    diagnostics = full["effect"]["diagnostics"]
    assert {k: report["design"][k] for k in diagnostics} == diagnostics
    assert sorted(diagnostics) == ["balance", "positivity", "weighted_prevalence"]
    for name in ("weights.csv", "balance.csv"):
        assert (out / name).read_bytes() == (full_out / name).read_bytes()


@pytest.mark.parametrize("key,value", [("scale", "rd"), ("horizon", 3.0),
                                       ("bootstrap", {"replicates": 20})])
def test_design_only_plan_rejects_what_only_a_comparison_reads(key, value, design_csv,
                                                                tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"method": "weighting", "dataset": str(design_csv),
                                "estimand": "att", key: value}), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "o", "run", plan]) == 2
    assert capsys.readouterr().err.startswith(f"error: {key} needs outcomes")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("method", ["maic", "stc"])
def test_aggregate_plan_without_outcomes_is_usage_error(method, design_csv, aggregate_json,
                                                        tmp_path, capsys):
    plan = tmp_path / "plan.json"
    plan.write_text(json.dumps({"method": method, "dataset": str(design_csv),
                                "aggregate": str(aggregate_json)}), encoding="utf-8")
    assert run_cli(["--out-dir", tmp_path / "o", "run", plan]) == 2
    assert "no outcomes" in capsys.readouterr().err


DESIGN_CASES = {
    "ps-fit": (["ps-fit", "{data}", "--band", "0.2"], {"positivity_a": 0.2}),
    "weight": (["weight", "{data}", "--estimand", "att", "--covariates", "severe"],
               {"estimand": "att", "covariates": ["severe"]}),
    "balance": (["balance", "{data}", "--estimand", "ato", "--threshold", "0.05"],
                {"estimand": "ato", "smd_threshold": 0.05}),
}


@pytest.mark.parametrize("case", sorted(DESIGN_CASES))
def test_design_front_end_equals_design_run(case, design_csv, tmp_path):
    argv, fields = DESIGN_CASES[case]
    plan = {"method": "weighting", "dataset": str(design_csv), **fields}
    cli_out = tmp_path / "cli"
    assert run_cli(["--out-dir", cli_out] + [a.format(data=design_csv) for a in argv]) == 0
    report, run_out = _design_run(plan, tmp_path)
    design, stamp = report["design"], {"plan_hash": plan_hash(plan)}
    assert report["provenance"]["plan_hash"] == stamp["plan_hash"]
    expected = {
        "ps-fit": {"positivity.json": {"positivity": design["positivity"],
                                       "coefficients": design["coefficients"], **stamp}},
        "weight": {"ess.json": {**design["weights"], **stamp}},
        "balance": {"balance.json": {"balance": design["balance"], **stamp}},
    }[case]
    for name, payload in expected.items():
        assert json.loads((cli_out / name).read_text(encoding="utf-8")) == payload
    run_weights = list(csv.reader(io.StringIO((run_out / "weights.csv").read_text())))
    if case == "weight":
        assert (cli_out / "weights.csv").read_bytes() == (run_out / "weights.csv").read_bytes()
    if case == "ps-fit":
        scores = list(csv.reader(io.StringIO((cli_out / "scores.csv").read_text())))
        assert scores == [[r[0], r[2]] for r in run_weights]
    if case == "balance":
        assert design["balance"]["threshold"] == 0.05


def test_weight_and_balance_with_the_same_flags_share_a_plan_hash(toy_csv, tmp_path):
    flags = [toy_csv, "--estimand", "att", "--covariates", "severe"]
    assert run_cli(["--out-dir", tmp_path, "weight"] + flags) == 0
    assert run_cli(["--out-dir", tmp_path, "balance"] + flags) == 0
    ess = json.loads((tmp_path / "ess.json").read_text(encoding="utf-8"))
    balance = json.loads((tmp_path / "balance.json").read_text(encoding="utf-8"))
    assert ess["plan_hash"] == balance["plan_hash"]


def test_design_with_no_weight_in_a_group_is_solver_error(toy_csv, capsys):
    # The toy scores are 0.25 and 0.75, so trimming at 0.3 leaves every
    # subject with weight zero, and the design's balance table is undefined.
    for command in ("weight", "balance"):
        assert run_cli([command, toy_csv, "--estimand", "trim:0.3"]) == 4
        assert capsys.readouterr().err.startswith("error: ")


def test_design_commands_do_not_read_the_outcome(big_csv, tmp_path, capsys):
    commands = [["ps-fit", big_csv], ["weight", big_csv, "--estimand", "att"],
                ["balance", big_csv, "--estimand", "ato"]]

    def outputs(tag):
        files = {}
        for i, argv in enumerate(commands):
            out = tmp_path / f"{tag}{i}"
            assert run_cli(["--out-dir", out] + argv) == 0
            files.update({(i, p.name): p.read_bytes() for p in out.iterdir()})
        return files

    def point():
        assert run_cli(["compare", big_csv, "--estimand", "att"]) == 0
        return json.loads(capsys.readouterr().out)["effect"]["point"]

    before, point_before = outputs("before"), point()
    # Rewrite the outcome column in place, in reverse row order.
    lines = big_csv.read_text(encoding="utf-8").splitlines()
    cells = [line.rsplit(",", 1) for line in lines[1:]]
    rows = [f"{rest},{y}" for (rest, _), (_, y) in zip(cells, reversed(cells))]
    big_csv.write_text("\n".join([lines[0]] + rows) + "\n", encoding="utf-8")
    assert point() != point_before  # the rewrite changes what a comparison reads
    assert outputs("after") == before
