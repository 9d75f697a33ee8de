import json

import pytest

from extctrl import cli
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

    assert run_cli(["stc", big_csv, "--target", aggregate_json,
                    "--link", "logit", "--scale", "rd"]) == 0
    payload = json.loads(capsys.readouterr().out)
    assert "effect" in payload


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


@pytest.mark.parametrize("argv", [
    ["weight", "{toy}", "--estimand", "bogus"],
    ["balance", "{toy}", "--estimand", "trim:x"],
    ["balance", "{toy}", "--estimand", "trim:0.9"],
    ["ps-fit", "{toy}", "--band", "0.7"],
    ["ps-fit", "{toy}", "--band", "-0.1"],
    ["compare", "{toy}", "--estimand", "ate:x"],
])
def test_bad_estimand_or_band_is_usage_error(argv, toy_csv, capsys):
    assert run_cli([a.format(toy=toy_csv) for a in argv]) == 2
    assert capsys.readouterr().err.startswith("error: ")


# --- compare/maic/stc are front ends to the plan runner ------------------------

FRONT_END_CASES = {
    "compare-binary": (
        ["compare", "{big}", "--estimand", "att", "--scale", "rr"],
        {"method": "weighting", "dataset": "{big}", "estimand": "att", "scale": "rr"},
    ),
    "compare-survival": (
        ["compare", "{surv}", "--estimand", "ato", "--horizon", "3"],
        {"method": "weighting", "dataset": "{surv}", "estimand": "ato", "scale": "rd",
         "horizon": 3.0},
    ),
    "maic": (
        ["maic", "{big}", "--target", "{agg}", "--covariates", "severe"],
        {"method": "maic", "dataset": "{big}", "aggregate": "{agg}", "scale": "rd",
         "covariates": ["severe"]},
    ),
    "stc": (
        ["stc", "{big}", "--target", "{agg}", "--link", "logit", "--scale", "or"],
        {"method": "stc", "dataset": "{big}", "aggregate": "{agg}", "link": "logit",
         "scale": "or"},
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
