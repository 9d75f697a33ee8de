"""The plan runner: one analysis object per method gives the report's point
and every bootstrap replicate, and the report keeps each method's provenance."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extctrl import MaicAnalysis, StcAnalysis, WeightingAnalysis, estimators, maic, stc
from extctrl import plan as planmod
from extctrl.glm import fit_logistic
from extctrl.inference import bootstrap_ci
from extctrl.diagnostics import CHECKLIST_FIELDS
from extctrl.errors import ExtCtrlError, PlanInvalid, PositivityHardFail
from extctrl.plan import canonical_json, parse_plan, plan_hash, run_plan


@pytest.fixture
def inputs(tmp_path):
    """Binary, continuous and survival CSVs on covariates (age, severe), and
    binary, continuous and survival aggregates that list them as (severe, age)."""
    rng = np.random.default_rng(23)
    n = 80
    trial = np.arange(n) % 2 == 0
    age = rng.normal(50.0, 8.0, size=n)
    severe = (rng.random(n) < np.where(trial, 0.35, 0.6)).astype(int)
    binary = (rng.random(n) < 0.3 + 0.3 * severe).astype(int)
    continuous = 1.0 + 0.05 * age + severe + rng.normal(size=n)
    time = rng.exponential(5.0, size=n)
    event = (rng.random(n) < 0.7).astype(int)
    group = np.where(trial, "trial", "external")
    outcomes = {"binary": {"outcome": binary}, "continuous": {"outcome": continuous},
                "survival": {"time": time, "event": event}}
    paths = {}
    for name, cols in outcomes.items():
        lines = [",".join(["id", "group", "age", "severe", *cols])]
        for i in range(n):
            lines.append(",".join([f"s{i}", group[i], repr(float(age[i])), str(severe[i]),
                                   *(repr(c[i].item()) for c in cols.values())]))
        paths[name] = tmp_path / f"{name}.csv"
        paths[name].write_text("\n".join(lines) + "\n", encoding="utf-8")
    for name, outcome in (("agg_binary", {"kind": "binary", "responders": 30}),
                          ("agg_continuous", {"kind": "continuous", "mean": 4.0, "sd": 1.5}),
                          ("agg_survival", {"kind": "survival", "survival": 0.6})):
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps({
            "n": 100, "covariates": {"severe": 0.5, "age": 51.0},
            "binary_covariates": ["severe"], "outcome": outcome}), encoding="utf-8")
    return {k: str(v) for k, v in paths.items()}


PLANS = {
    "weighting-binary": ({"method": "weighting", "dataset": "binary", "estimand": "att",
                          "scale": "or"}, WeightingAnalysis),
    "weighting-survival": ({"method": "weighting", "dataset": "survival", "estimand": "ato",
                            "horizon": 3.0}, WeightingAnalysis),
    "maic": ({"method": "maic", "dataset": "binary", "aggregate": "agg_binary"},
             MaicAnalysis),
    "stc-identity": ({"method": "stc", "dataset": "continuous",
                      "aggregate": "agg_continuous", "scale": "md"}, StcAnalysis),
    "stc-logit": ({"method": "stc", "dataset": "binary", "aggregate": "agg_binary",
                   "link": "logit"}, StcAnalysis),
}


def _plan(inputs, doc, **extra):
    doc = {k: inputs.get(v, v) if k in ("dataset", "aggregate") else v
           for k, v in doc.items()}
    return parse_plan({**doc, **extra})


@pytest.mark.parametrize("case", sorted(PLANS))
def test_report_point_is_the_bootstrapped_analysis_on_the_data(case, inputs, monkeypatch):
    doc, kind = PLANS[case]
    calls = []

    def recording_bootstrap(analysis, data, config, point=None):
        calls.append((analysis, data, point))
        return bootstrap_ci(analysis, data, config, point)

    monkeypatch.setattr(planmod, "bootstrap_ci", recording_bootstrap)
    plan = _plan(inputs, doc, seed=4, bootstrap={"replicates": 10})
    report = json.loads(canonical_json(run_plan(plan).report))
    [(analysis, data, point)] = calls
    assert isinstance(analysis, kind)
    assert point == analysis(data)
    assert report["effect"]["point"] == analysis(data)
    assert report["bootstrap"]["failures"] == 0
    # run's effect is the report's, but for the interval and the plan's provenance.
    effect = json.loads(canonical_json(analysis.run(data)[0].to_dict()))
    assert {**effect, "ci": report["effect"]["ci"], "ci_level": report["effect"]["ci_level"],
            "provenance": {**report["provenance"], **effect["provenance"]}} == report["effect"]


def test_batched_bootstrap_plan_fits_the_point_once(inputs, monkeypatch):
    # The runner hands its point to the bootstrap, and the batch refits every
    # replicate of this plan in blocks, so the one single fit is the point's.
    fits = []

    def counting_fit(X, y):
        fits.append(len(y))
        return fit_logistic(X, y)

    monkeypatch.setattr(stc, "fit_logistic", counting_fit)
    plan = _plan(inputs, PLANS["stc-logit"][0], bootstrap={"replicates": 40})
    report = run_plan(plan).report
    assert report["bootstrap"]["refits"] == 40
    assert fits == [40]


def test_maic_report_names_the_matched_covariates(inputs):
    report = run_plan(_plan(inputs, PLANS["maic"][0])).report
    assert report["provenance"]["covariates"] is None
    names = report["effect"]["provenance"]["matched_covariates"]
    assert names == ["age", "severe"]
    achieved = dict(zip(names, report["maic"]["achieved_means"]))
    assert achieved == pytest.approx({"severe": 0.5, "age": 51.0}, abs=1e-9)
    assert report["effect"]["provenance"]["plan_hash"] == report["provenance"]["plan_hash"]


def test_stc_report_names_the_resolved_covariates_and_link(inputs):
    report = run_plan(_plan(inputs, PLANS["stc-logit"][0])).report
    assert report["provenance"]["covariates"] is None
    effect = report["effect"]["provenance"]
    assert effect["covariates"] == ["age", "severe"]
    assert effect["link"] == "logit"
    assert {k: v for k, v in effect.items() if k not in ("covariates", "link")} == {
        k: v for k, v in report["provenance"].items() if k != "covariates"}


def test_integer_plan_numbers_report_as_floats(inputs):
    # positivity_a, smd_threshold and horizon mean floats: written as integers
    # they report as floats, and the plan hash, over the raw plan, is all that differs.
    doc = {"method": "weighting", "dataset": inputs["survival"], "estimand": "ato"}
    texts = []
    for numbers in ({"positivity_a": 0, "smd_threshold": 1, "horizon": 3},
                    {"positivity_a": 0.0, "smd_threshold": 1.0, "horizon": 3.0}):
        report = run_plan(parse_plan({**doc, **numbers})).report
        del report["provenance"]["plan_hash"], report["effect"]["provenance"]["plan_hash"]
        texts.append(canonical_json(report))
    assert texts[0] == texts[1]
    effect = json.loads(texts[0])["effect"]
    assert '"horizon":3.0' in canonical_json(effect["group_summary"])
    assert '"band":[0.0,1.0]' in canonical_json(effect["diagnostics"]["positivity"])
    assert '"threshold":1.0' in canonical_json(effect["diagnostics"]["balance"])


# One valid value of every top-level plan key but "method".
KEY_VALUES = {"dataset": "d.csv", "aggregate": "a.json", "estimand": "att", "scale": "rd",
              "link": "identity", "covariates": ["age"], "seed": 3, "checklist": {},
              "fail_on_overlap": True, "positivity_a": 0.2, "smd_threshold": 0.3,
              "horizon": 2.0, "bootstrap": {"replicates": 10},
              "power_prior": {"x": 5, "n": 10, "x0": 4, "n0": 10, "a0": 0.5,
                              "assume_comparable": True}}


@pytest.mark.parametrize("method, analysis, own", [
    ("weighting", WeightingAnalysis, set()),
    ("maic", MaicAnalysis, {"aggregate"}),
    ("stc", StcAnalysis, {"aggregate", "link"}),
])
def test_a_method_reads_the_fields_of_its_analysis_as_plan_keys(method, analysis, own):
    fields = {f.name for f in dataclasses.fields(analysis)} - {"target"}
    reads = fields | {"dataset", "bootstrap", "seed", "checklist"} | own
    assert set(KEY_VALUES) | {"method"} == planmod._KEYS[""]
    plan = parse_plan({"method": method, **{k: KEY_VALUES[k] for k in reads}})
    assert set(plan.settings) == fields
    required = {k: KEY_VALUES[k] for k in ("dataset", "aggregate") if k in reads}
    # An aggregate outside MAIC and STC is its own error ("takes no aggregate file").
    for key in sorted(set(KEY_VALUES) - reads - {"aggregate"}):
        with pytest.raises(PlanInvalid, match=f"^method {method} reads no plan key '{key}'$"):
            parse_plan({"method": method, **required, key: KEY_VALUES[key]})


def test_an_unset_weighting_key_takes_its_analysis_default(inputs):
    report = run_plan(parse_plan({"method": "weighting", "dataset": inputs["binary"]})).report
    diagnostics = report["effect"]["diagnostics"]
    assert diagnostics["positivity"].band[0] == WeightingAnalysis.positivity_a
    assert diagnostics["balance"].threshold == WeightingAnalysis.smd_threshold
    assert report["provenance"]["estimand"] == WeightingAnalysis.estimand.label


# --- settings the inputs decide: the scale, STC's link -------------------------

def _run_cli(tmp_path, argv):
    from extctrl import cli
    out = tmp_path / "out"
    code = cli.main(["--out-dir", str(out)] + [str(a) for a in argv])
    report = json.loads((out / "report.json").read_text()) if code == 0 else None
    return code, report


def test_stc_on_binary_data_needs_no_flags(inputs, tmp_path):
    code, report = _run_cli(tmp_path, ["stc", inputs["binary"], "--target",
                                       inputs["agg_binary"]])
    assert code == 0
    assert report["effect"]["scale"] == "rd"
    assert report["effect"]["provenance"]["link"] == "logit"


@pytest.mark.parametrize("argv", [
    ["maic", "continuous", "--target", "agg_continuous"],
    ["compare", "continuous", "--estimand", "ato"],
], ids=["maic", "compare"])
def test_continuous_outcome_defaults_to_mean_difference(argv, inputs, tmp_path):
    code, report = _run_cli(tmp_path, [inputs.get(a, a) for a in argv])
    assert code == 0
    assert report["effect"]["scale"] == report["provenance"]["scale"] == "md"


def _run_plan_file(tmp_path, inputs, doc):
    from extctrl import cli
    doc = {k: inputs.get(v, v) if k in ("dataset", "aggregate") else v
           for k, v in doc.items()}
    path = tmp_path / "plan.json"
    path.write_text(json.dumps(doc), encoding="utf-8")
    return cli.main(["--out-dir", str(tmp_path / "out"), "run", str(path)])


@pytest.fixture
def no_fits(monkeypatch):
    """Fail the test if a propensity model, MAIC tilt or STC outcome model is fitted."""
    def reached(*args, **kwargs):
        raise AssertionError("a model was fitted")

    monkeypatch.setattr(estimators, "estimate_propensity", reached)
    monkeypatch.setattr(maic, "maic_weights", reached)
    monkeypatch.setattr(stc, "fit_logistic", reached)
    monkeypatch.setattr(stc, "fit_linear", reached)


@pytest.mark.parametrize("doc", [
    {"method": "weighting", "dataset": "survival", "estimand": "ato", "horizon": 3.0,
     "scale": "or"},
    {"method": "weighting", "dataset": "binary", "estimand": "att", "scale": "md"},
    {"method": "weighting", "dataset": "continuous", "estimand": "att", "scale": "rd"},
    {"method": "maic", "dataset": "binary", "aggregate": "agg_continuous"},
    {"method": "maic", "dataset": "continuous", "aggregate": "agg_binary", "scale": "md"},
    {"method": "stc", "dataset": "binary", "aggregate": "agg_continuous"},
    {"method": "stc", "dataset": "continuous", "aggregate": "agg_binary"},
    {"method": "stc", "dataset": "survival", "aggregate": "agg_binary"},
    {"method": "maic", "dataset": "survival", "aggregate": "agg_survival"},
    {"method": "stc", "dataset": "survival", "aggregate": "agg_survival"},
    {"method": "power_prior", "scale": "md", "power_prior": {
        "x": 5, "n": 10, "x0": 4, "n0": 10, "a0": 0.5, "assume_comparable": True}},
], ids=["survival-or", "binary-md", "continuous-rd", "maic-binary-vs-continuous",
        "maic-continuous-vs-binary", "stc-binary-vs-continuous",
        "stc-continuous-vs-binary", "stc-survival-vs-binary", "maic-survival",
        "stc-survival", "power-prior-md"])
def test_scale_or_outcome_mismatch_is_plan_invalid_before_any_fit(doc, inputs, tmp_path,
                                                                  no_fits, capsys):
    assert _run_plan_file(tmp_path, inputs, doc) == 2
    assert capsys.readouterr().err.startswith("error: ")


def test_stc_link_is_an_assertion_on_the_outcome(inputs, tmp_path, request):
    binary = {"method": "stc", "dataset": "binary", "aggregate": "agg_binary"}
    continuous = {"method": "stc", "dataset": "continuous", "aggregate": "agg_continuous"}
    assert _run_plan_file(tmp_path, inputs, {**binary, "link": "logit"}) == 0
    assert _run_plan_file(tmp_path, inputs, {**continuous, "link": "identity"}) == 0
    request.getfixturevalue("no_fits")
    for doc, link in ((binary, "identity"), (binary, "probit"), (continuous, "logit")):
        assert _run_plan_file(tmp_path, inputs, {**doc, "link": link}) == 2


@pytest.mark.parametrize("method", ["maic", "stc"])
@pytest.mark.parametrize("covariates", [None, []], ids=["none-shared", "empty-list"])
def test_aggregate_methods_need_a_shared_covariate(method, covariates, inputs, tmp_path,
                                                   capsys):
    aggregate = tmp_path / "agg.json"
    aggregate.write_text(json.dumps({"n": 100, "covariates": {"weight": 70.0},
                                     "outcome": {"kind": "binary", "responders": 30}}),
                         encoding="utf-8")
    doc = {"method": method, "dataset": "binary", "aggregate": str(aggregate)}
    if covariates is not None:
        doc = {**doc, "covariates": covariates, "aggregate": "agg_binary"}
    assert _run_plan_file(tmp_path, inputs, doc) == 3
    reason = "share none" if covariates is None else "the covariate list is empty"
    assert reason in capsys.readouterr().err


def test_weighting_needs_a_covariate(inputs, tmp_path, capsys):
    # An empty list once fitted an intercept-only propensity model, whose
    # equal weights give the unadjusted comparison.
    doc = {"method": "weighting", "dataset": "binary", "covariates": []}
    assert _run_plan_file(tmp_path, inputs, doc) == 3
    assert "no covariate" in capsys.readouterr().err


def test_weighting_on_constant_covariates_is_missing_column(inputs, tmp_path, capsys):
    # Every covariate constant once left an intercept-only propensity model
    # too: exit 0 with the unadjusted comparison. One constant covariate beside
    # an informative one is dropped and the plan runs.
    lines = open(inputs["binary"], encoding="utf-8").read().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    path = tmp_path / "constant.csv"
    path.write_text("\n".join([lines[0], *(",".join([*r[:3], "1", *r[4:]]) for r in rows)])
                    + "\n", encoding="utf-8")
    doc = {"method": "weighting", "dataset": str(path), "estimand": "ate"}
    assert _run_plan_file(tmp_path, inputs, {**doc, "covariates": ["severe"]}) == 3
    assert "['severe'] are constant" in capsys.readouterr().err
    assert _run_plan_file(tmp_path, inputs, {**doc, "covariates": ["severe", "age"]}) == 0
    from extctrl import cli
    assert cli.main(["ps-fit", str(path), "--covariates", "severe"]) == 3


# A value for each plan key, and the keys each method reads, its required ones first.
_integers = st.integers(-2**40, 2**40)
PLAN_VALUES = {
    "method": st.sampled_from(["weighting", "maic", "stc", "power_prior"]),
    "dataset": st.text(min_size=1, max_size=8),
    "aggregate": st.text(min_size=1, max_size=8),
    "estimand": st.sampled_from(["ate", "att", "atc", "ato", "matching", "trim:0.1", "trim:0.2"]),
    "scale": st.sampled_from(["rd", "rr", "or", "md"]),
    "link": st.sampled_from(["identity", "logit"]),
    "covariates": st.lists(st.text(max_size=6), max_size=3, unique=True),
    "seed": _integers,
    "checklist": st.dictionaries(st.sampled_from(CHECKLIST_FIELDS),
                                 st.sampled_from(["aligned", "not aligned", "unknown"])),
    "fail_on_overlap": st.booleans(),
    "positivity_a": st.floats(0.0, 0.5, exclude_max=True),
    "smd_threshold": st.floats(1e-3, 10.0),
    "horizon": st.floats(0.0, 100.0),
    "bootstrap": st.fixed_dictionaries({}, optional={
        "replicates": st.integers(2, 10_000), "level": st.floats(0.5, 0.99),
        "seed": _integers, "threads": st.integers(0, 8)}),
    "power_prior": st.fixed_dictionaries(
        {"x": st.integers(0, 50), "n": st.integers(50, 100), "x0": st.integers(0, 50),
         "n0": st.integers(50, 100), "a0": st.floats(0.0, 1.0),
         "assume_comparable": st.just(True)},
        optional={"prior": st.lists(st.floats(0.1, 10.0), min_size=2, max_size=2),
                  "level": st.floats(0.5, 0.99),
                  "sweep": st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3)}),
}
_SHARED = ["scale", "covariates", "seed", "checklist", "bootstrap"]
METHOD_KEYS = {
    "weighting": (["dataset"], _SHARED + ["estimand", "fail_on_overlap", "positivity_a",
                                          "smd_threshold", "horizon"]),
    "maic": (["dataset", "aggregate"], _SHARED),
    "stc": (["dataset", "aggregate"], _SHARED + ["link"]),
    "power_prior": (["power_prior"], ["seed", "checklist"]),
}


@st.composite
def valid_plans(draw):
    method = draw(PLAN_VALUES["method"])
    required, optional = METHOD_KEYS[method]
    keys = required + [k for k in optional if draw(st.booleans())]
    plan = {"method": method, **{k: draw(PLAN_VALUES[k]) for k in keys}}
    parse_plan(plan)
    return plan


@settings(max_examples=300, deadline=None, derandomize=True)
@given(valid_plans(), st.data())
def test_plan_hash_changes_with_any_field(plan, data):
    base = plan_hash(plan)
    key = data.draw(st.sampled_from(sorted(plan)))
    value = data.draw(PLAN_VALUES[key])
    assume(value != plan[key])
    assert plan_hash({**plan, key: value}) != base
    assert plan_hash({k: v for k, v in plan.items() if k != key}) != base


@pytest.mark.parametrize("runner", [run_plan, planmod.run_design])
def test_positivity_hard_fail_is_an_extctrl_error(runner, inputs):
    # Library code that guards a run with one `except ExtCtrlError` sees the
    # fail_on_overlap failure too, with its exit code.
    plan = parse_plan({"method": "weighting", "dataset": inputs["binary"], "estimand": "ate",
                       "fail_on_overlap": True, "positivity_a": 0.45})
    with pytest.raises(ExtCtrlError) as info:
        runner(plan)
    assert info.type is PositivityHardFail
    assert info.value.exit_code == 5
