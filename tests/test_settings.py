"""Settings declared on their fields: one check for a library caller and a plan.

Each setting of an analysis, of ``BootstrapConfig``, of ``ScenarioConfig`` and
of ``AggregateSummary`` is a dataclass field that declares its check
(``errors.setting``). The constructor runs the checks in field order;
``plan.parse_plan`` runs the same checks on a plan's keys and re-raises a
failure as PlanInvalid with the same text, and ``load_aggregate`` names the
file in front of the constructor's text.
"""

import dataclasses
import json
import math

import numpy as np
import pytest

from conftest import make_dataset
from extctrl import (AggregateSummary, BootstrapConfig, CovariateSpec, Estimand, Group,
                     MaicAnalysis, OutcomeKind, PowerPriorAnalysis, ScenarioConfig, StcAnalysis,
                     WeightingAnalysis, balance_table, balancing_weights, cli,
                     estimate_propensity, estimators, load_aggregate, maic_weights,
                     positivity_report, power_prior_posterior, stc_estimate, survival_contrast,
                     weighted_km)
from extctrl.errors import (InvalidConfig, ParameterOutOfRange, PlanInvalid,
                            ProportionOutOfRange, ResponderCountExceedsN, SchemaViolation)
from extctrl.plan import canonical_json, parse_plan, plan_hash, run_plan

TARGET = AggregateSummary(("severe",), (0.5,), 80, OutcomeKind.BINARY, {"responders": 30})
POWER_PRIOR = {"x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 0.5}


def _plan(method, key, value):
    """A plan of ``method`` that sets ``key`` to ``value`` and is valid otherwise."""
    if method is PowerPriorAnalysis:
        return {"method": "power_prior",
                "power_prior": {**POWER_PRIOR, key: value, "assume_comparable": True}}
    if method is WeightingAnalysis:
        return {"method": "weighting", "dataset": "d.csv", key: value}
    name = "maic" if method is MaicAnalysis else "stc"
    return {"method": name, "dataset": "d.csv", "aggregate": "a.json", key: value}


def _build(method, key, value):
    required = {MaicAnalysis: {"target": TARGET}, StcAnalysis: {"target": TARGET},
                PowerPriorAnalysis: POWER_PRIOR}.get(method, {})
    return method(**{**required, key: value})


# One bad value per plan key, the same for a library caller and a plan.
BAD_VALUES = [
    (WeightingAnalysis, "covariates", "xb", "covariates must be a list of names, got 'xb'"),
    (WeightingAnalysis, "fail_on_overlap", "no", "fail_on_overlap must be true or false, got 'no'"),
    (WeightingAnalysis, "positivity_a", 0.7, "positivity_a must be in [0, 0.5), got 0.7"),
    (WeightingAnalysis, "smd_threshold", -1, "smd_threshold must be a finite number > 0, got -1"),
    (WeightingAnalysis, "horizon", -1, "horizon must be a number >= 0, got -1"),
    (MaicAnalysis, "covariates", ["x", 1], "covariates must be a list of names, got ['x', 1]"),
    (StcAnalysis, "covariates", "x", "covariates must be a list of names, got 'x'"),
    (PowerPriorAnalysis, "x", -1, "power_prior x must be an integer >= 0, got -1"),
    (PowerPriorAnalysis, "n", 6.5, "power_prior n must be an integer >= 0, got 6.5"),
    (PowerPriorAnalysis, "x0", True, "power_prior x0 must be an integer >= 0, got True"),
    (PowerPriorAnalysis, "n0", None, "power_prior n0 must be an integer >= 0, got None"),
    (PowerPriorAnalysis, "a0", True, "power_prior a0 must be in [0, 1], got True"),
    (PowerPriorAnalysis, "prior", [1], "power_prior prior must be two numbers > 0, got [1]"),
    (PowerPriorAnalysis, "level", 1, "power_prior level must be in (0, 1), got 1"),
    (PowerPriorAnalysis, "sweep", 0.5,
     "power_prior sweep must be a non-empty list of numbers in [0, 1], got 0.5"),
]

# The estimand and the scale are names in a plan, which the field's parser
# reads before the check (with the plan's own messages), and enum members
# for a library caller, so one bad value cannot reach both checks.
BAD_NAMES = [
    (WeightingAnalysis, "estimand", "att", "estimand must be an Estimand, got 'att'",
     5, "estimand must be a string, got 5"),
    (WeightingAnalysis, "estimand", "att", "estimand must be an Estimand, got 'att'",
     "atx", "bad estimand 'atx': 'atx' is not a valid EstimandKind"),
    (WeightingAnalysis, "scale", "rd", "scale must be a Scale, got 'rd'",
     "xx", "bad scale or link: 'xx' is not a valid Scale"),
    (MaicAnalysis, "scale", "rd", "scale must be a Scale, got 'rd'",
     None, "bad scale or link: None is not a valid Scale"),
    (StcAnalysis, "scale", 1, "scale must be a Scale, got 1",
     1, "bad scale or link: 1 is not a valid Scale"),
]


def test_every_settable_field_declares_its_check():
    for cls in (WeightingAnalysis, MaicAnalysis, StcAnalysis, PowerPriorAnalysis,
                BootstrapConfig, ScenarioConfig, AggregateSummary):
        for f in dataclasses.fields(cls):
            assert "check" in f.metadata, (cls.__name__, f.name)
    # Each plan key of each analysis has a bad value below.
    for cls in (WeightingAnalysis, MaicAnalysis, StcAnalysis, PowerPriorAnalysis):
        keys = {key for c, key, *_ in BAD_VALUES + BAD_NAMES if c is cls}
        assert keys == {f.name for f in dataclasses.fields(cls)} - {"target"}, cls
    for cls in (MaicAnalysis, StcAnalysis):
        with pytest.raises(ParameterOutOfRange,
                           match=r"^target must be an AggregateSummary, got 'a\.json'$"):
            cls(target="a.json")


@pytest.mark.parametrize("cls,key,value,message", BAD_VALUES,
                         ids=[f"{c.__name__}-{k}" for c, k, *_ in BAD_VALUES])
def test_a_bad_value_fails_alike_in_the_constructor_and_in_a_plan(cls, key, value, message):
    with pytest.raises(ParameterOutOfRange) as built:
        _build(cls, key, value)
    with pytest.raises(PlanInvalid) as planned:
        parse_plan(_plan(cls, key, value))
    assert str(built.value) == str(planned.value) == message


@pytest.mark.parametrize("cls,key,value,message,plan_value,plan_message", BAD_NAMES,
                         ids=[f"{c.__name__}-{k}-{p!r}" for c, k, _, _, p, _ in BAD_NAMES])
def test_a_name_setting_is_an_enum_member_in_the_library_and_a_name_in_a_plan(
        cls, key, value, message, plan_value, plan_message):
    with pytest.raises(ParameterOutOfRange) as built:
        _build(cls, key, value)
    assert str(built.value) == message
    with pytest.raises(PlanInvalid) as planned:
        parse_plan(_plan(cls, key, plan_value))
    assert str(planned.value) == plan_message


@pytest.mark.parametrize("build", [
    lambda: WeightingAnalysis(covariates="xb"),
    lambda: WeightingAnalysis(fail_on_overlap="no"),
    lambda: WeightingAnalysis(estimand="att"),
    lambda: WeightingAnalysis(scale="rd"),
    lambda: PowerPriorAnalysis(52, 61, 30, 80, 0.5, sweep=0.5),
    lambda: PowerPriorAnalysis(52, 61, 30, 80, True),
], ids=["covariates-string", "overlap-string", "estimand-name", "scale-name", "sweep-number",
        "a0-bool"])
def test_a_constructor_rejects_what_a_plan_rejects(build):
    # Each once constructed: "xb" was fitted as the covariates x and b, "no"
    # read as true, a name failed later with an AttributeError, a number
    # sweep with a TypeError, and a0=True reported "a0": true.
    with pytest.raises(ParameterOutOfRange):
        build()


def test_a_covariate_string_is_not_fitted_as_its_characters(monkeypatch):
    data = make_dataset([(0, 1), (1, 0), (1, 1), (0, 0)],
                        [Group.TRIAL] * 2 + [Group.EXTERNAL] * 2, outcomes=[1, 0, 1, 0],
                        covariate_names=("x", "b"))
    fits = []
    monkeypatch.setattr(estimators, "estimate_propensity", lambda *args: fits.append(args))
    with pytest.raises(ParameterOutOfRange, match="covariates must be a list of names"):
        WeightingAnalysis(covariates="xb")(data)
    assert fits == []


def test_a_covariate_named_twice_fails_in_every_analysis():
    for build in (lambda c: WeightingAnalysis(covariates=c),
                  lambda c: MaicAnalysis(TARGET, c), lambda c: StcAnalysis(TARGET, c)):
        with pytest.raises(ParameterOutOfRange, match="^covariate 'severe' is named twice$"):
            build(("severe", "age", "severe"))


def test_numbers_that_mean_floats_are_kept_as_floats():
    analysis = WeightingAnalysis(positivity_a=0, smd_threshold=1, horizon=3)
    assert [type(v) for v in (analysis.positivity_a, analysis.smd_threshold,
                              analysis.horizon)] == [float] * 3
    prior = PowerPriorAnalysis(5, 10, 4, 10, 1, prior=(2, 3), level=0.9, sweep=(0, 1))
    assert (prior.a0, prior.prior, prior.sweep) == (1.0, [2.0, 3.0], [0.0, 1.0])
    assert all(type(v) is float for v in (prior.a0, *prior.prior, *prior.sweep))


def test_numpy_scalars_pass_as_the_python_values_they_hold():
    analysis = WeightingAnalysis(positivity_a=np.float64(0.2), fail_on_overlap=np.True_)
    assert type(analysis.positivity_a) is float and analysis.fail_on_overlap
    prior = PowerPriorAnalysis(np.int64(5), np.int32(10), np.int64(4), np.int64(10),
                               np.float32(1))
    assert prior.a0 == 1.0 and type(prior.a0) is float


def test_a0_of_one_reports_alike_from_the_library_and_from_a_plan():
    library = PowerPriorAnalysis(52, 61, 30, 80, 1).run()[1]
    plan = parse_plan({"method": "power_prior", "power_prior": {
        "x": 52, "n": 61, "x0": 30, "n0": 80, "a0": 1, "assume_comparable": True}})
    report = run_plan(plan).report
    assert canonical_json(library["posterior"]) == canonical_json(report["posterior"])
    assert '"a0":1.0,' in canonical_json(library["posterior"])


def test_borrow_writes_the_defaults_of_the_power_prior_into_its_plan(capsys):
    # argparse passes no default through the flag's type, so the prior default
    # must reach the plan as the list the type would give: its hash is pinned.
    argv = ["borrow", "--x", "52", "--n", "61", "--x0", "30", "--n0", "80", "--a0", "0.5",
            "--assume-comparable"]
    assert cli.main(argv) == 0
    report = json.loads(capsys.readouterr().out)
    plan = {"method": "power_prior", "power_prior": {
        **POWER_PRIOR, "prior": [1.0, 1.0], "level": 0.95, "assume_comparable": True}}
    assert report["provenance"]["plan_hash"] == plan_hash(plan) == (
        "90e328638d67bdbd133a6d6e6f1908f5a92e6f14efc881b10be2e8a6c6b8bedd")
    assert report["posterior"]["prior"] == list(PowerPriorAnalysis.prior)
    assert report["posterior"]["level"] == PowerPriorAnalysis.level


def test_the_bootstrap_level_help_reads_the_field():
    flags = cli.FRONT_ENDS["compare"][2]
    assert flags["--level"][1]["help"] == f"bootstrap CI level (default {BootstrapConfig.level})"


# Pairs of bad keys that a plan once reported in the other order: the
# settings are now checked in field order, before the plan's seed and checklist.
@pytest.mark.parametrize("plan,message", [
    # The analysis settings run before the plan's seed and checklist.
    ({"method": "weighting", "dataset": "d.csv", "seed": "x", "positivity_a": 0.7},
     "positivity_a must be in [0, 0.5), got 0.7"),
    ({"method": "weighting", "dataset": "d.csv", "checklist": [], "horizon": -1},
     "horizon must be a number >= 0, got -1"),
    # MAIC and STC fields: target, covariates, scale; the link comes after them.
    ({"method": "stc", "dataset": "d.csv", "aggregate": "a.json", "scale": "xx",
      "covariates": ["x", "x"]}, "covariate 'x' is named twice"),
    ({"method": "stc", "dataset": "d.csv", "aggregate": "a.json", "link": "probit",
      "covariates": "x"}, "covariates must be a list of names, got 'x'"),
    # A power prior's responder rule runs after every field check.
    ({"method": "power_prior", "power_prior": {**POWER_PRIOR, "x": 70, "a0": 2,
                                               "assume_comparable": True}},
     "power_prior a0 must be in [0, 1], got 2"),
], ids=["seed-positivity", "checklist-horizon", "scale-covariates", "link-covariates",
        "responders-a0"])
def test_two_bad_keys_report_the_first_field(plan, message):
    with pytest.raises(PlanInvalid) as exc:
        parse_plan(plan)
    assert str(exc.value) == message


def test_a_scenario_reports_its_fields_in_field_order():
    # covariates is declared before seed, so it is reported first.
    with pytest.raises(InvalidConfig, match="^covariates must be a list of CovariateSpec"):
        ScenarioConfig(n_trial=5, n_external=5, covariates=("x",), assignment=(0.0, 1.0),
                       outcome_kind=OutcomeKind.BINARY, outcome_coefficients=(0.0, 1.0),
                       effect=0.1, seed="s")


def test_a_null_sweep_is_no_sweep():
    # None is the field's default, so a plan's null means what leaving the
    # key out means, as for "horizon" and "covariates".
    block = {**POWER_PRIOR, "assume_comparable": True}
    report = run_plan(parse_plan({"method": "power_prior",
                                  "power_prior": {**block, "sweep": None}})).report
    assert "sensitivity" not in report
    assert report["posterior"] == run_plan(parse_plan(
        {"method": "power_prior", "power_prior": block})).report["posterior"]


@pytest.mark.parametrize("token,message", [
    (5, "estimand must be a string, got 5"),
    ("atx", "bad estimand 'atx': 'atx' is not a valid EstimandKind"),
    ("trim:0.7", "bad estimand 'trim:0.7': trimmed estimand requires 0 < a < 0.5"),
    ("trim:x", "bad estimand 'trim:x': could not convert string to float: 'x'"),
], ids=["number", "unknown", "trim-range", "trim-number"])
def test_a_bad_estimand_name_fails_alike_in_parse_and_in_a_plan(token, message):
    # Estimand.parse(5) once raised a bare AttributeError.
    with pytest.raises(ParameterOutOfRange) as parsed:
        Estimand.parse(token)
    with pytest.raises(PlanInvalid) as planned:
        parse_plan(_plan(WeightingAnalysis, "estimand", token))
    assert str(parsed.value) == str(planned.value) == message


def _named():
    """A dataset whose two covariates are named x and b, and an aggregate of both."""
    rows = [(0.9, 1), (0.1, 0), (0.8, 0), (0.3, 1), (0.6, 1), (0.5, 0), (0.2, 1), (0.7, 0),
            (0.2, 0), (0.7, 1), (0.4, 0)]
    data = make_dataset(rows, [Group.TRIAL] * 8 + [Group.EXTERNAL] * 3,
                        outcomes=[1, 0, 1, 0, 0, 1, 1, 0, 0, 1, 0], covariate_names=("x", "b"))
    return data, AggregateSummary(("x", "b"), (0.5, 0.5), 80, OutcomeKind.BINARY,
                                  {"responders": 30})


@pytest.mark.parametrize("call", [
    lambda data, target: estimate_propensity(data, covariates="xb"),
    lambda data, target: maic_weights(data, target, covariates="xb"),
    lambda data, target: stc_estimate(data, target, covariates="xb"),
], ids=["estimate_propensity", "maic_weights", "stc_estimate"])
def test_a_public_function_rejects_a_covariate_string(call):
    # Each once fitted on the covariates x and b, the characters of "xb".
    with pytest.raises(ParameterOutOfRange) as exc:
        call(*_named())
    assert str(exc.value) == "covariates must be a list of names, got 'xb'"


@pytest.mark.parametrize("call", [
    lambda data, target: estimate_propensity(data, ["x", "x"]),
    lambda data, target: maic_weights(data, target, ["x", "x"]),
    lambda data, target: stc_estimate(data, target, ["x", "x"]),
], ids=["estimate_propensity", "maic_weights", "stc_estimate"])
def test_a_public_function_rejects_a_covariate_named_twice(call):
    # Each once failed later, as a solver error of a duplicated column:
    # RankDeficientDesign, or CollinearCovariates from MAIC.
    with pytest.raises(ParameterOutOfRange) as exc:
        call(*_named())
    assert str(exc.value) == "covariate 'x' is named twice"


def _ate_weights(data):
    return balancing_weights(estimate_propensity(data), data, Estimand.parse("ate"))


@pytest.mark.parametrize("call,message", [
    (lambda data: survival_contrast(*[weighted_km([1.0, 2.0], [1, 1], [1.0, 1.0])] * 2,
                                    math.inf),
     "horizon must be a number >= 0, got inf"),
    (lambda data: balance_table(data, _ate_weights(data), True),
     "SMD threshold must be finite and > 0, got True"),
    (lambda data: positivity_report(estimate_propensity(data), data, False),
     "band parameter a=False must be in [0, 0.5)"),
    (lambda data: power_prior_posterior(52, 61, 30, 80, True), "a0=True outside [0,1]"),
], ids=["survival_contrast", "balance_table", "positivity_report", "power_prior_posterior"])
def test_a_public_function_rejects_a_number_its_field_rejects(call, message):
    # Each once ran: a horizon of inf reported "horizon": null, a bool was
    # read as the threshold or band 1 or 0, and a0=True wrote "a0": true.
    with pytest.raises(ParameterOutOfRange) as exc:
        call(_named()[0])
    assert str(exc.value) == message


AGGREGATE = {"n": 80, "covariates": {"age": 50.0, "severe": 0.5},
             "outcome": {"kind": "binary", "responders": 30}}


# One bad value for each rule that a hand-built aggregate and a file share.
BAD_AGGREGATES = [
    ({"n": 2.5}, SchemaViolation, "aggregate n must be a positive integer, got 2.5"),
    ({"n": True}, SchemaViolation, "aggregate n must be a positive integer, got True"),
    ({"n": 0}, SchemaViolation, "aggregate n must be a positive integer, got 0"),
    ({"covariates": {"age": "50", "severe": 0.5}}, SchemaViolation,
     "covariate 'age' mean must be a finite number, got '50'"),
    ({"outcome": {"kind": "binary", "responders": "3"}}, SchemaViolation,
     "aggregate outcome_summary must be an object of finite numbers, got {'responders': '3'}"),
    ({"outcome": {"kind": "binary", "responders": 3.5}}, SchemaViolation,
     "binary aggregate outcome needs responders, an integer >= 0, got 3.5"),
    ({"outcome": {"kind": "binary", "responders": 81}}, ResponderCountExceedsN,
     "responders 81 > n 80"),
    ({"outcome": {"kind": "continuous", "sd": 1.0}}, SchemaViolation,
     "continuous aggregate outcome needs a mean"),
    ({"outcome": {"kind": "continuous", "mean": 0.2, "sd": -1.0}}, SchemaViolation,
     "aggregate sd must be >= 0"),
    ({"outcome": {"kind": "survival", "horizon": 3, "survival": 1.5}}, ProportionOutOfRange,
     "survival probability 1.5 outside [0,1]"),
    ({"outcome": {"kind": "survival", "survival": "x"}}, SchemaViolation,
     "aggregate outcome_summary must be an object of finite numbers, got {'survival': 'x'}"),
]


@pytest.mark.parametrize("change,error,message", BAD_AGGREGATES, ids=[
    "n-float", "n-bool", "n-zero", "mean-string", "responders-string", "responders-float",
    "responders-above-n", "continuous-no-mean", "sd-negative", "survival-above-1",
    "survival-string"])
def test_a_bad_aggregate_fails_alike_built_and_loaded(change, error, message, tmp_path):
    payload = {**AGGREGATE, **change}
    outcome = dict(payload["outcome"])
    kind = OutcomeKind(outcome.pop("kind"))
    with pytest.raises(error) as built:
        AggregateSummary(tuple(payload["covariates"]), tuple(payload["covariates"].values()),
                         payload["n"], kind, outcome)
    path = tmp_path / "agg.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(error) as loaded:
        load_aggregate(path)
    assert type(built.value) is type(loaded.value) is error
    assert str(built.value) == message
    assert str(loaded.value) == f"{path}: {message}"


@pytest.mark.parametrize("build", [
    lambda: AggregateSummary(("a",), (0.5,), 2.5, OutcomeKind.BINARY, {"responders": 1}),
    lambda: AggregateSummary(("a",), (0.5,), True, OutcomeKind.BINARY, {"responders": 1}),
    lambda: AggregateSummary(("a", "a"), (0.5, 0.6), 10, OutcomeKind.BINARY, {"responders": 1}),
    lambda: AggregateSummary((3,), (0.5,), 10, OutcomeKind.BINARY, {"responders": 1}),
    lambda: AggregateSummary(("a",), (0.5,), 10, "binary", {"responders": 1}),
    lambda: AggregateSummary(("a",), (0.5,), 10, OutcomeKind.TIME_TO_EVENT, {"survival": "x"}),
], ids=["n-float", "n-bool", "name-twice", "name-number", "kind-string", "survival-string"])
def test_an_aggregate_constructor_rejects_what_a_file_rejects(build):
    # Each once constructed (a fractional or boolean n gave an outcome value,
    # mean_of read the first of two names, the string kind skipped every
    # outcome check) or, for the survival string, raised a bare TypeError.
    with pytest.raises(SchemaViolation):
        build()


def test_aggregate_means_are_kept_as_floats():
    target = AggregateSummary(["age", "severe"], [50, np.float32(0.5)], np.int64(80),
                              OutcomeKind.BINARY, {"responders": 30})
    assert target.covariate_names == ("age", "severe")
    assert target.covariate_means == (50.0, 0.5)
    assert [type(m) for m in target.covariate_means] == [float, float]


@pytest.mark.parametrize("change,message", [
    ({"n_trial": 0}, "n_trial must be an integer > 0, got 0"),
    ({"n_external": -3}, "n_external must be an integer > 0, got -3"),
    ({"residual_sd": -1.0}, "residual_sd must be a number >= 0, got -1.0"),
    ({"censoring_rate": 1}, "censoring_rate must be in [0, 1), got 1"),
    ({"censoring_rate": -0.1}, "censoring_rate must be in [0, 1), got -0.1"),
], ids=["n_trial", "n_external", "residual_sd", "censoring_rate-1", "censoring_rate-negative"])
def test_a_scenario_range_is_a_field_check(change, message):
    base = dict(n_trial=5, n_external=5, covariates=(CovariateSpec("x", "binary", p=0.5),),
                assignment=(0.0, 1.0), outcome_kind=OutcomeKind.BINARY,
                outcome_coefficients=(0.0, 1.0), effect=0.1)
    with pytest.raises(InvalidConfig) as exc:
        ScenarioConfig(**{**base, **change})
    assert str(exc.value) == message


def test_a_covariate_kind_is_a_field_check():
    with pytest.raises(InvalidConfig) as exc:
        CovariateSpec("x", "ordinal")
    assert str(exc.value) == "covariate kind must be 'binary' or 'continuous', got 'ordinal'"
