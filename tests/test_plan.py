"""The plan runner: one analysis object per method gives the report's point
and every bootstrap replicate, and the report keeps each method's provenance."""

import json

import numpy as np
import pytest

from extctrl import MaicAnalysis, StcAnalysis, WeightingAnalysis
from extctrl import plan as planmod
from extctrl.inference import bootstrap_ci
from extctrl.plan import canonical_json, parse_plan, run_plan


@pytest.fixture
def inputs(tmp_path):
    """Binary, continuous and survival CSVs on covariates (age, severe), and
    binary and continuous aggregates that list them as (severe, age)."""
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
                          ("agg_continuous", {"kind": "continuous", "mean": 4.0, "sd": 1.5})):
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

    def recording_bootstrap(analysis, data, config):
        calls.append((analysis, data))
        return bootstrap_ci(analysis, data, config)

    monkeypatch.setattr(planmod, "bootstrap_ci", recording_bootstrap)
    plan = _plan(inputs, doc, seed=4, bootstrap={"replicates": 10})
    report = json.loads(canonical_json(run_plan(plan).report))
    [(analysis, data)] = calls
    assert isinstance(analysis, kind)
    assert report["effect"]["point"] == analysis(data)
    assert report["bootstrap"]["failures"] == 0


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
