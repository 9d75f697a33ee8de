"""The three benchmark workloads: seeded inputs, one operation, output checks.

Each workload object is built once per process. Building it writes the
workload's input files (CSV, aggregate JSON, plan JSON) with the benchmark's
own NumPy generator, so a change to ``extctrl.simulate`` cannot change what
the plan workloads read. ``run(index)`` is the timed operation; ``check``
compares its outputs with an oracle computed here, independently of the
program, and raises ``CheckFailed`` on a mismatch.

Program functions are looked up through module attributes at call time, so
the traced run sees the wrapped versions.
"""

from __future__ import annotations

import csv
import json
from pathlib import Path

import numpy as np

import extctrl
from extctrl import cli

POINT_TOL = 1e-9  # closed-form and oracle agreement on an effect estimate
SMD_TOL = 1e-8  # ATO gives exact mean balance

# Mean of the exponential censoring time; gives ~30% censoring under the
# survival workload's hazard model.
CENSOR_MEAN = 6.0

CHECKLIST = {
    "eligibility": "aligned",
    "endpoint_measurement": "aligned",
    "calendar_time": "aligned",
    "treatment_decision_time": "aligned",
}


class CheckFailed(Exception):
    """An operation's output disagrees with the benchmark's oracle."""


def _expit(x):
    return 1.0 / (1.0 + np.exp(-x))


def _write_json(path: Path, payload: dict) -> None:
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")


class _PlanWorkload:
    """Shared mechanics of workloads that run ``extctrl run <plan>``."""

    def __init__(self, work: Path):
        self.work = work
        self.plans = {}  # name -> plan path, run in order
        self.reports = {}  # name -> report.json bytes of the first run

    def run(self, index: int) -> None:
        for name, plan in self.plans.items():
            code = cli.main(["--out-dir", str(self.work / f"out-{name}"), "run", str(plan)])
            if code != 0:
                raise CheckFailed(f"extctrl run {name} exited with {code}")

    def _report(self, name: str) -> dict:
        raw = (self.work / f"out-{name}" / "report.json").read_bytes()
        first = self.reports.setdefault(name, raw)
        if raw != first:
            raise CheckFailed(f"{name}: report.json differs between runs of one plan")
        return json.loads(raw)


class CoverageBinary:
    """One outer repetition of the criterion-9 coverage study."""

    name = "coverage-binary"
    layers = ("simulate", "inference", "dataset", "propensity", "glm", "balancing",
              "estimators")
    replicates = 500
    subjects = 500
    fits_per_op = subjects * (1 + replicates)

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.covered = 0
        self.checked = 0

    def config(self, index: int):
        return extctrl.ScenarioConfig(
            n_trial=250,
            n_external=250,
            covariates=(extctrl.CovariateSpec("severe", "binary", p=0.4),),
            assignment=(0.2, -1.0),
            outcome_kind=extctrl.OutcomeKind.BINARY,
            outcome_coefficients=(-0.4, 1.0),
            effect=0.12,
            seed=self.seed * 100_000 + index,
        )

    @staticmethod
    def pipeline(d) -> float:
        m = extctrl.estimate_propensity(d)
        w = extctrl.balancing_weights(m, d, extctrl.Estimand(extctrl.EstimandKind.ATE))
        return extctrl.weighted_mean_contrast(d, w, extctrl.Scale.RISK_DIFFERENCE).point

    def run(self, index: int):
        data, truth = extctrl.generate(self.config(index))
        result = extctrl.bootstrap_ci(
            self.pipeline, data,
            extctrl.BootstrapConfig(replicates=self.replicates, level=0.95, seed=index),
        )
        return data, truth, result

    def check(self, index: int, out) -> None:
        data, truth, result = out
        x = data.covariate_matrix()[:, 0]
        trial = data.group_mask
        y = data.outcomes()
        # A saturated propensity model on one binary covariate reproduces
        # the cell trial fractions, so the Hajek IPW contrast is the
        # cell-standardised difference of means.
        expected = 0.0
        for c in (0.0, 1.0):
            cell = x == c
            expected += cell.mean() * (y[cell & trial].mean() - y[cell & ~trial].mean())
        if abs(result.point - expected) > POINT_TOL:
            raise CheckFailed(f"point {result.point!r} != closed form {expected!r}")
        if result.n_failures:
            raise CheckFailed(f"{result.n_failures} bootstrap replicates failed")
        self.checked += 1
        self.covered += int(result.lower <= truth.ate <= result.upper)

    def info(self) -> dict:
        return {"coverage": {"covered": self.covered, "repetitions": self.checked}}


class PlanSurvival50k(_PlanWorkload):
    """ATO weighting plan on a 50k-row time-to-event CSV, no bootstrap."""

    name = "plan-survival-50k"
    layers = ("cli", "plan", "dataset", "propensity", "glm", "balancing", "diagnostics",
              "estimators")
    n = 50_000
    fits_per_op = n

    def __init__(self, seed: int, work: Path):
        super().__init__(work)
        rng = np.random.default_rng([seed, 50_000])
        n = self.n
        b1 = (rng.random(n) < 0.4).astype(int)
        b2 = (rng.random(n) < 0.6).astype(int)
        c1 = rng.normal(size=n)
        c2 = rng.normal(size=n)
        trial = rng.random(n) < _expit(0.1 + 0.5 * b1 - 0.4 * b2 + 0.6 * c1 - 0.3 * c2)
        hazard = np.exp(-1.0 + 0.4 * b1 + 0.3 * b2 + 0.5 * c1 - 0.2 * c2 - 0.4 * trial)
        event_time = rng.exponential(1.0 / hazard)
        censor_time = rng.exponential(CENSOR_MEAN, size=n)
        time = np.minimum(event_time, censor_time)
        event = (event_time <= censor_time).astype(int)
        self.horizon = round(float(np.median(time)), 4)
        self.ids = [f"s{i}" for i in range(n)]
        self.trial, self.time, self.event = trial, time, event

        csv_path = work / "survival.csv"
        lines = ["id,group,b1,b2,c1,c2,time,event"]
        groups = np.where(trial, "trial", "external").tolist()
        cols = zip(self.ids, groups, b1.tolist(), b2.tolist(), c1.tolist(), c2.tolist(),
                   time.tolist(), event.tolist())
        lines += [f"{i},{g},{a},{b},{x!r},{z!r},{t!r},{d}" for i, g, a, b, x, z, t, d in cols]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")
        plan = work / "plan-survival.json"
        _write_json(plan, {
            "method": "weighting",
            "dataset": str(csv_path),
            "estimand": "ato",
            "scale": "rd",
            "seed": seed,
            "horizon": self.horizon,
            "checklist": CHECKLIST,
        })
        self.plans = {"survival": plan}

    def info(self) -> dict:
        return {
            "horizon": self.horizon,
            "censored_frac": float(1.0 - self.event.mean()),
            "distinct_event_times": int(np.unique(self.time[self.event == 1]).size),
        }

    def check(self, index: int, out) -> None:
        out_dir = self.work / "out-survival"
        report = self._report("survival")
        with (out_dir / "weights.csv").open(newline="", encoding="utf-8") as fh:
            rows = list(csv.reader(fh))[1:]
        if [r[0] for r in rows] != self.ids:
            raise CheckFailed("weights.csv ids are not the input rows in order")
        if [r[1] == "trial" for r in rows] != self.trial.tolist():
            raise CheckFailed("weights.csv groups disagree with the input")
        w = np.array([float(r[3]) for r in rows])
        g = self.trial
        s1 = km_survival(self.time[g], self.event[g], w[g], self.horizon)
        s0 = km_survival(self.time[~g], self.event[~g], w[~g], self.horizon)
        point = report["effect"]["point"]
        if abs(point - (s1 - s0)) > POINT_TOL:
            raise CheckFailed(f"survival contrast {point!r} != oracle {s1 - s0!r}")
        with (out_dir / "balance.csv").open(newline="", encoding="utf-8") as fh:
            smds = [float(r["weighted_smd"]) for r in csv.DictReader(fh)]
        if len(smds) != 4 or max(abs(v) for v in smds) > SMD_TOL:
            raise CheckFailed(f"ATO weighted SMDs are not all zero: {smds}")


def km_survival(time, event, weight, horizon: float) -> float:
    """Weighted Kaplan-Meier S(horizon) in O(n log n).

    Ties: subjects censored at an event time are still at risk there
    (events before censorings).
    """
    order = np.argsort(time, kind="stable")
    t, d, w = time[order], event[order], weight[order]
    at_risk = np.cumsum(w[::-1])[::-1]
    uniq, first, inverse = np.unique(t, return_index=True, return_inverse=True)
    deaths = np.bincount(inverse, weights=w * d, minlength=len(uniq))
    use = (deaths > 0) & (uniq <= horizon)
    return float(np.prod(1.0 - deaths[use] / at_risk[first][use]))


class PlanAggregateBoot(_PlanWorkload):
    """STC plan against an aggregate, 500 trial-only bootstrap replicates.

    The MAIC plan the workload was first defined with is not run: the
    program's ``maic_weights`` fails on most seeds of these inputs (see
    WORKLOADS.md), and a workload has to be one on which no operation fails.
    """

    name = "plan-aggregate-boot"
    layers = ("cli", "plan", "dataset", "inference", "stc", "glm")
    n_trial = 1_000
    n_external = 1_000
    replicates = 500
    fits_per_op = n_trial * (1 + replicates)

    def __init__(self, seed: int, work: Path):
        super().__init__(work)
        rng = np.random.default_rng([seed, 2_000])
        nt, ne = self.n_trial, self.n_external
        n = nt + ne
        trial = np.arange(n) < nt
        b1 = (rng.random(n) < np.where(trial, 0.45, 0.55)).astype(int)
        c1 = rng.normal(np.where(trial, 0.3, 0.0), 1.0)
        c2 = rng.normal(np.where(trial, -0.2, 0.0), 1.0)
        p = _expit(-0.3 + 0.5 * b1 + 0.4 * c1 - 0.3 * c2 + 0.5 * trial)
        y = (rng.random(n) < p).astype(int)

        csv_path = work / "aggregate.csv"
        lines = ["id,group,b1,c1,c2,outcome"]
        groups = np.where(trial, "trial", "external").tolist()
        cols = zip(groups, b1.tolist(), c1.tolist(), c2.tolist(), y.tolist())
        lines += [f"a{i},{g},{b},{x!r},{z!r},{o}" for i, (g, b, x, z, o) in enumerate(cols)]
        csv_path.write_text("\n".join(lines) + "\n", encoding="utf-8")

        ext = ~trial
        target_means = [float(b1[ext].mean()), float(c1[ext].mean()), float(c2[ext].mean())]
        responders = int(y[ext].sum())
        agg_path = work / "aggregate.json"
        _write_json(agg_path, {
            "n": ne,
            "covariates": dict(zip(("b1", "c1", "c2"), target_means)),
            "binary_covariates": ["b1"],
            "outcome": {"kind": "binary", "responders": responders},
        })
        stc = work / "plan-stc.json"
        _write_json(stc, {
            "method": "stc",
            "link": "logit",
            "dataset": str(csv_path),
            "aggregate": str(agg_path),
            "scale": "rd",
            "seed": seed,
            "checklist": CHECKLIST,
            "bootstrap": {"replicates": self.replicates, "level": 0.95, "seed": seed},
        })
        self.plans = {"stc": stc}

        # Oracle: the logistic MLE on the trial rows, predicted at the
        # aggregate means, minus the aggregate response rate.
        X = np.column_stack([np.ones(nt), b1[trial], c1[trial], c2[trial]])
        beta = logistic_mle(X, y[trial].astype(float))
        eta = float(beta @ np.concatenate([[1.0], target_means]))
        self.expected_point = float(_expit(eta)) - responders / ne

    def check(self, index: int, out) -> None:
        report = self._report("stc")
        failures = report["bootstrap"]["failures"]
        if failures:
            raise CheckFailed(f"stc: {failures} bootstrap replicates failed")
        point = report["effect"]["point"]
        if abs(point - self.expected_point) > POINT_TOL:
            raise CheckFailed(f"STC point {point!r} != oracle {self.expected_point!r}")

    def info(self) -> dict:
        return {f"{name}_bootstrap_failures": json.loads(raw)["bootstrap"]["failures"]
                for name, raw in self.reports.items()}


def logistic_mle(X, y, iterations: int = 50):
    """Logistic regression coefficients by plain Newton steps on the score.

    The benchmark's own solver for the STC oracle: 50 full Newton steps from
    zero reach the maximum-likelihood estimate to rounding on these
    well-conditioned inputs, whatever the program's stopping rule.
    """
    beta = np.zeros(X.shape[1])
    for _ in range(iterations):
        mu = _expit(X @ beta)
        hess = (X * (mu * (1.0 - mu))[:, None]).T @ X
        beta = beta + np.linalg.solve(hess, X.T @ (y - mu))
    return beta


WORKLOADS = {w.name: w for w in (CoverageBinary, PlanSurvival50k, PlanAggregateBoot)}
