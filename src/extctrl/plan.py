"""Declarative analysis plans: validation, canonical hashing, execution.

A plan is a frozen JSON document naming the data, estimand, method, and
inference settings. Its canonical content digest is embedded in every
output so results can be tied back to the pre-specified plan. Execution
follows the fixed order estimand declaration, selection diagnostics,
comparison.
"""

from __future__ import annotations

import dataclasses
import enum
import hashlib
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from .balancing import Estimand
from .borrow import a0_sensitivity, power_prior_posterior
from .dataset import (
    AggregateSummary,
    Dataset,
    Group,
    OutcomeKind,
    csv_text,
    load_aggregate,
    load_dataset,
)
from .diagnostics import CHECKLIST_FIELDS, DEFAULT_SMD_THRESHOLD, comparability_checklist
from .errors import InvalidConfig, PlanInvalid, checked_field as _field, is_count, is_int, is_number
from .estimators import Scale, WeightingAnalysis, check_scale
from .inference import BootstrapConfig, bootstrap_ci
from .maic import MaicAnalysis
from .stc import Link, StcAnalysis, outcome_link

SCHEMA_VERSION = 1


class Method(enum.Enum):
    WEIGHTING = "weighting"
    MAIC = "maic"
    STC = "stc"
    POWER_PRIOR = "power_prior"


def canonical_json(payload) -> str:
    """Deterministic JSON used for hashing and report emission.

    A float is written as its shortest repr, which reads back as the same
    double, so equal values hash and serialize identically across runs. The
    output is strict JSON: a non-finite float (an infinite odds ratio, say)
    is written as null, and the report's ``infinite`` flag says why. A
    dataclass instance is written as an object of its fields, so field names
    are output keys.
    """
    def normalize(obj):
        if dataclasses.is_dataclass(obj) and not isinstance(obj, type):
            return {f.name: normalize(getattr(obj, f.name))
                    for f in dataclasses.fields(obj)}
        if isinstance(obj, dict):
            return {k: normalize(obj[k]) for k in sorted(obj)}
        if isinstance(obj, (list, tuple)):
            return [normalize(v) for v in obj]
        if isinstance(obj, (bool, np.bool_)):
            return bool(obj)
        if isinstance(obj, (float, np.floating)):
            if not math.isfinite(obj):
                return None
            return float(obj)
        if isinstance(obj, (int, np.integer)):
            return int(obj)
        if isinstance(obj, np.ndarray):
            return [normalize(v) for v in obj.tolist()]
        if isinstance(obj, enum.Enum):
            return obj.value
        return obj

    return json.dumps(normalize(payload), sort_keys=True, separators=(",", ":"),
                      allow_nan=False)


def plan_hash(payload: dict) -> str:
    return hashlib.sha256(canonical_json(payload).encode("utf-8")).hexdigest()


@dataclass
class AnalysisPlan:
    raw: dict
    method: Method
    dataset_path: Optional[str]
    aggregate_path: Optional[str]
    estimand: Optional[Estimand]
    covariates: Optional[list]
    scale: Optional[Scale]  # None: the outcome's default (estimators.check_scale)
    bootstrap: Optional[BootstrapConfig]
    checklist: dict
    fail_on_overlap: bool
    positivity_a: float
    smd_threshold: float
    horizon: Optional[float]
    # The power-prior block read: "counts" (x, n, x0, n0), and "a0", "prior",
    # "level" and "sweep" (None if it has none) as floats, defaults filled in.
    power_prior: Optional[dict]
    seed: int
    hash: str = field(default="")

    def __post_init__(self):
        if not self.hash:
            self.hash = plan_hash(self.raw)


def load_plan(path) -> AnalysisPlan:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise PlanInvalid(f"{path}: cannot read plan ({exc})") from None
    return parse_plan(raw)


# The keys a plan ("") and each of its blocks may hold.
_KEYS = {"": {"method", "dataset", "aggregate", "estimand", "scale", "link", "covariates",
              "seed", "checklist", "fail_on_overlap", "positivity_a", "smd_threshold",
              "horizon", "bootstrap", "power_prior"},
         "bootstrap": {"replicates", "level", "seed", "threads"},
         "power_prior": {"x", "n", "x0", "n0", "a0", "prior", "level", "sweep",
                         "assume_comparable"},
         "checklist": set(CHECKLIST_FIELDS)}

# The plan keys only some methods read, with the methods whose runner reads them.
_METHOD_KEYS = {"link": {Method.STC}, "power_prior": {Method.POWER_PRIOR},
                **dict.fromkeys(("dataset", "bootstrap", "scale", "covariates"),
                                set(Method) - {Method.POWER_PRIOR}),
                **dict.fromkeys(("estimand", "fail_on_overlap", "positivity_a", "smd_threshold",
                                 "horizon"), {Method.WEIGHTING})}


def parse_plan(raw: dict) -> AnalysisPlan:
    """Validate a plan document; a malformed field, an unknown key or a key
    the plan's method does not read raises PlanInvalid."""
    if not isinstance(raw, dict):
        raise PlanInvalid("a plan must be a JSON object")
    for block, known in _KEYS.items():
        doc = raw.get(block) if block else raw
        if isinstance(doc, dict) and not set(doc) <= known:
            raise PlanInvalid(f"unknown {block or 'plan'} key {min(set(doc) - known)!r}")
    try:
        method = Method(raw["method"])
    except (KeyError, ValueError) as exc:
        raise PlanInvalid(f"missing or unknown method: {exc}") from None
    unread = sorted(k for k in raw if method not in _METHOD_KEYS.get(k, {method}))
    if unread:
        raise PlanInvalid(f"method {method.value} reads no plan key {unread[0]!r}")

    def path(value):
        return value is None or isinstance(value, str)

    dataset_path = _field(raw, "dataset", None, path, "a file path")
    aggregate_path = _field(raw, "aggregate", None, path, "a file path")
    if method in (Method.WEIGHTING, Method.MAIC, Method.STC) and not dataset_path:
        raise PlanInvalid(f"method {method.value} requires a dataset path")
    if method in (Method.MAIC, Method.STC) and not aggregate_path:
        raise PlanInvalid(f"method {method.value} requires an aggregate file")
    if method not in (Method.MAIC, Method.STC) and aggregate_path is not None:
        raise PlanInvalid(f"method {method.value} takes no aggregate file")

    estimand = None
    if method is Method.WEIGHTING:
        token = _field(raw, "estimand", "ate", lambda v: isinstance(v, str), "a string")
        try:
            estimand = Estimand.parse(token)
        except ValueError as exc:
            raise PlanInvalid(f"bad estimand {token!r}: {exc}") from None
    try:
        scale = Scale(raw["scale"]) if "scale" in raw else None
        Link(raw.get("link", "identity"))  # STC checks it against the outcome's link
    except ValueError as exc:
        raise PlanInvalid(f"bad scale or link: {exc}") from None

    covariates = _field(raw, "covariates", None, lambda v: v is None or (
        isinstance(v, list) and all(isinstance(c, str) for c in v)), "a list of names")
    repeated = [c for i, c in enumerate(covariates or ()) if c in covariates[:i]]
    if repeated:
        raise PlanInvalid(f"covariate {repeated[0]!r} is named twice")
    seed = _field(raw, "seed", 0, is_int, "an integer")
    checklist = _field(raw, "checklist", {}, lambda v: isinstance(v, dict), "an object")
    fail_on_overlap = _field(raw, "fail_on_overlap", False,
                             lambda v: isinstance(v, bool), "true or false")
    # Numbers that mean floats are floats, so "horizon": 3 reports as 3.0, as
    # a flag's value does (argparse gives floats); the hash reads the raw plan.
    positivity_a = float(_field(raw, "positivity_a", 0.1,
                                lambda v: is_number(v) and 0 <= v < 0.5, "in [0, 0.5)"))
    smd_threshold = float(_field(raw, "smd_threshold", DEFAULT_SMD_THRESHOLD,
                                 lambda v: is_number(v) and v > 0, "a finite number > 0"))
    horizon = _field(raw, "horizon", None,
                     lambda v: v is None or (is_number(v) and v >= 0), "a number >= 0")
    horizon = None if horizon is None else float(horizon)

    bconf = None
    if "bootstrap" in raw:
        b = _field(raw, "bootstrap", None, lambda v: isinstance(v, dict), "an object")
        try:  # the block's keys are known (see _KEYS); the plan seed is its default
            bconf = BootstrapConfig(**{"seed": seed, **b})
        except InvalidConfig as exc:
            raise PlanInvalid(str(exc)) from None

    pp = None
    if method is Method.POWER_PRIOR:
        block = raw.get("power_prior")
        if not isinstance(block, dict) or not block:
            raise PlanInvalid("power_prior method requires a power_prior block")
        if not block.get("assume_comparable", False):
            raise PlanInvalid("power-prior borrowing requires the explicit assume_comparable "
                              "flag (CLI: --assume-comparable)")
        where = "power_prior "
        x, n, x0, n0 = (_field(block, key, None, is_count, "an integer >= 0", where)
                        for key in ("x", "n", "x0", "n0"))
        if x > n or x0 > n0:
            raise PlanInvalid(f"power_prior responders exceed n: {x}/{n}, {x0}/{n0}")
        a0 = _field(block, "a0", None, lambda v: is_number(v) and 0 <= v <= 1, "in [0, 1]", where)
        prior = _field(block, "prior", [1.0, 1.0], lambda v: isinstance(v, list) and len(v) == 2
                       and all(is_number(p) and p > 0 for p in v), "two numbers > 0", where)
        level = _field(block, "level", 0.95, lambda v: is_number(v) and 0 < v < 1, "in (0, 1)",
                       where)
        # As floats, so "a0": 1 reports as `borrow --a0 1` does.
        pp = {"counts": (x, n, x0, n0), "a0": float(a0), "prior": [float(p) for p in prior],
              "level": float(level), "sweep": None}
        if "sweep" in block:
            pp["sweep"] = [float(a) for a in _field(
                block, "sweep", None, lambda v: isinstance(v, list) and len(v) > 0
                and all(is_number(a) and 0 <= a <= 1 for a in v),
                "a non-empty list of numbers in [0, 1]", where)]

    return AnalysisPlan(
        raw=raw,
        method=method,
        dataset_path=dataset_path,
        aggregate_path=aggregate_path,
        estimand=estimand,
        covariates=covariates,
        scale=scale,
        bootstrap=bconf,
        checklist=checklist,
        fail_on_overlap=fail_on_overlap,
        positivity_a=positivity_a,
        smd_threshold=smd_threshold,
        horizon=horizon,
        power_prior=pp,
        seed=seed,
    )


@dataclass
class RunArtifacts:
    report: dict
    # CSV tables by file name, each a (header, columns) pair for ``csv_text``.
    tables: dict = field(default_factory=dict)
    # Weighted KM curves by group ("trial", "external") of a time-to-event
    # weighting run. ``write`` leaves them out; ``extctrl compare`` writes them.
    curves: Optional[dict] = None

    def write(self, out_dir) -> None:
        out = Path(out_dir)
        out.mkdir(parents=True, exist_ok=True)
        (out / "report.json").write_text(canonical_json(self.report) + "\n",
                                         encoding="utf-8")
        for name, (header, columns) in self.tables.items():
            (out / name).write_text(csv_text(header, columns), encoding="utf-8")


_STEPS = ("estimand", "selection-diagnostics", "comparison")


def _report(plan: AnalysisPlan, steps, **provenance) -> dict:
    """The provenance and the checklist that open every report."""
    provenance = {"schema": SCHEMA_VERSION, "plan_hash": plan.hash, "method": plan.method.value,
                  "steps": list(steps), "seed": plan.seed, "covariates": plan.covariates,
                  **provenance}
    if plan.estimand is not None:
        provenance["estimand"] = plan.estimand.label
    return {"provenance": provenance, "checklist": comparability_checklist(plan.checklist)}


def _analysis(plan: AnalysisPlan, target: Optional[AggregateSummary], scale: Optional[Scale]):
    """The analysis that runs the plan's method, with the plan's settings.

    An STC plan's ``link``, if it names one, must be the link the outcome
    gives its model."""
    if plan.method is Method.WEIGHTING:
        return WeightingAnalysis(plan.estimand, scale, plan.covariates, plan.horizon,
                                 plan.positivity_a, plan.fail_on_overlap, plan.smd_threshold)
    if plan.method is Method.MAIC:
        return MaicAnalysis(target, plan.covariates, scale)
    link = outcome_link(target.outcome_kind).value
    if plan.raw.get("link", link) != link:
        raise PlanInvalid(f"link {plan.raw['link']} does not fit a "
                          f"{target.outcome_kind.value} outcome; its STC link is {link}")
    return StcAnalysis(target, plan.covariates, scale)


def run_plan(plan: AnalysisPlan) -> RunArtifacts:
    """Execute a validated plan and assemble its artifacts.

    The plan's scale is checked against the outcome before any fit. The
    plan's analysis runs once on its sample, the trial rows of a plan with
    an aggregate and all rows otherwise, and gives the effect report and the
    method's own report blocks, tables and curves. The bootstrap, when the
    plan asks for one, refits that same analysis on every replicate of the
    sample. On data without outcomes a weighting plan runs ``run_design``
    and may set no scale, horizon or bootstrap; a horizon needs a
    time-to-event outcome.
    """
    data = target = None
    kind = OutcomeKind.BINARY  # a power prior's outcome
    if plan.method is not Method.POWER_PRIOR:
        data = load_dataset(plan.dataset_path)
        target = load_aggregate(plan.aggregate_path) if plan.aggregate_path else None
        kind = data.outcome_kind
    if kind is None and plan.method is Method.WEIGHTING:
        for key in ("scale", "horizon", "bootstrap"):
            if key in plan.raw:
                raise PlanInvalid(f"{key} needs outcomes, and {plan.dataset_path} has none")
        return run_design(plan, data)
    if plan.horizon is not None and kind is not OutcomeKind.TIME_TO_EVENT:
        raise PlanInvalid(f"horizon needs a time-to-event outcome, and the outcome of "
                          f"{plan.dataset_path} is {kind.value}")
    scale = check_scale(kind, plan.scale, target.outcome_kind if target else None)
    report = _report(plan, _STEPS, scale=scale.value)

    if plan.method is Method.POWER_PRIOR:
        pp = plan.power_prior
        counts, prior, level = pp["counts"], pp["prior"], pp["level"]
        report["posterior"] = power_prior_posterior(*counts, pp["a0"], *prior).to_dict(level)
        if pp["sweep"] is not None:
            report["sensitivity"] = a0_sensitivity(*counts, pp["sweep"], *prior, level)
        return RunArtifacts(report=report)

    analysis = _analysis(plan, target, scale)
    sample = data.restrict(Group.TRIAL) if target else data
    effect, blocks, tables, curves = analysis.run(sample)
    # The method's resolved names (matched covariates, link) win over the plan's.
    effect.provenance = {**report["provenance"], **effect.provenance}
    report = {**report, "effect": effect.to_dict(), **blocks}
    if plan.bootstrap:
        config = plan.bootstrap
        result = bootstrap_ci(analysis, sample, config, point=effect.point)
        report["effect"]["ci"] = [result.lower, result.upper]
        report["effect"]["ci_level"] = config.level
        report["bootstrap"] = {
            "replicates": config.replicates,
            "failures": result.n_failures,
            "refits": len(result.replicates),
            "seed": config.seed,
        }
    return RunArtifacts(report, tables, curves)


def run_design(plan: AnalysisPlan, data: Optional[Dataset] = None) -> RunArtifacts:
    """The design steps of a weighting plan, which read no outcome of ``data``
    (by default the plan's dataset). The report's ``design`` block holds the
    diagnostics a full run reports under ``effect``, the ESS and the propensity fit."""
    data = load_dataset(plan.dataset_path) if data is None else data
    analysis = _analysis(plan, None, None)
    model, positivity, wset = analysis.design(data)
    diagnostics, tables = analysis.diagnostics(data, model, positivity, wset)
    weights = {"estimand": wset.estimand.label, "ess_trial": wset.ess_treated,
               "ess_external": wset.ess_control, "n_zero_weight": wset.n_zero_weight}
    design = {**diagnostics, "weights": weights, "coefficients": model.glm.coefficients}
    return RunArtifacts({**_report(plan, _STEPS[:2]), "design": design}, tables)
