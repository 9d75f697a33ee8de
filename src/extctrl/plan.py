"""Declarative analysis plans: validation, canonical hashing, execution.

A plan is a frozen JSON document naming the data, estimand, method, and
inference settings. Its canonical content digest is embedded in every
output so results can be tied back to the pre-specified plan. Execution
follows the fixed order estimand declaration, selection diagnostics,
comparison. A method's settings are the fields of its analysis: each field
but ``target`` is the plan key of the same name (for a power prior, the key
of its block), with the field's default, and each field of
``BootstrapConfig`` is a key of the ``bootstrap`` block. A key is checked by
the check its field declares, the one the constructor runs, and a failure is
PlanInvalid with the constructor's text.
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

from .borrow import PowerPriorAnalysis
from .dataset import (
    AggregateSummary,
    Dataset,
    Group,
    OutcomeKind,
    csv_text,
    load_aggregate,
    load_dataset,
)
from .diagnostics import CHECKLIST_FIELDS, comparability_checklist
from .errors import (InvalidConfig, ParameterOutOfRange, PlanInvalid, checked_field as _field,
                     checked_setting, is_int)
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
    settings: dict  # the checked analysis settings the plan sets (see parse_plan)
    bootstrap: Optional[BootstrapConfig]
    checklist: dict
    seed: int
    hash: str


def load_plan(path) -> AnalysisPlan:
    path = Path(path)
    try:
        raw = json.loads(path.read_text(encoding="utf-8-sig"))
    except (OSError, ValueError) as exc:  # ValueError: not JSON, or not UTF-8
        raise PlanInvalid(f"{path}: cannot read plan ({exc})") from None
    return parse_plan(raw)


_ANALYSES = {Method.WEIGHTING: WeightingAnalysis, Method.MAIC: MaicAnalysis,
             Method.STC: StcAnalysis, Method.POWER_PRIOR: PowerPriorAnalysis}

# The keys every plan may hold, and the keys each method reads besides them.
_SHARED_KEYS = {"method", "aggregate", "seed", "checklist"}
_METHOD_KEYS = {method: {f.name for f in dataclasses.fields(cls) if f.name != "target"}
                | {"dataset", "bootstrap"} for method, cls in _ANALYSES.items()}
_METHOD_KEYS[Method.STC].add("link")
_METHOD_KEYS[Method.POWER_PRIOR] = {"power_prior"}

# The keys a plan ("") and each of its blocks may hold.
_KEYS = {"": _SHARED_KEYS.union(*_METHOD_KEYS.values()),
         "bootstrap": {f.name for f in dataclasses.fields(BootstrapConfig)},
         "power_prior": {f.name for f in dataclasses.fields(PowerPriorAnalysis)}
         | {"assume_comparable"},
         "checklist": set(CHECKLIST_FIELDS)}


def _settings(cls, doc: dict, where: str = "") -> dict:
    """The settings ``doc`` gives the fields of the analysis ``cls``, each
    parsed, checked and read as its field declares, in field order. A field
    with no default but ``target`` is checked even when ``doc`` leaves it out.
    An analysis without a ``target`` is then built from them, so that its own
    rules run too. A failure is PlanInvalid with the constructor's text."""
    names = [f.name for f in dataclasses.fields(cls)]
    settings = {}
    try:
        for f in dataclasses.fields(cls):
            if f.name in doc or (f.default is dataclasses.MISSING and f.name != "target"):
                value, parse = doc.get(f.name), f.metadata["parse"]
                settings[f.name] = checked_setting(f, parse(value) if parse else value, where)
        if "target" not in names:
            cls(**settings)  # its rules that involve more than one field, such as x <= n
    except ParameterOutOfRange as exc:
        raise PlanInvalid(str(exc)) from None
    return settings


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
    unread = sorted(set(raw) - _SHARED_KEYS - _METHOD_KEYS[method])
    if unread:
        raise PlanInvalid(f"method {method.value} reads no plan key {unread[0]!r}")

    def path(value):
        return value is None or isinstance(value, str)

    dataset_path = _field(raw, "dataset", None, path, "a file path")
    aggregate_path = _field(raw, "aggregate", None, path, "a file path")
    if "dataset" in _METHOD_KEYS[method] and not dataset_path:
        raise PlanInvalid(f"method {method.value} requires a dataset path")
    if method in (Method.MAIC, Method.STC) and not aggregate_path:
        raise PlanInvalid(f"method {method.value} requires an aggregate file")
    if method not in (Method.MAIC, Method.STC) and aggregate_path is not None:
        raise PlanInvalid(f"method {method.value} takes no aggregate file")

    # The checked analysis settings the plan sets, by key: a weighting, MAIC or
    # STC plan's at its top level, a power prior's in its block (below).
    settings = {} if method is Method.POWER_PRIOR else _settings(_ANALYSES[method], raw)
    try:
        Link(raw.get("link", "identity"))  # STC checks it against the outcome's link
    except ValueError as exc:
        raise PlanInvalid(f"bad scale or link: {exc}") from None
    seed = _field(raw, "seed", 0, is_int, "an integer")
    checklist = _field(raw, "checklist", {}, lambda v: isinstance(v, dict), "an object")

    bconf = None
    if "bootstrap" in raw:
        b = _field(raw, "bootstrap", None, lambda v: isinstance(v, dict), "an object")
        try:  # the block's keys are known (see _KEYS); the plan seed is its default
            bconf = BootstrapConfig(**{"seed": seed, **b})
        except InvalidConfig as exc:
            raise PlanInvalid(str(exc)) from None

    if method is Method.POWER_PRIOR:
        block = raw.get("power_prior")
        if not isinstance(block, dict) or not block:
            raise PlanInvalid("power_prior method requires a power_prior block")
        if block.get("assume_comparable") is not True:  # JSON true, not "no" or 1
            raise PlanInvalid("power-prior borrowing requires the explicit assume_comparable "
                              "flag (CLI: --assume-comparable)")
        settings = _settings(PowerPriorAnalysis, block, "power_prior ")

    return AnalysisPlan(
        raw=raw,
        method=method,
        dataset_path=dataset_path,
        aggregate_path=aggregate_path,
        settings=settings,
        bootstrap=bconf,
        checklist=checklist,
        seed=seed,
        hash=plan_hash(raw),
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


def _report(plan: AnalysisPlan, steps, analysis, **provenance) -> dict:
    """The provenance and the checklist that open every report, with the
    covariates and estimand of ``analysis`` when it has them."""
    provenance = {"schema": SCHEMA_VERSION, "plan_hash": plan.hash, "method": plan.method.value,
                  "steps": list(steps), "seed": plan.seed,
                  "covariates": getattr(analysis, "covariates", None), **provenance}
    if hasattr(analysis, "estimand"):
        provenance["estimand"] = analysis.estimand.label
    return {"provenance": provenance, "checklist": comparability_checklist(plan.checklist)}


def _analysis(plan: AnalysisPlan, target: Optional[AggregateSummary], scale: Optional[Scale]):
    """The analysis of the plan's method: its settings and, if it has those
    fields, ``target`` and the checked ``scale``.

    An STC plan's ``link``, if it names one, must be the link the outcome
    gives its model."""
    if plan.method is Method.STC:
        link = outcome_link(target.outcome_kind).value
        if plan.raw.get("link", link) != link:
            raise PlanInvalid(f"link {plan.raw['link']} does not fit a "
                              f"{target.outcome_kind.value} outcome; its STC link is {link}")
    cls = _ANALYSES[plan.method]
    settings = {**plan.settings, "target": target, "scale": scale}
    return cls(**{f.name: settings[f.name] for f in dataclasses.fields(cls) if f.name in settings})


def run_plan(plan: AnalysisPlan) -> RunArtifacts:
    """Execute a validated plan and assemble its artifacts.

    The plan's scale is checked against the outcome before any fit. The
    plan's analysis runs once on its sample, the trial rows of a plan with
    an aggregate and all rows otherwise, and gives the effect report and the
    method's own report blocks, tables and curves. The bootstrap, when the
    plan asks for one, refits that same analysis on every replicate of the
    sample. On data without outcomes a weighting plan runs ``run_design``
    and may set no scale, horizon or bootstrap; a horizon needs a
    time-to-event outcome. A power prior, which names no dataset, counts
    binary responders, and its analysis runs on no sample.
    """
    data = load_dataset(plan.dataset_path) if plan.dataset_path else None
    target = load_aggregate(plan.aggregate_path) if plan.aggregate_path else None
    kind = OutcomeKind.BINARY if data is None else data.outcome_kind
    if kind is None and plan.method is Method.WEIGHTING:
        for key in ("scale", "horizon", "bootstrap"):
            if key in plan.raw:
                raise PlanInvalid(f"{key} needs outcomes, and {plan.dataset_path} has none")
        return run_design(plan, data)
    if plan.settings.get("horizon") is not None and kind is not OutcomeKind.TIME_TO_EVENT:
        raise PlanInvalid(f"horizon needs a time-to-event outcome, and the outcome of "
                          f"{plan.dataset_path} is {kind.value}")
    scale = check_scale(kind, plan.settings.get("scale"),
                        target.outcome_kind if target else None)
    analysis = _analysis(plan, target, scale)
    report = _report(plan, _STEPS, analysis, scale=scale.value)
    sample = data.restrict(Group.TRIAL) if target else data
    effect, blocks, tables, curves = analysis.run(sample)
    if effect is not None:
        # The method's resolved names (matched covariates, link) win over the plan's.
        effect.provenance = {**report["provenance"], **effect.provenance}
        report["effect"] = effect.to_dict()
    report.update(blocks)
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
    return RunArtifacts({**_report(plan, _STEPS[:2], analysis), "design": design}, tables)
