"""Weighted effect estimation for binary, continuous, and time-to-event outcomes.

All estimators are Hajek (ratio) forms, so weights need not be normalized.
Survival uses a weighted product-limit estimator; contrasts are survival
probability differences at a horizon, plus median read-off. Hazard ratios
are deliberately not offered.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .balancing import (Estimand, EstimandKind, WeightSet, balancing_weights, group_means,
                        weighted_prevalence)
from .dataset import Dataset, OutcomeKind
from .diagnostics import DEFAULT_SMD_THRESHOLD, balance_table
from .errors import (
    AllWeightsZero,
    MissingColumn,
    ParameterOutOfRange,
    PlanInvalid,
    PositivityHardFail,
    ScaleIncompatibleWithOutcome,
    ZeroDenominator,
)
from .propensity import estimate_propensity, positivity_report


class Scale(enum.Enum):
    RISK_DIFFERENCE = "rd"
    RISK_RATIO = "rr"
    ODDS_RATIO = "or"
    MEAN_DIFFERENCE = "md"


# The scales each outcome allows, its default first; survival gives S1(t*) - S0(t*).
_SCALES = {
    OutcomeKind.BINARY: (Scale.RISK_DIFFERENCE, Scale.RISK_RATIO, Scale.ODDS_RATIO),
    OutcomeKind.CONTINUOUS: (Scale.MEAN_DIFFERENCE,),
    OutcomeKind.TIME_TO_EVENT: (Scale.RISK_DIFFERENCE,),
}


@dataclass
class EffectReport:
    """Point estimate with provenance. ``to_dict`` writes ``ci`` as null; a
    plan with a bootstrap fills it in the report."""

    estimand_label: str
    target_population: str
    scale: Scale
    point: float
    group_summary: dict = field(default_factory=dict)
    ess: dict = field(default_factory=dict)
    diagnostics: dict = field(default_factory=dict)
    provenance: dict = field(default_factory=dict)
    warnings: list = field(default_factory=list)
    infinite: bool = False

    def to_dict(self) -> dict:
        return {
            "estimand": self.estimand_label,
            "target_population": self.target_population,
            "scale": self.scale.value,
            "point": self.point,
            "ci": None,
            "group_summary": self.group_summary,
            "ess": self.ess,
            "diagnostics": self.diagnostics,
            "provenance": self.provenance,
            "warnings": self.warnings,
            "infinite": self.infinite,
        }


@dataclass(frozen=True)
class SurvivalCurve:
    """Right-continuous step function starting at S(0) = 1.

    ``times`` are the event times; ``last_time`` is the end of follow-up, the
    largest time of a subject with positive weight, censored or not.
    """

    times: np.ndarray
    survival: np.ndarray
    at_risk: np.ndarray
    last_time: float

    def evaluate(self, t: float) -> float:
        """S(t), right-continuous."""
        idx = np.searchsorted(self.times, t, side="right") - 1
        return 1.0 if idx < 0 else float(self.survival[idx])

    def median(self) -> Optional[float]:
        """First time with S(t) <= 0.5, or None if never reached."""
        below = np.nonzero(self.survival <= 0.5)[0]
        return float(self.times[below[0]]) if len(below) else None


def contrast_on_scale(m1: float, m0: float, scale: Scale) -> tuple[float, bool]:
    """Contrast two group summaries; returns (value, is_infinite)."""
    if scale in (Scale.RISK_DIFFERENCE, Scale.MEAN_DIFFERENCE):
        return m1 - m0, False
    if scale is Scale.RISK_RATIO:
        if m0 == 0.0:
            raise ZeroDenominator("risk ratio undefined: external rate is 0")
        return m1 / m0, False
    if scale is Scale.ODDS_RATIO:
        if m0 in (0.0, 1.0) or m1 in (0.0, 1.0):
            sign = 1.0 if (m0 == 0.0 or m1 == 1.0) else 0.0
            return (math.inf if sign else 0.0), True
        return (m1 / (1.0 - m1)) / (m0 / (1.0 - m0)), False
    raise ValueError(scale)  # pragma: no cover


def check_scale(
    outcome_kind: Optional[OutcomeKind],
    scale: Optional[Scale] = None,
    aggregate_kind: Optional[OutcomeKind] = None,
) -> Scale:
    """``scale``, or the outcome's default (md if continuous, else rd) when it
    is None, checked against the outcome. MAIC and STC pass the aggregate's
    ``aggregate_kind``, which must equal ``outcome_kind`` and not be survival."""
    if outcome_kind is None:
        raise ScaleIncompatibleWithOutcome("dataset has no outcomes")
    if aggregate_kind not in (None, outcome_kind):
        raise ScaleIncompatibleWithOutcome(f"trial outcome is {outcome_kind.value} but "
                                           f"the aggregate outcome is {aggregate_kind.value}")
    if aggregate_kind is OutcomeKind.TIME_TO_EVENT:
        raise ScaleIncompatibleWithOutcome("MAIC and STC need a binary or continuous outcome")
    allowed = _SCALES[outcome_kind]
    if scale not in (None, *allowed):
        raise ScaleIncompatibleWithOutcome(
            f"scale {scale.value} not valid for {outcome_kind.value} outcomes")
    return scale or allowed[0]


def weighted_mean_contrast(
    data: Dataset, weights: WeightSet, scale: Scale
) -> EffectReport:
    """Contrast Hajek-weighted group means on the requested scale."""
    if data.outcome_kind is OutcomeKind.TIME_TO_EVENT:
        raise ScaleIncompatibleWithOutcome(
            "use weighted_km / survival_contrast for time-to-event outcomes")
    check_scale(data.outcome_kind, scale)
    m1, m0 = group_means(weights.weights, data.group_mask, data.outcomes(), weights.totals)
    point, infinite = contrast_on_scale(m1, m0, scale)
    return EffectReport(
        estimand_label=weights.estimand.label,
        target_population=weights.estimand.target_population_label,
        scale=scale,
        point=point,
        group_summary={"trial": m1, "external": m0},
        ess={"trial": weights.ess_treated, "external": weights.ess_control},
        infinite=infinite,
    )


def _tie_runs(t_sorted: np.ndarray):
    """``np.unique(t_sorted, return_inverse=True)`` of sorted times, without
    sorting them again: the distinct times start the runs of ties, and a
    row's index among them counts the starts up to it. NaNs sort last and,
    as in ``np.unique``, are one value."""
    starts = np.empty(len(t_sorted), dtype=bool)
    starts[:1] = True
    np.not_equal(t_sorted[1:], t_sorted[:-1], out=starts[1:])
    starts[np.searchsorted(t_sorted, np.nan) + 1:] = False
    return t_sorted[starts], np.cumsum(starts) - 1


def weighted_km(
    times: np.ndarray, events: np.ndarray, weights: np.ndarray
) -> SurvivalCurve:
    """Weighted Kaplan-Meier product-limit curve for one group.

    The risk set at time t holds every subject with observed time >= t, so
    subjects censored exactly at an event time still count as at risk there
    (events before censorings at ties). A negative or NaN time, an event
    code other than 0 or 1, and a negative or non-finite weight are
    ParameterOutOfRange.
    """
    times = np.asarray(times, dtype=float)
    events = np.asarray(events, dtype=float)
    weights = np.asarray(weights, dtype=float)
    # Written so that NaN fails too.
    if not np.all(times >= 0):
        raise ParameterOutOfRange("negative or NaN follow-up time")
    if not np.all((events == 0) | (events == 1)):
        raise ParameterOutOfRange("event code other than 0 or 1")
    if not np.all((weights >= 0) & (weights < np.inf)):
        raise ParameterOutOfRange("negative, infinite or NaN weight")
    if float(np.sum(weights)) <= 0:
        raise AllWeightsZero("all survival weights are zero")

    order = np.argsort(times, kind="stable")
    t_sorted = times[order]
    died = events[order] == 1
    w_sorted = weights[order]

    uniq, inverse = _tie_runs(t_sorted)
    deaths = np.bincount(inverse, weights=w_sorted * died, minlength=len(uniq))
    # Weight at risk: per-time totals summed from the last time back. Ties
    # sum in row order as in the definition, and a final event leaves S at
    # exactly 0; total minus a prefix sum would cancel to just below it.
    at_risk = np.cumsum(np.bincount(inverse, weights=w_sorted)[::-1])[::-1]
    has_event = np.zeros(len(uniq), dtype=bool)
    has_event[inverse[died]] = True
    event_times, d, n = uniq[has_event], deaths[has_event], at_risk[has_event]
    if np.any(n <= 0):
        raise AllWeightsZero(
            f"no weight at risk at event time {event_times[np.argmax(n <= 0)]}"
        )
    return SurvivalCurve(
        times=event_times, survival=np.cumprod(1.0 - d / n), at_risk=n,
        last_time=float(times[weights > 0].max()),
    )


def weighted_km_by_group(data: Dataset, weights: WeightSet) -> dict[str, SurvivalCurve]:
    t, d = data.times_events()
    trial = data.group_mask
    w = weights.weights
    return {
        "trial": weighted_km(t[trial], d[trial], w[trial]),
        "external": weighted_km(t[~trial], d[~trial], w[~trial]),
    }


def survival_contrast(
    curve_trial: SurvivalCurve,
    curve_external: SurvivalCurve,
    horizon: float,
    estimand_label: str = "",
    target_population: str = "",
) -> EffectReport:
    """S_trial(t*) - S_external(t*), evaluated right-continuously.

    A horizon beyond either group's follow-up, its last observed time, is
    evaluated there and flagged, not rejected.
    """
    if horizon < 0:
        raise ParameterOutOfRange("horizon must be >= 0")
    warnings = []
    if horizon > curve_trial.last_time or horizon > curve_external.last_time:
        warnings.append(
            "horizon beyond observed follow-up; evaluated at last observed time"
        )
    s1 = curve_trial.evaluate(horizon)
    s0 = curve_external.evaluate(horizon)
    report = EffectReport(
        estimand_label=estimand_label,
        target_population=target_population,
        scale=Scale.RISK_DIFFERENCE,
        point=s1 - s0,
        group_summary={
            "trial_survival": s1,
            "external_survival": s0,
            "trial_median": curve_trial.median(),
            "external_median": curve_external.median(),
            "horizon": horizon,
        },
        warnings=warnings,
    )
    return report


def weights_table(data: Dataset, scores: np.ndarray, weights: np.ndarray) -> tuple:
    """The (header, columns) of ``weights.csv``, one row per subject of ``data``."""
    groups = np.where(data.group_mask, "trial", "external")
    return ("id", "group", "score", "weight"), (data.ids, groups, scores, weights)


@dataclass(frozen=True)
class WeightingAnalysis:
    """Propensity model, balancing weights and contrast, as one analysis.

    ``run`` gives the effect report, with the design's diagnostics, no
    report block, the ``weights.csv`` and ``balance.csv`` tables and the
    weighted KM curves of a time-to-event outcome (None otherwise). The
    effect is the weighted mean contrast on ``scale``, or the survival
    difference at ``horizon``. Calling the analysis on a dataset refits the
    propensity model and the weights and returns the point of that effect,
    so a bootstrap replicate runs the same code as the point estimate; it
    runs no overlap check and accepts an intercept-only model (every
    covariate constant), which ``design`` rejects as MissingColumn. Both
    raise PlanInvalid, before any fit, on a time-to-event outcome with no
    horizon. ``design`` and ``diagnostics`` read no outcome.

    Each field is the weighting plan key of the same name, and its default
    is the value of a plan that does not set that key (``plan.parse_plan``).
    """

    estimand: Estimand = Estimand(EstimandKind.ATE)
    scale: Optional[Scale] = None
    covariates: Optional[Sequence[str]] = None
    horizon: Optional[float] = None
    positivity_a: float = 0.1
    fail_on_overlap: bool = False
    smd_threshold: float = DEFAULT_SMD_THRESHOLD

    def design(self, data: Dataset) -> tuple:
        """The propensity model, its positivity report and the balancing weights."""
        model = estimate_propensity(data, self.covariates)
        if len(model.glm.coefficients) == 1:
            raise MissingColumn(f"covariates {list(model.covariate_names)} are constant: "
                                "no covariate to fit the propensity model on")
        positivity = positivity_report(model, data, self.positivity_a)
        if self.fail_on_overlap and positivity.insufficient_overlap:
            raise PositivityHardFail("insufficient propensity-score overlap")
        return model, positivity, balancing_weights(model, data, self.estimand)

    def diagnostics(self, data: Dataset, model, positivity, wset: WeightSet) -> tuple:
        """The diagnostics of the design, and its weights.csv and balance.csv."""
        table = balance_table(data, wset, self.smd_threshold)
        diagnostics = {"positivity": positivity, "balance": table, "weighted_prevalence": {
            name: list(weighted_prevalence(wset, data, name)) for name in data.covariate_names}}
        smds = np.array([(r.unweighted_smd, r.weighted_smd) for r in table.rows], dtype=float)
        return diagnostics, {"weights.csv": weights_table(data, model.scores, wset.weights),
                             "balance.csv": (("covariate", "unweighted_smd", "weighted_smd"), (
                                 [r.covariate for r in table.rows], smds[:, 0], smds[:, 1]))}

    def _check_horizon(self, data: Dataset) -> None:
        if data.outcome_kind is OutcomeKind.TIME_TO_EVENT and self.horizon is None:
            raise PlanInvalid("a time-to-event outcome needs a survival horizon")

    def run(self, data: Dataset) -> tuple:
        self._check_horizon(data)
        model, positivity, wset = self.design(data)
        curves, effect = self._effect(data, wset)
        # The tables follow the effect: the text columns of a large weights.csv
        # would otherwise add to the peak memory of the weighted KM.
        effect.diagnostics, tables = self.diagnostics(data, model, positivity, wset)
        return effect, {}, tables, curves

    def _effect(self, data: Dataset, weights: WeightSet) -> tuple:
        """The KM curves by group of a time-to-event outcome (None otherwise),
        and the effect report of ``weights``."""
        if data.outcome_kind is not OutcomeKind.TIME_TO_EVENT:
            return None, weighted_mean_contrast(data, weights, self.scale)
        curves = weighted_km_by_group(data, weights)
        effect = survival_contrast(
            curves["trial"], curves["external"], self.horizon,
            estimand_label=self.estimand.label,
            target_population=self.estimand.target_population_label,
        )
        return curves, effect

    def __call__(self, data: Dataset) -> float:
        self._check_horizon(data)
        model = estimate_propensity(data, self.covariates)
        return self._effect(data, balancing_weights(model, data, self.estimand))[1].point
