"""Simulated Treatment Comparison.

An outcome model is fitted on trial subjects (logistic for a binary outcome,
linear for a continuous one), its linear predictor is evaluated at the
external population's published covariate means, and the inverse-linked
prediction is contrasted against the observed aggregate outcome. For the
logit link this plug-in at the mean is not the same as the
population-average prediction (non-collapsibility); every report carries
that warning.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import AggregateSummary, Dataset, Group, OutcomeKind
from .errors import ZeroDenominator, check_settings, setting
from .estimators import (EffectReport, Scale, check_scale, contrast_on_scale, covariates_field,
                         scale_field)
from .glm import (GlmFit, LogisticDesign, add_intercept, fit_linear, fit_logistic,
                  fit_logistic_counts)
from .propensity import check_covariates

TARGET_POPULATION = "external control population"

NONCOLLAPSIBILITY_WARNING = (
    "logit-link prediction is a plug-in at the aggregate covariate means, "
    "not a population-average prediction; these differ under a nonlinear link"
)

CONSTANCY_CAVEAT = (
    "unanchored comparison: validity rests on conditional constancy of the "
    "absolute effect and on all effect modifiers and prognostic variables "
    "being observed and modeled"
)


class Link(enum.Enum):
    IDENTITY = "identity"
    LOGIT = "logit"


def outcome_link(kind: OutcomeKind) -> Link:
    """The outcome model's link: logit for a binary outcome, identity otherwise."""
    return Link.LOGIT if kind is OutcomeKind.BINARY else Link.IDENTITY


def _inverse_logit(eta: float) -> float:
    """1 / (1 + exp(-eta)), and its limit 0.0 where exp(-eta) overflows."""
    try:
        return 1.0 / (1.0 + math.exp(-eta))
    except OverflowError:
        return 0.0


def _stc_inputs(trial, target, covariates, scale):
    """Checked inputs of the outcome model and of the prediction.

    Returns the resolved scale, the covariate names, the trial design and
    outcomes, the target design row (intercept and aggregate means) and the
    observed aggregate outcome.
    """
    trial = trial.restrict(Group.TRIAL)
    scale = check_scale(trial.outcome_kind, scale, target.outcome_kind)
    names = target.matched_covariates(trial, covariates)
    X = add_intercept(trial.covariate_matrix(names))
    y = trial.outcomes()
    x_target = np.concatenate([[1.0], [target.mean_of(c) for c in names]])
    return scale, names, X, y, x_target, target.outcome_value()


def stc_estimate(
    trial: Dataset,
    target: AggregateSummary,
    covariates: Optional[Sequence[str]] = None,
    scale: Optional[Scale] = None,
) -> tuple[GlmFit, EffectReport]:
    """Fit the trial outcome model and predict into the external population.

    Returns the outcome model's fit and the effect report, whose group
    summary holds the predicted and the observed external outcome. The
    model follows the outcome of the trial, which must be of the
    aggregate's kind, and a ``scale`` of None is that outcome's default
    (``estimators.check_scale``). The covariate list is the analyst's
    explicit designation of effect modifiers and prognostic variables.
    """
    check_covariates(covariates)
    scale, names, X, y, x_target, observed = _stc_inputs(trial, target, covariates, scale)
    link = outcome_link(target.outcome_kind)
    fit = fit_logistic(X, y) if link is Link.LOGIT else fit_linear(X, y)
    eta = float(fit.coefficients @ x_target)
    predicted = _inverse_logit(eta) if link is Link.LOGIT else eta

    effect, infinite = contrast_on_scale(predicted, observed, scale)
    warnings = [CONSTANCY_CAVEAT]
    if link is Link.LOGIT:
        warnings.append(NONCOLLAPSIBILITY_WARNING)
    return fit, EffectReport(
        estimand_label="stc",
        target_population=TARGET_POPULATION,
        scale=scale,
        point=effect,
        group_summary={
            "predicted_trial_outcome_in_external_population": predicted,
            "observed_external_outcome": observed,
        },
        warnings=warnings,
        infinite=infinite,
        provenance={"covariates": list(names), "link": link.value},
    )


@dataclass(frozen=True)
class StcAnalysis:
    """The STC effect as one analysis.

    ``run`` fits the outcome model on the trial rows of a dataset and gives
    the effect report of ``stc_estimate``, no report block, no table and no
    curves; calling the analysis on a dataset returns the point of that
    report. With the logit link (a binary outcome), ``batch`` prepares
    the outcome model's design once and returns a function that gives the
    same effect or error class for every count vector of a bootstrap block
    (see ``inference.bootstrap_ci``), fitting the block's outcome models at
    once with ``glm.fit_logistic_counts``; no replicate calls the analysis.

    Each field but ``target`` is the STC plan key of the same name, and its
    default is the value of a plan that does not set that key. Each declares
    its check, which the constructor runs (ParameterOutOfRange).
    """

    target: AggregateSummary = setting("an AggregateSummary",
                                       lambda v: isinstance(v, AggregateSummary))
    covariates: Optional[Sequence[str]] = covariates_field()
    scale: Optional[Scale] = scale_field()

    __post_init__ = check_settings

    def run(self, data: Dataset) -> tuple:
        return stc_estimate(data, self.target, self.covariates, self.scale)[1], {}, {}, None

    def __call__(self, data: Dataset) -> float:
        return stc_estimate(data, self.target, self.covariates, self.scale)[1].point

    @property
    def batch(self):
        # Only the logit model has a batched fit; None sends every replicate
        # through the pipeline (see ``inference.bootstrap_ci``).
        return self._batch_logit if outcome_link(self.target.outcome_kind) is Link.LOGIT else None

    def _batch_logit(self, data: Dataset):
        """The block fit of ``data``: prepared once, it maps each b x n count
        block to the replicate effects and error classes."""
        scale, _, X, y, x_target, observed = _stc_inputs(
            data, self.target, self.covariates, self.scale)
        design = LogisticDesign(X, y)
        # A plan's STC sample holds trial rows only, and its counts are the design's.
        trial = None if data.group_mask.all() else data.group_mask

        def fit_block(counts: np.ndarray):
            if trial is not None:
                counts = counts[:, trial]
            beta, errors = fit_logistic_counts(design, counts)
            values = np.full(len(counts), np.nan)
            for r in np.flatnonzero([e is None for e in errors]):
                predicted = _inverse_logit(float(beta[r] @ x_target))
                try:
                    values[r] = contrast_on_scale(predicted, observed, scale)[0]
                except ZeroDenominator:
                    errors[r] = ZeroDenominator
            return values, errors

        return fit_block
