"""Matching-Adjusted Indirect Comparison against aggregate-only external data.

Trial subjects get exponential-tilt weights w_i = exp(x_i' alpha), with
covariates centered at the published external means, so the weighted trial
covariate means match the external ones. The target population is the
external control population (ATC). The moment condition is solved by
minimizing the convex objective sum_i exp(x_i' alpha) in the Newton core of
``glm``, the one the logistic fits run (unit-norm columns, full steps, a stop
on the Newton decrement, its rank check and Konis's program, which here tests
the trial convex hull), so no verdict depends on covariate units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .balancing import effective_sample_size
from .dataset import AggregateSummary, Dataset, Group
from .errors import (AllWeightsZero, CollinearCovariates, NoConvergence, RankDeficientDesign,
                     SeparationDetected, TargetOutsideSupport)
from .estimators import EffectReport, Scale, check_scale, contrast_on_scale, weights_table
from .glm import _EPS, DEFAULT_MAX_ITER, DEFAULT_TOL, LogisticDesign, _newton

TARGET_POPULATION = "external control population (ATC)"

CONSTANCY_CAVEAT = (
    "unanchored comparison: validity rests on conditional constancy of the "
    "absolute effect and on all effect modifiers and prognostic variables "
    "being observed and matched"
)


@dataclass(frozen=True)
class MaicFit:
    alpha: np.ndarray
    weights: np.ndarray
    matched_covariates: tuple[str, ...]
    achieved_means: np.ndarray
    target_means: np.ndarray
    ess: float
    iterations: int


def maic_weights(
    trial: Dataset,
    target: AggregateSummary,
    covariates: Optional[Sequence[str]] = None,
) -> MaicFit:
    """Solve for exponential-tilt weights matching trial means to the target.

    The objective has a minimum exactly when the target lies inside the trial
    convex hull; otherwise some alpha != 0 has x_i' alpha >= 0 on every
    centered row (TargetOutsideSupport). The covariates are CollinearCovariates
    when their centered Gram matrix has eigenvalue ratio at most max(n, p) eps,
    or when a step's Hessian is singular to rounding.

    Parameters
    ----------
    trial : Dataset
        Trial subjects only (external records, if present, are ignored).
    target : AggregateSummary
        Published covariate means of the external population.
    covariates : sequence of str, optional
        Names to match; defaults to the trial covariates the aggregate also
        reports (``AggregateSummary.matched_covariates``).
    """
    trial = trial.restrict(Group.TRIAL)
    names = target.matched_covariates(trial, covariates)
    X = trial.covariate_matrix(names)
    mu = np.array([target.mean_of(c) for c in names])
    Xc = X - mu
    (alpha,), errors, _, iterations = _newton(LogisticDesign(Xc, np.zeros(len(Xc))), None,
                                              DEFAULT_TOL, max(Xc.shape) * _EPS, tilt=True)
    if errors[0] is SeparationDetected:
        raise TargetOutsideSupport(f"target means {mu.tolist()} for {list(names)} lie "
                                   "outside the interior of the trial convex hull")
    if errors[0] is RankDeficientDesign:
        raise CollinearCovariates("centered covariate matrix is rank deficient")
    if errors[0] is NoConvergence:
        raise NoConvergence(f"MAIC did not converge in {DEFAULT_MAX_ITER} iterations")
    w = np.exp(Xc @ alpha)
    achieved = mu + (w @ Xc) / np.sum(w)  # centered sums keep the digits of a small gap
    return MaicFit(
        alpha=alpha,
        weights=w,
        matched_covariates=names,
        achieved_means=achieved,
        target_means=mu,
        ess=effective_sample_size(w),
        iterations=iterations,
    )


def maic_compare(
    fit: MaicFit,
    trial: Dataset,
    target: AggregateSummary,
    scale: Optional[Scale],
) -> EffectReport:
    """Contrast the reweighted trial outcome against the aggregate outcome.

    A ``scale`` of None is the outcome's default. Zero-cell odds ratios
    yield a typed infinite contrast rather than an exception.
    """
    trial = trial.restrict(Group.TRIAL)
    scale = check_scale(trial.outcome_kind, scale, target.outcome_kind)
    y = trial.outcomes()
    w = fit.weights
    total, wy = float(np.sum(w)), float(np.sum(w * y))
    if total <= 0:
        raise AllWeightsZero("all weights are zero in the trial group")
    m1, m0 = wy / total, target.outcome_value()
    point, infinite = contrast_on_scale(m1, m0, scale)
    return EffectReport(
        estimand_label="maic",
        target_population=TARGET_POPULATION,
        scale=scale,
        point=point,
        group_summary={"trial_weighted": m1, "external": m0},
        ess={"trial": fit.ess, "external": float(target.n)},
        warnings=[CONSTANCY_CAVEAT],
        infinite=infinite,
        provenance={"matched_covariates": list(fit.matched_covariates)},
    )


@dataclass(frozen=True)
class MaicAnalysis:
    """The MAIC effect as one analysis.

    ``run`` solves the tilt on the trial rows of a dataset and gives the
    effect report of ``maic_compare``, the ``maic`` report block (ESS,
    achieved and target means), the ``weights.csv`` table and no curves;
    calling the analysis on a dataset returns the point of that report.

    Each field but ``target`` is the MAIC plan key of the same name, and its
    default is the value of a plan that does not set that key.
    """

    target: AggregateSummary
    covariates: Optional[Sequence[str]] = None
    scale: Optional[Scale] = None

    def run(self, data: Dataset) -> tuple:
        trial = data.restrict(Group.TRIAL)
        fit = maic_weights(trial, self.target, self.covariates)
        block = {"maic": {
            "ess": fit.ess,
            "achieved_means": [float(v) for v in fit.achieved_means],
            "target_means": [float(v) for v in fit.target_means],
        }}
        weights = weights_table(trial, np.full(len(fit.weights), np.nan), fit.weights)
        return (maic_compare(fit, trial, self.target, self.scale), block,
                {"weights.csv": weights}, None)

    def __call__(self, data: Dataset) -> float:
        trial = data.restrict(Group.TRIAL)
        fit = maic_weights(trial, self.target, self.covariates)
        return maic_compare(fit, trial, self.target, self.scale).point
