"""Matching-Adjusted Indirect Comparison against aggregate-only external data.

Trial subjects get exponential-tilt weights w_i = exp(x_i' alpha), with
covariates centered at the published external means, so the weighted trial
covariate means match the external ones. The target population is the
external control population (ATC). The moment condition is solved by
minimizing the convex objective sum_i exp(x_i' alpha) by the rules of the
logistic Newton core in ``glm`` (unit-norm columns, full steps, a stop on the
Newton decrement, its rank check and Konis's program for the trial convex
hull), so no verdict depends on covariate units.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import AggregateSummary, Dataset, Group, OutcomeKind
from .errors import (
    CollinearCovariates,
    MissingColumn,
    NoConvergence,
    ScaleIncompatibleWithOutcome,
    TargetOutsideSupport,
)
from .estimators import EffectReport, Scale, check_scale, contrast_on_scale, hajek_mean
from .glm import (_EPS, _ETA_BOUND, DEFAULT_MAX_ITER, DEFAULT_TOL, _ill_conditioned,
                  _separated, _unit_columns)

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
    when their centered Gram matrix has eigenvalue ratio at most max(n, p) eps.

    Parameters
    ----------
    trial : Dataset
        Trial subjects only (external records, if present, are ignored).
    target : AggregateSummary
        Published covariate means of the external population.
    covariates : sequence of str, optional
        Names to match; defaults to the intersection order of the trial set.
    """
    trial = trial.restrict(Group.TRIAL)
    if covariates is None:
        covariates = [c for c in trial.covariate_names if c in target.covariate_names]
    names = tuple(covariates)
    if not names:
        raise MissingColumn("no covariate to match: the trial and the aggregate share none")
    X = trial.covariate_matrix(names)
    mu = np.array([target.mean_of(c) for c in names])
    Xc = X - mu
    Z, scale = _unit_columns(Xc)
    n, p = Z.shape

    def check_support():
        if _separated(Xc, np.ones(n), np.ones(n)):
            raise TargetOutsideSupport(f"target means {mu.tolist()} for {list(names)} lie "
                                       "outside the interior of the trial convex hull")

    a, tested = np.zeros(p), False  # tested: the support check has run
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        eta = Z @ a
        if not tested and np.abs(eta).max() > _ETA_BOUND:
            tested = True
            check_support()
        # The objective scaled so its largest term is 1: the step is unchanged,
        # nothing overflows, and the decrement stays of order 1 on the way out
        # of the hull and falls like exp(-|x'alpha|) towards its boundary.
        w = np.exp(eta - eta.max())
        grad = w @ Z
        hess = (Z.T * w) @ Z
        if iterations == 1 and _ill_conditioned(hess[None], max(n, p) * _EPS)[0]:
            raise CollinearCovariates("centered covariate matrix is rank deficient")
        step = np.linalg.solve(hess, grad)
        a -= step
        if grad @ step < DEFAULT_TOL:
            break
    else:
        if not tested:
            check_support()
        raise NoConvergence(f"MAIC did not converge in {DEFAULT_MAX_ITER} iterations")

    alpha = a / scale
    w = np.exp(Xc @ alpha)
    achieved = mu + (w @ Xc) / np.sum(w)  # centered sums keep the digits of a small gap
    ess = float(np.sum(w)) ** 2 / float(np.sum(w * w))
    return MaicFit(
        alpha=alpha,
        weights=w,
        matched_covariates=names,
        achieved_means=achieved,
        target_means=mu,
        ess=ess,
        iterations=iterations,
    )


def maic_compare(
    fit: MaicFit,
    trial: Dataset,
    target: AggregateSummary,
    scale: Scale,
    continuity_correction: bool = False,
) -> EffectReport:
    """Contrast the reweighted trial outcome against the aggregate outcome.

    Zero-cell odds ratios yield a typed infinite contrast rather than an
    exception; opt in to ``continuity_correction`` to add 0.5 per cell
    instead.
    """
    trial = trial.restrict(Group.TRIAL)
    check_scale(target.outcome_kind, scale)
    if trial.outcome_kind is not target.outcome_kind:
        raise ScaleIncompatibleWithOutcome(
            "trial and aggregate outcome kinds differ"
        )
    y = trial.outcomes()
    w = fit.weights
    m1 = hajek_mean(y, w)
    m0 = target.outcome_value()
    if continuity_correction and target.outcome_kind is OutcomeKind.BINARY:
        boundary = m0 in (0.0, 1.0) or m1 in (0.0, 1.0)
        if boundary:
            x0 = target.outcome_summary["responders"]
            m0 = (x0 + 0.5) / (target.n + 1.0)
            sw = float(np.sum(w))
            m1 = (float(np.sum(w * y)) + 0.5) / (sw + 1.0)
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
