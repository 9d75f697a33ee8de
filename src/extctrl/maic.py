"""Matching-Adjusted Indirect Comparison against aggregate-only external data.

Trial subjects get exponential-tilt weights w_i = exp(x_i' alpha), with
covariates centered at the published external means, so the weighted trial
covariate means match the external ones. The target population is the
external control population (ATC). The moment condition is solved by
minimizing the convex objective sum_i exp(x_i' alpha) with a damped Newton
method.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import AggregateSummary, Dataset, Group, OutcomeKind
from .errors import (
    CollinearCovariates,
    NoConvergence,
    ScaleIncompatibleWithOutcome,
    TargetOutsideSupport,
)
from .estimators import EffectReport, Scale, check_scale, contrast_on_scale, hajek_mean

TARGET_POPULATION = "external control population (ATC)"

_LINE_SEARCH_SLACK = 1.0 + 8.0 * np.finfo(float).eps

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
    objective_trace: tuple[float, ...] = ()


def maic_weights(
    trial: Dataset,
    target: AggregateSummary,
    covariates: Optional[Sequence[str]] = None,
    tol: float = 1e-8,
    max_iter: int = 200,
) -> MaicFit:
    """Solve for exponential-tilt weights matching trial means to the target.

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
    X = trial.covariate_matrix(names)
    mu = np.array([target.mean_of(c) for c in names])

    # Feasibility: positive exponential weights can only reach means strictly
    # inside the componentwise range of the trial values.
    for j, name in enumerate(names):
        lo, hi = X[:, j].min(), X[:, j].max()
        if not lo < mu[j] < hi:
            raise TargetOutsideSupport(
                f"target mean {mu[j]} for {name!r} outside open trial range ({lo}, {hi})"
            )

    Xc = X - mu
    if np.linalg.matrix_rank(Xc) < Xc.shape[1]:
        raise CollinearCovariates("centered covariate matrix is rank deficient")

    alpha = np.zeros(Xc.shape[1])
    converged = False
    iterations = 0
    objective = float(np.sum(np.exp(Xc @ alpha)))
    trace = [objective]
    for iterations in range(1, max_iter + 1):
        expo = np.exp(Xc @ alpha)
        grad = Xc.T @ expo
        if np.max(np.abs(grad)) < tol:
            converged = True
            break
        hess = (Xc * expo[:, None]).T @ Xc
        try:
            step = np.linalg.solve(hess, grad)
        except np.linalg.LinAlgError:
            raise NoConvergence("singular Hessian in MAIC solver") from None
        # Damped Newton: halve until the convex objective does not increase.
        # Near the optimum a sum of many exponentials cannot fall by more
        # than its rounding, so a rise within a few ulps counts as no rise;
        # otherwise the step would be halved to nothing with the gradient
        # still above tol.
        scale = 1.0
        for _ in range(60):
            cand = alpha - scale * step
            cand_obj = float(np.sum(np.exp(Xc @ cand)))
            if cand_obj <= objective * _LINE_SEARCH_SLACK:
                break
            scale *= 0.5
        alpha = alpha - scale * step
        objective = float(np.sum(np.exp(Xc @ alpha)))
        trace.append(objective)
    if not converged:
        raise NoConvergence(f"MAIC did not converge in {max_iter} iterations")

    w = np.exp(Xc @ alpha)
    achieved = (w @ X) / np.sum(w)
    ess = float(np.sum(w)) ** 2 / float(np.sum(w * w))
    return MaicFit(
        alpha=alpha[: len(names)],
        weights=w,
        matched_covariates=names,
        achieved_means=achieved,
        target_means=mu,
        ess=ess,
        iterations=iterations,
        objective_trace=tuple(trace),
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
