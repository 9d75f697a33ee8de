"""Propensity-score estimation and common-support auditing.

The propensity score is the probability of trial membership given the
observed confounders, fitted by logistic regression on the pooled trial
plus external rows. Scores are never clipped here; trimming is an explicit
estimand choice made in the balancing module.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from .dataset import Dataset
from .errors import DegenerateScores, EmptyDataset, MissingColumn, ParameterOutOfRange
from .glm import DEFAULT_TOL, GlmFit, fit_logistic


@dataclass(frozen=True)
class PropensityModel:
    glm: GlmFit
    scores: np.ndarray
    covariate_names: tuple[str, ...]


@dataclass(frozen=True)
class PositivityReport:
    trial_range: tuple[float, float]
    external_range: tuple[float, float]
    overlap_interval: Optional[tuple[float, float]]
    band: tuple[float, float]
    n_outside_trial: int
    n_outside_external: int
    prop_outside_trial: float
    prop_outside_external: float
    insufficient_overlap: bool


def is_names(v) -> bool:
    """None (every covariate) or a list of names, the ``covariates`` an analysis
    or a public function takes; not a string, which would name one per character."""
    return v is None or isinstance(v, (list, tuple)) and all(isinstance(c, str) for c in v)


def check_covariates(covariates) -> None:
    """ParameterOutOfRange unless ``is_names(covariates)``, with an analysis's text."""
    if not is_names(covariates):
        raise ParameterOutOfRange(f"covariates must be a list of names, got {covariates!r}")


def estimate_propensity(
    data: Dataset,
    covariates: Optional[Sequence[str]] = None,
    tol: float = DEFAULT_TOL,
) -> PropensityModel:
    """Fit the trial-membership logistic model and score every subject.

    Parameters
    ----------
    data : Dataset
        Pooled trial and external subjects.
    covariates : sequence of str, optional
        Subset of covariates to include; all by default. MissingColumn if empty.
    tol : float
        Newton decrement at which the logistic fit stops (see ``fit_logistic``).
    """
    check_covariates(covariates)
    if data.n_external == 0:
        raise EmptyDataset("propensity estimation needs external records")
    names = tuple(covariates) if covariates is not None else data.covariate_names
    if not names:  # an intercept-only model would adjust for nothing
        raise MissingColumn("no covariate to fit the propensity model on")
    X = _design(data.covariate_matrix(names))
    fit = fit_logistic(X, data.group_mask.astype(float), tol=tol)
    scores = fit.predict(X)
    if not 0.0 < scores.min() <= scores.max() < 1.0:
        raise DegenerateScores("fitted propensity score hit 0 or 1")
    return PropensityModel(glm=fit, scores=scores, covariate_names=names)


def _design(X: np.ndarray) -> np.ndarray:
    """``add_intercept(X[:, varying])`` for the columns of ``X`` that are not
    constant, built in one pass.

    A constant covariate carries no membership information and would make the
    design rank deficient. The result has that composition's memory layout:
    NumPy lays ``X[:, mask]`` out column by column when it keeps two or more
    columns, and ``add_intercept`` keeps that order, so the design is then
    F-ordered, and C-ordered otherwise. The layout picks the BLAS kernel that
    computes the scores ``X @ beta``, and the two kernels round differently.
    """
    # Each range is one pass over a contiguous row of the transpose.
    XT = np.ascontiguousarray(X.T)
    varying = (np.maximum.reduce(XT, axis=1) > np.minimum.reduce(XT, axis=1)).tolist()
    kept = XT if all(varying) else XT[varying]
    design = np.empty((len(X), len(kept) + 1), order="F" if len(kept) > 1 else "C")
    design[:, 0] = 1.0
    design[:, 1:] = kept.T
    return design


def positivity_report(
    model: PropensityModel, data: Dataset, a: float = 0.1
) -> PositivityReport:
    """Summarize per-group score ranges and mass outside the band (a, 1-a).

    ``insufficient_overlap`` is raised when the group score ranges do not
    intersect or when more than 20% of either group lies outside the band.
    """
    if not 0.0 <= a < 0.5:
        raise ParameterOutOfRange(f"band parameter a={a} must be in [0, 0.5)")
    e = model.scores
    trial = data.group_mask
    e_t, e_x = e[trial], e[~trial]
    lo = max(e_t.min(), e_x.min())
    hi = min(e_t.max(), e_x.max())
    overlap = (float(lo), float(hi)) if lo <= hi else None
    outside = (e <= a) | (e >= 1.0 - a) if a > 0 else np.zeros(len(e), dtype=bool)
    n_out_t = int(np.sum(outside[trial]))
    n_out_x = int(np.sum(outside[~trial]))
    p_out_t = n_out_t / len(e_t)
    p_out_x = n_out_x / len(e_x)
    return PositivityReport(
        trial_range=(float(e_t.min()), float(e_t.max())),
        external_range=(float(e_x.min()), float(e_x.max())),
        overlap_interval=overlap,
        band=(a, 1.0 - a),
        n_outside_trial=n_out_t,
        n_outside_external=n_out_x,
        prop_outside_trial=p_out_t,
        prop_outside_external=p_out_x,
        insufficient_overlap=overlap is None or p_out_t > 0.2 or p_out_x > 0.2,
    )
