"""Logistic and linear model fitting used by propensity estimation and STC.

Logistic fitting runs iteratively reweighted least squares from a zero start,
solving each inner weighted least-squares step by QR (stable up to condition
numbers around 1e8). Inference is bootstrap-based elsewhere, so no
Hessian-derived standard errors are reported here.

``fit_logistic_counts`` fits one design to a block of frequency-weight
vectors at once: row r of the count block says how many times each row of
the design enters replicate r, which is how a bootstrap resample looks on
fixed rows. Each replicate gets the coefficients and the typed verdict that
``fit_logistic`` gives on its rows repeated by those counts, or ``REFIT``
where only ``fit_logistic`` itself can decide.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import (
    ConstantResponse,
    NoConvergence,
    RankDeficientDesign,
    SeparationDetected,
)

DEFAULT_TOL = 1e-8
DEFAULT_MAX_ITER = 100

# |coefficient| beyond this on the logit scale is treated as separation.
SEPARATION_THRESHOLD = 15.0

# A replicate whose count-weighted Gram matrix has smallest/largest
# eigenvalue at or below this is left to ``fit_logistic``: it gives the exact
# rank verdict (its own cut is (rows * eps)**2 on the same ratio), and its QR
# solve stays accurate where normal equations would not. The same cut on the
# IRLS-weighted Gram matrix at convergence finds replicates whose stopping
# point ``fit_logistic`` decides by rounding: a flat likelihood ridge
# (quasi-separation), or a score that rounding keeps near the absolute
# tolerance. That floor grows with the size of the covariate values (units
# and offsets), so this cut is on the unscaled matrix, as the tolerance is.
_GRAM_SCREEN = 1e-6

# Verdict of ``fit_logistic_counts`` for a replicate that must be fitted by
# ``fit_logistic`` on its repeated rows.
REFIT = "refit"


class Family(enum.Enum):
    LOGISTIC = "logistic"
    LINEAR = "linear"


@dataclass(frozen=True)
class GlmFit:
    family: Family
    coefficients: np.ndarray
    iterations: int
    deviance: float
    max_abs_coefficient: float

    def linear_predictor(self, X: np.ndarray) -> np.ndarray:
        return X @ self.coefficients

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Fitted mean response: expit of the linear predictor for logistic."""
        eta = self.linear_predictor(X)
        if self.family is Family.LOGISTIC:
            return expit(eta)
        return eta


def expit(eta: np.ndarray) -> np.ndarray:
    """Numerically stable inverse logit."""
    eta = np.asarray(eta, dtype=float)
    # 1 / (1 + exp(-eta)) for eta >= 0 and exp(eta) / (1 + exp(eta)) below,
    # with one exp that cannot overflow.
    e = np.exp(-np.abs(eta))
    return np.where(eta >= 0, 1.0, e) / (1.0 + e)


def _check_design(X: np.ndarray, n_min: int) -> None:
    n, p = X.shape
    if n < n_min:
        raise RankDeficientDesign(f"need at least {n_min} rows, got {n}")
    if np.linalg.matrix_rank(X) < p:
        raise RankDeficientDesign("design matrix is rank deficient")


def _weighted_lstsq(X: np.ndarray, z: np.ndarray, w: np.ndarray) -> np.ndarray:
    # QR on the sqrt-weighted system; avoids forming X'WX.
    sw = np.sqrt(w)
    return np.linalg.lstsq(X * sw[:, None], z * sw, rcond=None)[0]


def fit_logistic(
    X: np.ndarray,
    y: np.ndarray,
    tol: float = DEFAULT_TOL,
    max_iter: int = DEFAULT_MAX_ITER,
) -> GlmFit:
    """Maximum-likelihood logistic regression via IRLS.

    Parameters
    ----------
    X : ndarray, shape (n, p+1)
        Design matrix including the intercept column.
    y : ndarray, shape (n,)
        0/1 responses, both values present.
    tol : float
        Convergence on the max absolute score component.
    max_iter : int
        Iteration cap.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if np.all(y == y[0]):
        raise ConstantResponse("response takes a single value")
    _check_design(X, p + 1)

    beta = np.zeros(p)
    converged = False
    iterations = 0
    for iterations in range(1, max_iter + 1):
        mu = expit(X @ beta)
        score = X.T @ (y - mu)
        if np.max(np.abs(score)) < tol:
            converged = True
            break
        w = np.clip(mu * (1.0 - mu), 1e-12, None)
        z = X @ beta + (y - mu) / w
        beta = _weighted_lstsq(X, z, w)
        if np.max(np.abs(beta)) > SEPARATION_THRESHOLD:
            raise SeparationDetected(
                "coefficient exceeded 15 on the logit scale; data are (quasi-)separated"
            )
    if not converged:
        raise NoConvergence(f"IRLS did not converge in {max_iter} iterations")

    mu = np.clip(expit(X @ beta), 1e-300, 1 - 1e-16)
    deviance = -2.0 * float(np.sum(y * np.log(mu) + (1 - y) * np.log1p(-mu)))
    return GlmFit(
        family=Family.LOGISTIC,
        coefficients=beta,
        iterations=iterations,
        deviance=deviance,
        max_abs_coefficient=float(np.max(np.abs(beta))),
    )


def fit_linear(X: np.ndarray, y: np.ndarray) -> GlmFit:
    """Ordinary least squares; deviance is the residual sum of squares."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    _check_design(X, p + 2)
    beta = np.linalg.lstsq(X, y, rcond=None)[0]
    resid = y - X @ beta
    return GlmFit(
        family=Family.LINEAR,
        coefficients=beta,
        iterations=1,
        deviance=float(resid @ resid),
        max_abs_coefficient=float(np.max(np.abs(beta))),
    )


def _outer_rows(X: np.ndarray) -> np.ndarray:
    # Row i is x_i x_i' flattened, so one (b x n) @ (n x p^2) product gives
    # every replicate's X' diag(c) X.
    n, p = X.shape
    return (X[:, :, None] * X[:, None, :]).reshape(n, p * p)


def _eigenvalue_ratio(gram: np.ndarray) -> np.ndarray:
    # Smallest over largest eigenvalue of each Gram matrix of a stack.
    eig = np.linalg.eigvalsh(gram)
    return eig[:, 0] / eig[:, -1]


def fit_logistic_counts(
    X: np.ndarray, y: np.ndarray, counts: np.ndarray
) -> tuple[np.ndarray, list]:
    """``fit_logistic`` for every frequency-weight vector of a count block.

    Parameters
    ----------
    X : ndarray, shape (n, p)
        Design matrix including the intercept column.
    y : ndarray, shape (n,)
        Responses.
    counts : ndarray, shape (b, n)
        Non-negative integer counts; row r is replicate r.

    Returns
    -------
    coefficients : ndarray, shape (b, p)
        Replicate r's fit in row r, NaN where it has no fit.
    errors : list
        Per replicate: None, the ``SolverError`` subclass ``fit_logistic``
        raises on its rows, or ``REFIT``.

    The replicates take the IRLS steps of ``fit_logistic`` as stacked Newton
    steps, beta += (X' diag(c w) X)^-1 X' diag(c) (y - mu), one matmul for
    the Gram matrices and one stacked solve per step. Each keeps the verdicts
    of ``fit_logistic``: ConstantResponse, too few rows (RankDeficientDesign),
    the same score tolerance, and the same separation threshold checked
    after every step (SeparationDetected). A converged replicate is frozen.
    A replicate is ``REFIT`` when its design is near singular (which
    includes every rank-deficient one), when it converges where the
    likelihood is nearly flat or where rounding comes near the score
    tolerance, or when it has not converged within the iteration cap.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    counts = np.asarray(counts, dtype=float)
    b, p = len(counts), X.shape[1]
    beta = np.full((b, p), np.nan)
    held = counts > 0
    constant = (np.where(held, y, np.inf).min(axis=1)
                == np.where(held, y, -np.inf).max(axis=1))
    errors = [ConstantResponse if c else None for c in constant]
    rows = counts.sum(axis=1)
    for r in np.flatnonzero(~constant & (rows < p + 1)):
        errors[r] = RankDeficientDesign
    outer = _outer_rows(X)
    near_singular = _eigenvalue_ratio((counts @ outer).reshape(b, p, p)) <= _GRAM_SCREEN
    for r in np.flatnonzero(near_singular):
        if errors[r] is None:
            errors[r] = REFIT

    active = np.flatnonzero([e is None for e in errors])
    beta[active] = 0.0
    for _ in range(DEFAULT_MAX_ITER):
        c = counts[active]
        mu = expit(beta[active] @ X.T)
        score = (c * (y - mu)) @ X
        w = np.clip(mu * (1.0 - mu), 1e-12, None)
        gram = ((c * w) @ outer).reshape(-1, p, p)
        done = np.max(np.abs(score), axis=1) < DEFAULT_TOL
        if done.any():
            ill = _eigenvalue_ratio(gram[done]) <= _GRAM_SCREEN
            for r in active[done][ill]:
                errors[r] = REFIT
        active, gram, score = active[~done], gram[~done], score[~done]
        if not len(active):
            break
        beta[active] += np.linalg.solve(gram, score[:, :, None])[:, :, 0]
        separated = np.max(np.abs(beta[active]), axis=1) > SEPARATION_THRESHOLD
        for r in active[separated]:
            errors[r] = SeparationDetected
        active = active[~separated]
    for r in active:
        errors[r] = REFIT  # fit_logistic decides NoConvergence at its own floor
    beta[[e is not None for e in errors]] = np.nan
    return beta, errors


def add_intercept(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.hstack([np.ones((X.shape[0], 1)), X])
