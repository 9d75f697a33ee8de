"""Logistic and linear model fitting used by propensity estimation and STC.

Every logistic fit runs one stacked Newton core that fits a design to a block
of frequency-weight vectors at once. Row r of the count block says how many
times each design row enters fit r, which is how a bootstrap resample looks
on fixed rows; a single fit is a block of one all-ones row.

- The columns are scaled to unit norm, and each step solves the p x p normal
  equations H d = s with H = X' diag(c w) X, so no step depends on units.
- A fit stops on the Newton decrement s' H^-1 s, which does not change under
  affine rescaling of the covariates (Boyd & Vandenberghe 2004, 9.5.1).
- Separation is tested on the data by the linear program of Konis (2007),
  only for a fit whose linear predictor leaves the plausible range or that
  runs out of steps.

The MAIC tilt in ``maic`` solves its Newton steps by the same rules and helpers.
Linear fits solve by QR. Inference is bootstrap-based elsewhere, so no
Hessian-derived standard errors are reported here.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass

import numpy as np

from .errors import ConstantResponse, NoConvergence, RankDeficientDesign, SeparationDetected

# Decrement below which a fit takes its last step and stops. It is
# dimensionless (twice the log-likelihood gain the step predicts), and Newton's
# method squares it near the optimum, so the fit returned sits ~1e-24 from the
# maximum, about where rounding in the score leaves a fit on thousands of rows.
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100

# A fitted |x'beta| beyond this (a probability within 2e-9 of 0 or 1) runs the
# separation test: on separated data the decrement only falls like exp(-|x'beta|).
_ETA_BOUND = 20.0

# Unless the rows are separated, beta = 0 is the program's only feasible point.
_SEPARATION_MARGIN = 1e-6

# The batch leaves to ``fit_logistic`` a replicate whose Hessian has eigenvalue
# ratio at most this at the start (which holds every rank verdict of its smaller
# cut) or at convergence (where rounding would part the two fits by more than
# 1e-10), or with a coefficient beyond _COEFFICIENT_SCREEN, where rounding grows
# with the coefficients. These screens decide only which path fits a replicate.
_GRAM_SCREEN = 1e-6
_COEFFICIENT_SCREEN = 1e4

# Verdict of ``fit_logistic_counts``: fit this replicate's rows with ``fit_logistic``.
REFIT = "refit"

_EPS = np.finfo(float).eps


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


def _ill_conditioned(H: np.ndarray, cut: float) -> np.ndarray:
    """Per stacked symmetric matrix: eigenvalue ratio at most ``cut`` (a zero matrix too)."""
    eig = np.linalg.eigvalsh(H)
    return eig[:, 0] <= cut * eig[:, -1]


def _unit_columns(X: np.ndarray):
    """``X`` with unit-norm columns, reached through the largest entry so no
    square underflows, and the factor each column was divided by."""
    big = np.abs(X).max(axis=0)
    X = X / np.where(big > 0, big, 1.0)
    norm = np.sqrt(np.einsum("ij,ij->j", X, X))
    return X / np.where(norm > 0, norm, 1.0), np.where(big > 0, big * norm, 1.0)


def _separated(X: np.ndarray, y: np.ndarray, c: np.ndarray) -> bool:
    """Konis (2007): are the rows with c > 0 completely or quasi-separated?

    They are when some beta != 0 has (2y - 1) x'beta >= 0 on every row; the
    program maximises the count-weighted sum of those margins over a box. It
    runs on the distinct rows, each column scaled by its largest entry, so a
    fit and its rows repeated by counts pose the same program.
    """
    from scipy.optimize import linprog  # at module level it slows start-up

    held = c > 0
    rows, index = np.unique(np.column_stack([X[held], y[held]]), axis=0, return_inverse=True)
    A = (2.0 * rows[:, -1:] - 1.0) * rows[:, :-1]
    A /= np.maximum(np.abs(A).max(axis=0), np.finfo(float).tiny)
    result = linprog(-(np.bincount(index.ravel(), c[held]) @ A), A_ub=-A,
                     b_ub=np.zeros(len(A)), bounds=(-1.0, 1.0), method="highs")
    return result.status == 0 and -result.fun > _SEPARATION_MARGIN


def _newton(X, y, counts, tol, cut):
    """Newton fits of the design ``X`` for every count vector in ``counts``.

    Returns the b x p coefficients (NaN where a fit failed), per fit None or
    the ``SolverError`` subclass it ends in, the Hessian where each fit
    converged, and the number of steps. Steps are taken in u = x'beta / 2 for
    s = 2y - 1, where expit(x'beta) = (1 + tanh u) / 2: the score is
    sum c (s - tanh u) x, the Hessian sum c (1 - tanh^2 u) x x', and the
    decrement that of beta. A fit is RankDeficientDesign when the Hessian at
    the start, X' diag(c) X, has eigenvalue ratio at most ``cut``.
    """
    data, (X, scale) = X, _unit_columns(X)
    XT = np.ascontiguousarray(X.T)
    b, p = counts.shape[0], X.shape[1]
    # Row i of outer is x_i x_i' flattened: one matmul gives every Hessian.
    outer = (X[:, :, None] * X[:, None, :]).reshape(-1, p * p) if b > 1 else None
    sign = 2.0 * y - 1.0
    weighted = (counts != 1).any()
    beta, hessians = np.full((b, p), np.nan), np.zeros((b, p, p))
    errors = [None] * b
    tested = np.zeros(b, dtype=bool)  # the separation test has run
    fits, B, C = np.arange(b), np.zeros((b, p)), counts  # the fits still running
    for iterations in range(1, DEFAULT_MAX_ITER + 1):
        u = B @ XT
        if np.abs(u).max() > _ETA_BOUND / 2:
            for k in np.flatnonzero((np.abs(u).max(axis=1) > _ETA_BOUND / 2) & ~tested[fits]):
                tested[fits[k]] = True
                if _separated(data, y, C[k]):
                    errors[fits[k]] = SeparationDetected
            keep = np.array([errors[i] is None for i in fits])
            fits, B, C, u = fits[keep], B[keep], C[keep], u[keep]
            if not len(fits):
                break
        t = np.tanh(u)
        r, w = sign - t, 1.0 - t * t
        if weighted:
            r, w = C * r, C * w
        score = r @ X
        H = ((XT * w) @ X)[None] if outer is None else (w @ outer).reshape(-1, p, p)
        if iterations == 1:
            ill = _ill_conditioned(H, cut)
            if ill.any():
                for i in fits[ill]:
                    errors[i] = RankDeficientDesign
                fits, B, C, score, H = fits[~ill], B[~ill], C[~ill], score[~ill], H[~ill]
                if not len(fits):
                    break
        try:
            step = np.linalg.solve(H, score[:, :, None])[:, :, 0]
        except np.linalg.LinAlgError:  # a Hessian singular to rounding; the batch refits
            for i in fits:
                errors[i] = RankDeficientDesign
            break
        B += step
        done = (score * step).sum(axis=1) < tol
        if done.any():
            beta[fits[done]], hessians[fits[done]] = B[done], H[done]
            fits, B, C = fits[~done], B[~done], C[~done]
            if not len(fits):
                break
    else:
        for k, i in enumerate(fits):
            separated = not tested[i] and _separated(data, y, C[k])
            errors[i] = SeparationDetected if separated else NoConvergence
    return 2.0 * beta / scale, errors, hessians, iterations


_MESSAGES = {RankDeficientDesign: "design matrix is rank deficient",
             SeparationDetected: "the covariates (quasi-)separate the responses",
             NoConvergence: f"Newton steps did not converge in {DEFAULT_MAX_ITER} iterations"}


def fit_logistic(X: np.ndarray, y: np.ndarray, tol: float = DEFAULT_TOL) -> GlmFit:
    """Maximum-likelihood logistic regression of 0/1 ``y`` on ``X`` (n x p,
    intercept column included) by Newton steps, stopping at decrement ``tol``.

    The design is rank deficient when the Hessian at the start has eigenvalue
    ratio at most max(n, p) eps, the rounding level of its n-term sums.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if np.all(y == y[0]):
        raise ConstantResponse("response takes a single value")
    if n < p + 1:
        raise RankDeficientDesign(f"need at least {p + 1} rows, got {n}")
    beta, errors, _, iterations = _newton(X, y, np.ones((1, n)), tol, max(n, p) * _EPS)
    if errors[0] is not None:
        raise errors[0](_MESSAGES[errors[0]])
    beta = beta[0]
    # -2 log-likelihood: log(1 + exp(-x'beta)) for y = 1, log(1 + exp(x'beta)) for y = 0.
    deviance = 2.0 * float(np.logaddexp(0.0, (1.0 - 2.0 * y) * (X @ beta)).sum())
    return GlmFit(Family.LOGISTIC, beta, iterations, deviance, float(np.max(np.abs(beta))))


def fit_logistic_counts(X: np.ndarray, y: np.ndarray, counts: np.ndarray):
    """``fit_logistic`` for every row of a b x n block of frequency weights.

    Returns the b x p coefficients (NaN where a replicate has no fit) and,
    per replicate, None, the ``SolverError`` subclass ``fit_logistic`` raises
    on its repeated rows (ConstantResponse, RankDeficientDesign for too few
    rows, SeparationDetected), or ``REFIT`` (see _GRAM_SCREEN, and a fit not
    converged within the iteration cap).
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    counts = np.asarray(counts, dtype=float)
    b, p = len(counts), X.shape[1]
    held = counts > 0
    constant = (np.where(held, y, np.inf).min(axis=1)
                == np.where(held, y, -np.inf).max(axis=1))
    errors = [ConstantResponse if c else None for c in constant]
    for r in np.flatnonzero(~constant & (counts.sum(axis=1) < p + 1)):
        errors[r] = RankDeficientDesign
    beta = np.full((b, p), np.nan)
    fit = np.flatnonzero([e is None for e in errors])
    if len(fit):
        beta[fit], fit_errors, hessians, _ = _newton(X, y, counts[fit], DEFAULT_TOL, _GRAM_SCREEN)
        ok = np.array([e is None for e in fit_errors])
        refit = np.max(np.abs(beta[fit]), axis=1) > _COEFFICIENT_SCREEN
        if ok.any():
            refit[ok] |= _ill_conditioned(hessians[ok], _GRAM_SCREEN)
        for r, error, screen in zip(fit, fit_errors, refit):
            errors[r] = REFIT if screen or error in (RankDeficientDesign, NoConvergence) else error
        beta[[e is not None for e in errors]] = np.nan
    return beta, errors


def fit_linear(X: np.ndarray, y: np.ndarray) -> GlmFit:
    """Ordinary least squares by QR; deviance is the residual sum of squares."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < p + 2:
        raise RankDeficientDesign(f"need at least {p + 2} rows, got {n}")
    q, r = np.linalg.qr(X)
    s = np.linalg.svd(r, compute_uv=False)  # the singular values of X
    if s[-1] <= s[0] * max(n, p) * _EPS:
        raise RankDeficientDesign("design matrix is rank deficient")
    beta = np.linalg.solve(r, q.T @ y)
    resid = y - X @ beta
    return GlmFit(Family.LINEAR, beta, 1, float(resid @ resid), float(np.max(np.abs(beta))))


def add_intercept(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.hstack([np.ones((X.shape[0], 1)), X])
