"""Logistic, linear and exponential-tilt fits for propensity, STC and MAIC.

Every logistic fit and MAIC tilt runs one stacked Newton core that fits a
design to a block of frequency-weight vectors at once. It minimises the
logistic negative log-likelihood or, for the tilt, sum exp(x'beta) over a
design with all-zero responses; the two differ only in a step's weights and
residuals. Row r of the count block says how many times each design row
enters fit r, which is how a bootstrap resample looks on fixed rows; a single
fit is a block of one fit without counts. A ``LogisticDesign`` is prepared
once for any number of blocks, and each step writes into work arrays that
every block reuses. The first step starts at beta = 0, where the residuals
and Newton weights are known exactly, and computes neither.

- The columns are scaled to unit norm, and each step solves the p x p normal
  equations H d = s with H = X' diag(c w) X, so no step depends on units.
- A fit stops on the Newton decrement s' H^-1 s, which does not change under
  affine rescaling of the covariates (Boyd & Vandenberghe 2004, 9.5.1).
- Separation is tested on the data by the linear program of Konis (2007),
  only for a fit whose linear predictor leaves the plausible range or that
  runs out of steps.

The step solve and the rank checks call the LAPACK gufuncs behind
``np.linalg.solve`` and ``np.linalg.eigvalsh`` (``_umath_linalg.solve`` and
``eigvalsh_lo``, signatures ``dd->d`` and ``d->d``) directly. On the 2 x 2
systems of a bootstrap replicate most of a wrapper call is its Python set-up
(array conversion, type checks and a fresh ``errstate``), about three times
the LAPACK call, and a fit solves once per step. The results are the wrappers',
bit for bit, which ``tests/test_glm.py::test_gufuncs_match_the_public_wrappers``
pins (CI runs it on the lowest NumPy allowed, as the module is private). A
gufunc reports failure in its results, not by exception: the step of a
singular Hessian is NaN, as is an eigenvalue LAPACK did not converge to.

What the core allocates: a design makes the unit-norm transpose of its
signed rows, and its four b x n work arrays on the first fit (again only for
a larger block). Each call makes the b x p coefficients, the index
of the fits still running and, for a fit of one, the p x n product of the
transpose and the weights; each step makes the score, Hessian, step and
decrement, of b x p x p entries at most. A block returns its last step's
coefficients and Hessians when all its fits converge at that step, as a fit
of one always does, and makes result arrays only when some fit converges or
fails before the others. On the 2 x 2 fits of a bootstrap replicate every
call costs more than its arithmetic, so the step keeps its decisions (the
convergence and finiteness tests of a handful of decrements, the rank
verdicts) in Python lists.

Linear fits solve by QR. Inference is bootstrap-based elsewhere, so no
Hessian-derived standard errors are reported here.
"""

from __future__ import annotations

import enum
import math
from dataclasses import dataclass

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import (ConstantResponse, NoConvergence, ParameterOutOfRange, RankDeficientDesign,
                     SeparationDetected)

# The one call point of each LAPACK gufunc (see the module docstring).
_solve, _eigvalsh = _umath_linalg.solve, _umath_linalg.eigvalsh_lo

# Decrement below which a fit takes its last step and stops. It is
# dimensionless (twice the log-likelihood gain the step predicts), and Newton's
# method squares it near the optimum, so the fit returned sits ~1e-24 from the
# maximum, about where rounding in the score leaves a fit on thousands of rows.
DEFAULT_TOL = 1e-12
DEFAULT_MAX_ITER = 100

# A fitted |x'beta| beyond this (a probability within 2e-9 of 0 or 1) runs the
# separation test: on separated data the decrement only falls like exp(-|x'beta|).
_ETA_BOUND = 20.0
_W_BOUND = 1.0 - np.tanh(_ETA_BOUND / 2) ** 2  # the Newton weight 1 - tanh^2 u at the bound

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

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Fitted mean response: expit of the linear predictor for logistic."""
        eta = X @ self.coefficients
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


def _ill_conditioned(H: np.ndarray, cut: float) -> list:
    """Per stacked symmetric matrix: eigenvalue ratio at most ``cut`` (a zero
    matrix too), or eigenvalues NaN, where LAPACK did not converge (the caller
    ignores the invalid-value flag that sets)."""
    return [not e[0] > cut * e[-1] for e in _eigvalsh(H, signature="d->d").tolist()]


def _unit_columns(X: np.ndarray, sign=1.0):
    """The transpose of ``X`` (p x n, C-ordered, so each reduction below is one
    contiguous pass) with rows of unit norm, reached through the largest entry
    so no square underflows, and the factor each row was divided by. The
    transpose is a fresh copy, times ``sign`` (a scalar or one per row of
    ``X``), scaled in place; a zero row keeps factor 1. A sign of +-1 changes
    no factor, and negates its entries of the result exactly."""
    XT = np.multiply(X.T, sign, order="C")
    big = np.maximum.reduce(np.abs(XT), axis=1)
    factors = big.tolist()
    zero = big == 0 if 0.0 in factors else None
    if zero is not None:
        big[zero] = 1.0
    if any(f != 1.0 for f in factors):  # x / 1 is x: intercepts and 0/1 columns skip it
        XT /= big[:, None]
    norm = np.sqrt(np.einsum("ij,ij->i", XT, XT))
    if zero is not None:
        norm[zero] = 1.0
    XT /= norm[:, None]
    return XT, big * norm


def _separated(X: np.ndarray, y: np.ndarray, c) -> bool:
    """Konis (2007): are the rows with c > 0 (every row, for c None)
    completely or quasi-separated?

    They are when some beta != 0 has (2y - 1) x'beta >= 0 on every row; the
    program maximises the count-weighted sum of those margins over a box. It
    runs on the distinct rows, each column scaled by its largest entry, so a
    fit and its rows repeated by counts pose the same program.
    """
    from scipy.optimize import linprog  # at module level it slows start-up

    if c is None:
        c = np.ones(len(y))
    held = c > 0
    rows, index = np.unique(np.column_stack([X[held], y[held]]), axis=0, return_inverse=True)
    A = (2.0 * rows[:, -1:] - 1.0) * rows[:, :-1]
    A /= np.maximum(np.abs(A).max(axis=0), np.finfo(float).tiny)
    result = linprog(-(np.bincount(index.ravel(), c[held]) @ A), A_ub=-A,
                     b_ub=np.zeros(len(A)), bounds=(-1.0, 1.0), method="highs")
    return result.status == 0 and -result.fun > _SEPARATION_MARGIN


class LogisticDesign:
    """A design ``X`` (n x p) and 0/1 responses ``y``, prepared once for any
    number of Newton fits, logistic (intercept column included) or tilt
    (centered rows, ``y`` all 0): the unit-norm transpose of the signed
    rows s_i x_i, s = 2y - 1, with its column scales, the row outer products
    once a block of several fits needs them, and b x n work arrays that every
    block and step reuses (see ``inference._BLOCK_ELEMENTS``).
    """

    def __init__(self, X: np.ndarray, y: np.ndarray):
        self.X = np.asarray(X, dtype=float)
        self.y = np.asarray(y, dtype=float)
        self.XT, self.scale = _unit_columns(self.X, 2.0 * self.y - 1.0)
        self._outer = self._work = None

    def outer(self) -> np.ndarray:
        """Row i is x_i x_i' flattened, C-ordered (the signs square away): one
        matmul gives every Hessian."""
        if self._outer is None:
            X, p = self.XT.T, len(self.XT)
            self._outer = np.multiply(X[:, :, None], X[:, None, :], order="C").reshape(-1, p * p)
        return self._outer

    def work(self, b: int) -> np.ndarray:
        """Four b x n work arrays: tanh u, Newton weights, residuals and counts."""
        if self._work is None or self._work.shape[1] < b:
            self._work = np.empty((4, b, self.XT.shape[1]))
        return self._work[:, :b]


def _newton(design, counts, tol, cut, tilt=False):
    """Newton fits of a ``LogisticDesign`` for every count vector in ``counts``.

    Returns the b x p coefficients (NaN where a fit failed), per fit None or
    the ``SolverError`` subclass it ends in, the Hessian where each fit
    converged, and the number of steps. Steps are taken on the design's
    signed rows z = s x, s = 2y - 1, in u = z'beta / 2, where a row's
    likelihood is expit(s x'beta) = (1 + tanh u) / 2: the score is
    sum c (1 - tanh u) z, the Hessian sum c (1 - tanh^2 u) z z' (z z' = x x'),
    and the decrement that of beta. With ``tilt`` the fits minimise
    sum c exp(x'beta) instead, stepping in beta itself; the responses are 0,
    so z = -x and t = z'beta = -x'beta. Each step scales that objective so its
    largest term is 1: for w = exp(min t - t) = exp(x'beta - max x'beta) the
    score is sum c w z and the Hessian sum c w z z', so the step is unchanged,
    nothing overflows, and the decrement falls like exp(-|x'beta|) towards the
    boundary of the rows' convex hull; the separation test asks whether 0 lies
    outside the interior of that hull. Every step is, to the bit, that of the
    unsigned rows with residuals s - tanh(x'beta / 2) and s w: tanh is odd and
    IEEE negation commutes with rounding, so each product and sum over z is
    the negation of its counterpart over x, and no sign row is broadcast over
    the block. A fit is RankDeficientDesign when the Hessian at the start,
    X' diag(c) X, has eigenvalue ratio at most ``cut``, and every fit of the
    block is when a later Hessian is singular to rounding. ``counts`` None is
    one fit of every row once, and its steps skip the counts. Each step writes
    into the design's work arrays; the fits still running hold their first
    rows, and ``counts`` is copied there, never written.
    """
    XT = design.XT
    X = XT.T
    b, p = (1 if counts is None else counts.shape[0]), X.shape[1]
    t, w, r, c = design.work(b)  # the rows of the fits still running
    if counts is None:
        c = None
        r.fill(1.0)  # the first step's residuals
    else:
        np.copyto(c, counts)
    # One fit forms its Hessian from the rows of XT times its Newton weights,
    # written into one p x n array for all its steps; a block uses the outer products.
    outer = design.outer() if b > 1 else None
    P = np.empty_like(XT) if outer is None else None
    errors = [None] * b
    tested = set()  # the fits the separation test has run on
    fits, B = np.arange(b), np.zeros((b, p))  # the fits still running
    beta = hessians = None  # made only if not every fit converges at one step

    def stop(keep):
        """Stop every fit where ``keep`` fails: the fits kept move to the front
        of the work arrays, in order. Returns how many still run."""
        nonlocal fits, B, t, w, r, c
        rows = np.flatnonzero(keep)
        k = len(rows)
        if k and rows[-1] >= k:  # a stopped fit precedes a kept one
            for a in (t, w, r) if c is None else (t, w, r, c):
                a[:k] = a[rows]
        fits, B, t, w, r = fits[rows], B[rows], t[:k], w[:k], r[:k]
        c = None if c is None else c[:k]
        return k

    # LAPACK's NaN eigenvalues and NaN step of a singular Hessian are read below.
    with np.errstate(invalid="ignore"):
        for iterations in range(1, DEFAULT_MAX_ITER + 1):
            if iterations == 1:
                # At beta = 0 every tanh u is 0 and every tilt term 1, so the residuals and
                # the Newton weights are 1, each times its count: the values the step below
                # would compute, to the bit. s holds the residuals and v the weights (1.0
                # without counts). The product XT * 1.0 below stays: XT @ X would take
                # BLAS's symmetric kernel, which rounds differently.
                s, v = (r, 1.0) if c is None else (c, c)
            else:
                np.matmul(B, XT, out=t)
                if tilt:
                    far = np.abs(t).max(axis=1) > _ETA_BOUND
                    # The residual is the weight, in a work row of its own (stop() moves it once).
                    np.exp(np.subtract(t.min(axis=1, keepdims=True), t, out=r), out=r)
                else:
                    np.tanh(t, out=t)
                    # 1 - t^2, below _W_BOUND where |x'beta| > _ETA_BOUND
                    np.subtract(1.0, np.multiply(t, t, out=w), out=w)
                    np.subtract(1.0, t, out=r)
                    far = (w.min(axis=1) < _W_BOUND if np.minimum.reduce(w, axis=None) < _W_BOUND
                           else None)
                if far is not None and far.any():
                    for k in np.flatnonzero(far):
                        if fits[k] not in tested:
                            tested.add(fits[k])
                            if _separated(design.X, design.y, None if c is None else c[k]):
                                errors[fits[k]] = SeparationDetected
                    if not stop([errors[i] is None for i in fits]):
                        break
                if c is not None:
                    np.multiply(c, r, out=r)
                    if not tilt:
                        np.multiply(c, w, out=w)
                s, v = r, (r if tilt else w)
            score = s @ X
            if outer is None:  # XT times the n weights as a vector (a 1 x n row broadcasts slowly)
                H = (np.multiply(XT, v if isinstance(v, float) else v[0], out=P) @ X)[None]
            else:
                H = (v @ outer).reshape(-1, p, p)
            if iterations == 1:
                ill = _ill_conditioned(H, cut)
                if any(ill):
                    kept = [not i for i in ill]
                    for i in fits[ill]:
                        errors[i] = RankDeficientDesign
                    score, H = score[kept], H[kept]
                    if not stop(kept):
                        break
            step = _solve(H, score[:, :, None], signature="dd->d")[:, :, 0]
            decrement = np.add.reduce(score * step, axis=1).tolist()
            if not all(map(math.isfinite, decrement)):  # a Hessian singular to rounding
                for i in fits:  # the batch refits the block
                    errors[i] = RankDeficientDesign
                break
            B += step
            done = [d < tol for d in decrement]
            finished = sum(done)
            if finished == b:  # every fit converged at this step
                beta, hessians = B, H
                break
            if finished:
                if beta is None:
                    beta, hessians = np.full((b, p), np.nan), np.zeros((b, p, p))
                beta[fits[done]], hessians[fits[done]] = B[done], H[done]
                if not stop([not d for d in done]):
                    break
        else:
            for k, i in enumerate(fits):
                separated = i not in tested and _separated(design.X, design.y,
                                                           None if c is None else c[k])
                errors[i] = SeparationDetected if separated else NoConvergence
    if beta is None:
        beta, hessians = np.full((b, p), np.nan), np.zeros((b, p, p))
    return (1.0 if tilt else 2.0) * beta / design.scale, errors, hessians, iterations


_MESSAGES = {RankDeficientDesign: "design matrix is rank deficient",
             SeparationDetected: "the covariates (quasi-)separate the responses",
             NoConvergence: f"Newton steps did not converge in {DEFAULT_MAX_ITER} iterations"}


def fit_logistic(X: np.ndarray, y: np.ndarray, tol: float = DEFAULT_TOL) -> GlmFit:
    """Maximum-likelihood logistic regression of 0/1 ``y`` on ``X`` (n x p,
    intercept column included) by Newton steps, stopping at decrement ``tol``.

    The design is rank deficient when the Hessian at the start has eigenvalue
    ratio at most max(n, p) eps, the rounding level of its n-term sums. A
    response other than 0 or 1, NaN included, is ParameterOutOfRange.
    """
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < p + 1:
        raise RankDeficientDesign(f"need at least {p + 1} rows, got {n}")
    responders = np.count_nonzero(y == 1.0)
    if responders + np.count_nonzero(y == 0.0) < n:
        raise ParameterOutOfRange("logistic responses must be 0 or 1")
    if responders in (0, n):
        raise ConstantResponse("response takes a single value")
    beta, errors, _, iterations = _newton(LogisticDesign(X, y), None, tol, max(n, p) * _EPS)
    if errors[0] is not None:
        raise errors[0](_MESSAGES[errors[0]])
    return GlmFit(Family.LOGISTIC, beta[0], iterations)


def fit_logistic_counts(design: LogisticDesign, counts: np.ndarray):
    """``fit_logistic`` of a prepared design for every row of a b x n block of
    frequency weights.

    Returns the b x p coefficients (NaN where a replicate has no fit) and,
    per replicate, None, the ``SolverError`` subclass ``fit_logistic`` raises
    on its repeated rows (ConstantResponse, RankDeficientDesign for too few
    rows, SeparationDetected), or ``REFIT`` (see _GRAM_SCREEN, and a fit not
    converged within the iteration cap). A bootstrap prepares its design once
    and calls this for each block.
    """
    counts = np.asarray(counts, dtype=float)
    b, p = len(counts), design.X.shape[1]
    held = counts > 0
    # As in fit_logistic, the row count is tested first, then the rows and
    # responders each replicate holds (exact integer counts for 0/1 y).
    few = counts.sum(axis=1) < p + 1
    k, s = held.sum(axis=1), np.count_nonzero(held & (design.y > 0), axis=1)
    constant = (s == 0) | (s == k)
    errors = [RankDeficientDesign if f else ConstantResponse if c else None
              for f, c in zip(few, constant)]
    beta = np.full((b, p), np.nan)
    fit = np.flatnonzero([e is None for e in errors])
    if len(fit):
        block = counts if len(fit) == b else counts[fit]
        beta[fit], fit_errors, hessians, _ = _newton(design, block, DEFAULT_TOL, _GRAM_SCREEN)
        ok = np.array([e is None for e in fit_errors])
        refit = np.max(np.abs(beta[fit]), axis=1) > _COEFFICIENT_SCREEN
        if ok.any():
            with np.errstate(invalid="ignore"):
                refit[ok] |= _ill_conditioned(hessians[ok], _GRAM_SCREEN)
        for r, error, screen in zip(fit, fit_errors, refit):
            errors[r] = REFIT if screen or error in (RankDeficientDesign, NoConvergence) else error
        beta[[e is not None for e in errors]] = np.nan
    return beta, errors


def fit_linear(X: np.ndarray, y: np.ndarray) -> GlmFit:
    """Ordinary least squares by QR."""
    X = np.asarray(X, dtype=float)
    y = np.asarray(y, dtype=float)
    n, p = X.shape
    if n < p + 2:
        raise RankDeficientDesign(f"need at least {p + 2} rows, got {n}")
    q, r = np.linalg.qr(X)
    s = np.linalg.svd(r, compute_uv=False)  # the singular values of X
    if s[-1] <= s[0] * max(n, p) * _EPS:
        raise RankDeficientDesign("design matrix is rank deficient")
    return GlmFit(Family.LINEAR, np.linalg.solve(r, q.T @ y), 1)


def add_intercept(X: np.ndarray) -> np.ndarray:
    X = np.asarray(X, dtype=float)
    if X.ndim == 1:
        X = X[:, None]
    return np.concatenate((np.ones((X.shape[0], 1)), X), axis=1)
