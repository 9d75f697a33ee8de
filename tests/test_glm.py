import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from extctrl import add_intercept, fit_linear, fit_logistic, glm
from extctrl.glm import (DEFAULT_MAX_ITER, DEFAULT_TOL, LogisticDesign, _newton,
                         fit_logistic_counts)
from extctrl.errors import (
    ConstantResponse,
    NoConvergence,
    ParameterOutOfRange,
    RankDeficientDesign,
    SeparationDetected,
    SolverError,
)

from conftest import reference_unit_columns


def toy_design():
    severe = np.array([1, 0, 0, 0, 1, 1, 1, 0], dtype=float)
    y = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
    return add_intercept(severe), y


def test_logistic_reproduces_cell_proportions():
    # Saturated model on one binary covariate must hit the empirical cell
    # frequencies: P(trial | severe) = 1/4, P(trial | non-severe) = 3/4.
    X, y = toy_design()
    fit = fit_logistic(X, y)
    probs = fit.predict(X)
    severe = X[:, 1] == 1.0
    assert np.allclose(probs[severe], 0.25, atol=1e-10)
    assert np.allclose(probs[~severe], 0.75, atol=1e-10)
    assert fit.coefficients[0] == pytest.approx(np.log(3.0), abs=1e-8)
    assert fit.coefficients[1] == pytest.approx(-2.0 * np.log(3.0), abs=1e-8)


def test_constant_response_rejected():
    X = add_intercept(np.arange(6.0))
    with pytest.raises(ConstantResponse):
        fit_logistic(X, np.ones(6))


def test_perfect_separation_detected():
    y = np.array([0, 0, 0, 1, 1, 1], dtype=float)
    X = add_intercept(y.copy())
    with pytest.raises(SeparationDetected):
        fit_logistic(X, y)


def test_rank_deficient_design_rejected():
    x = np.arange(8.0)
    X = np.column_stack([np.ones(8), x, 2 * x])
    with pytest.raises(RankDeficientDesign):
        fit_logistic(X, np.array([0, 1, 0, 1, 0, 1, 0, 1.0]))


def test_score_equations_hold_at_solution():
    rng = np.random.default_rng(7)
    X = add_intercept(rng.normal(size=(120, 3)))
    y = (rng.random(120) < 1 / (1 + np.exp(-(X @ [0.3, -0.5, 0.8, 0.2])))).astype(float)
    fit = fit_logistic(X, y, tol=1e-8)
    score = X.T @ (y - fit.predict(X))
    assert np.max(np.abs(score)) < 1e-8 * len(y)


def test_intercept_only_fits_sample_mean():
    rng = np.random.default_rng(3)
    y = (rng.random(50) < 0.3).astype(float)
    X = np.ones((50, 1))
    fit = fit_logistic(X, y)
    assert fit.predict(X)[0] == pytest.approx(y.mean(), abs=1e-8)


def test_linear_exact_line():
    x = np.array([0.0, 1.0, 2.0, 5.0])
    X = add_intercept(x)
    fit = fit_linear(X, 2 * x + 1)
    assert np.allclose(fit.coefficients, [1.0, 2.0], atol=1e-12)
    resid = 2 * x + 1 - fit.predict(X)
    assert resid @ resid == pytest.approx(0.0, abs=1e-20)


def test_linear_constant_response():
    X = add_intercept(np.array([1.0, 2.0, 3.0, 4.0]))
    fit = fit_linear(X, np.full(4, 7.5))
    assert fit.coefficients[0] == pytest.approx(7.5, abs=1e-12)
    assert fit.coefficients[1] == pytest.approx(0.0, abs=1e-12)


def test_linear_matches_normal_equations_oracle():
    rng = np.random.default_rng(11)
    X = add_intercept(rng.normal(size=(20, 2)))
    y = rng.normal(size=20)
    fit = fit_linear(X, y)
    # Independent direct solve of X'X b = X'y.
    oracle = np.linalg.solve(X.T @ X, X.T @ y)
    assert np.allclose(fit.coefficients, oracle, atol=1e-10)


def test_linear_residuals_orthogonal_to_design():
    rng = np.random.default_rng(23)
    X = add_intercept(rng.normal(size=(40, 3)))
    y = rng.normal(size=40)
    fit = fit_linear(X, y)
    resid = y - X @ fit.coefficients
    assert np.max(np.abs(X.T @ resid)) < 1e-8


def test_logistic_handles_badly_scaled_columns():
    # Column scaled by 1e4 skews the design conditioning; the QR-based
    # inner solve must still land on the rescaled solution. The score of
    # the scaled column carries the 1e4 factor, so loosen the tolerance
    # accordingly.
    rng = np.random.default_rng(5)
    x = rng.normal(size=300)
    z = rng.normal(size=300)
    X = np.column_stack([np.ones(300), x, 1e4 * z])
    eta = 0.3 * x + 0.5 * z
    y = (rng.random(300) < 1 / (1 + np.exp(-eta))).astype(float)
    fit = fit_logistic(X, y, tol=1e-4)
    ref = fit_logistic(np.column_stack([np.ones(300), x, z]), y)
    assert fit.iterations < DEFAULT_MAX_ITER
    assert fit.coefficients[2] * 1e4 == pytest.approx(ref.coefficients[2], abs=1e-6)


def test_linear_high_condition_number():
    # Near-duplicate columns put the condition number around 1e8; the
    # solve must stay finite and keep fitted values accurate.
    rng = np.random.default_rng(13)
    x = rng.normal(size=60)
    X = np.column_stack([np.ones(60), x, x + 1e-8 * rng.normal(size=60)])
    assert np.linalg.cond(X) > 1e7
    y = 1.0 + 2.0 * x + rng.normal(scale=0.1, size=60)
    fit = fit_linear(X, y)
    fitted = X @ fit.coefficients
    assert np.isfinite(fitted).all()
    assert np.max(np.abs(X.T @ (y - fitted))) < 1e-4


def test_quasi_separated_design_detected():
    # beta = (-1, -1, 1) puts every row on its own side, (2y - 1) x'beta >= 0,
    # with equality on the two rows at x = (0, 1): the likelihood rises
    # along that ray without a maximum.
    X4 = add_intercept(np.array([[1, 0], [0, 1], [0, 3], [0, 1]], dtype=float))
    y4 = np.array([0, 0, 1, 1], dtype=float)
    counts = np.array([2, 1, 1, 1])
    with pytest.raises(SeparationDetected):
        fit_logistic(np.repeat(X4, counts, axis=0), np.repeat(y4, counts))
    assert fit_logistic_counts(LogisticDesign(X4, y4), counts[None])[1] == [SeparationDetected]


def test_counts_constant_response_screen():
    # The screen sees only the rows a replicate holds, whatever their counts:
    # responders only, or none, is ConstantResponse; a replicate holding no
    # row is RankDeficientDesign (too few rows), as fit_logistic says.
    X, y = toy_design()
    counts = np.array([[2.5, 1, 0, 3, 0, 0, 0, 0],
                       [0, 0, 0, 0, 0.5, 1, 4, 1],
                       [0, 0, 0, 0, 0, 0, 0, 0],
                       [1, 0, 0, 2, 1, 0, 3, 1]])
    errors = fit_logistic_counts(LogisticDesign(X, y), counts)[1]
    assert errors[:3] == [ConstantResponse, ConstantResponse, RankDeficientDesign]
    assert errors[3] is not ConstantResponse


def test_hessian_singular_during_fit_is_rank_deficient(monkeypatch):
    # A nearly collinear design can pass the rank check at the start and have
    # its weighted Hessian turn singular to rounding as the fit runs (Hypothesis
    # found one at eigenvalue ratio 2.3e-15). That ends the fit with a typed
    # error, and the batch refits each replicate by fit_logistic, which gives it.
    X, y = toy_design()

    def singular(H, score, signature):  # LAPACK's step for a singular Hessian
        return np.full(score.shape, np.nan)

    monkeypatch.setattr(glm, "_solve", singular)
    with pytest.raises(RankDeficientDesign):
        fit_logistic(X, y)
    assert fit_logistic_counts(LogisticDesign(X, y), np.ones((2, len(y))))[1] == [
        RankDeficientDesign, RankDeficientDesign]


def test_iteration_cap_is_no_convergence(monkeypatch):
    # No other test's fit reaches DEFAULT_MAX_ITER. At a cap of 2 steps the
    # toy fit has not converged: fit_logistic raises NoConvergence, and the
    # batch refits every replicate by it to the same verdict. A separated
    # design that the cap stops before any |x'beta| passes _ETA_BOUND is
    # still SeparationDetected.
    monkeypatch.setattr(glm, "DEFAULT_MAX_ITER", 2)
    X, y = toy_design()
    with pytest.raises(NoConvergence):
        fit_logistic(X, y)
    assert fit_logistic_counts(LogisticDesign(X, y), np.ones((3, len(y))))[1] == [
        NoConvergence] * 3
    y = np.array([0, 0, 0, 1, 1, 1], dtype=float)
    with pytest.raises(SeparationDetected):
        fit_logistic(add_intercept(y.copy()), y)


def spd_stack(rng, b, p):
    """b symmetric positive-definite p x p matrices Q diag(lam) Q': every
    third has its smallest eigenvalue 1e-8 to 1e-15 of its largest."""
    Q = np.linalg.qr(rng.normal(size=(b, p, p)))[0]
    lam = rng.uniform(1.0, 10.0, size=(b, p))
    lam[::3, 0] = 10.0 ** -rng.uniform(8.0, 15.0, size=len(lam[::3]))
    return (Q * lam[:, None, :]) @ Q.transpose(0, 2, 1)


@pytest.mark.parametrize("b", [1, 7, 64])
@pytest.mark.parametrize("p", range(1, 7))
def test_gufuncs_match_the_public_wrappers(b, p):
    # The Newton core calls LAPACK's gufuncs without NumPy's wrappers; on
    # the same arrays they must give the wrappers' results to the byte.
    rng = np.random.default_rng(1000 * b + p)
    H, score = spd_stack(rng, b, p), rng.normal(size=(b, p))
    step = glm._solve(H, score[:, :, None], signature="dd->d")
    assert step.tobytes() == np.linalg.solve(H, score[:, :, None]).tobytes()
    eig = glm._eigvalsh(H, signature="d->d")
    assert eig.tobytes() == np.linalg.eigvalsh(H).tobytes()


def _singular_replicate_block():
    # Replicate 1 holds only rows where x is 0, so its Hessian has an exactly
    # zero row; replicates 0 and 2 hold every row once.
    rng = np.random.default_rng(3)
    x = np.where(np.arange(40) < 10, 0.0, rng.normal(size=40))
    y = (np.arange(40) % 3 == 0).astype(float)
    counts = np.ones((3, 40))
    counts[1, 10:] = 0.0
    return LogisticDesign(add_intercept(x), y), counts


def test_gufunc_singular_hessian_ends_only_its_fit_without_warning():
    # With the rank check at the start off (a cut of -inf), replicate 1's
    # step solve is singular: LAPACK returns NaN, which ends that fit as
    # RankDeficientDesign, as the wrapper's LinAlgError did, with no
    # RuntimeWarning (pyproject.toml turns those into errors). The other
    # fits take their step and converge.
    design, counts = _singular_replicate_block()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta, errors, _, _ = _newton(design, counts, DEFAULT_TOL, -np.inf)
    assert errors == [None, RankDeficientDesign, None]
    assert np.isnan(beta[1]).all()
    reference = fit_logistic(design.X, design.y).coefficients
    for r in (0, 2):
        assert np.allclose(beta[r], reference, rtol=0, atol=1e-10)


def test_counts_fit_refits_only_the_singular_replicate(monkeypatch):
    # With the screens off, only the replicate whose Hessian turns singular
    # is handed to fit_logistic; its neighbours keep their block fit.
    design, counts = _singular_replicate_block()
    monkeypatch.setattr(glm, "_GRAM_SCREEN", -np.inf)
    refits = []

    def counting_fit(X, y):
        refits.append(len(y))
        return fit_logistic(X, y)

    monkeypatch.setattr(glm, "fit_logistic", counting_fit)
    beta, errors = fit_logistic_counts(design, counts)
    assert refits == [10]
    assert errors == [None, RankDeficientDesign, None]
    reference = fit_logistic(design.X, design.y).coefficients
    for r in (0, 2):
        assert np.allclose(beta[r], reference, rtol=0, atol=1e-10)


def test_gufunc_nan_eigenvalue_is_rank_deficient(monkeypatch):
    # LAPACK returns NaN eigenvalues when it does not converge; the rank check
    # reads them as ill-conditioned, a typed error and not a LinAlgError, in
    # fit_logistic and so in every replicate the batch refits by it.
    def unconverged(H, signature):
        return np.full(H.shape[:-1], np.nan)

    monkeypatch.setattr(glm, "_eigvalsh", unconverged)
    X, y = toy_design()
    with pytest.raises(RankDeficientDesign):
        fit_logistic(X, y)
    assert fit_logistic_counts(LogisticDesign(X, y), np.ones((2, len(y))))[1] == [
        RankDeficientDesign, RankDeficientDesign]


@pytest.mark.parametrize("order", ["C", "F"])
def test_fits_leave_design_responses_and_counts_unchanged(order):
    # The fits write only into work arrays of their own. An F-ordered X has a
    # C-ordered transpose that is a view of it, so an in-place scaling of that
    # transpose would rewrite the caller's design.
    rng = np.random.default_rng(5)
    n = 60
    X = np.asarray(add_intercept(rng.normal(size=(n, 2)) * [1.0, 30.0]), order=order)
    y = (rng.random(n) < 0.4).astype(float)
    counts = np.array([np.bincount(rng.integers(0, n, size=n), minlength=n)
                       for _ in range(5)], dtype=float)
    # The first replicate holds rows that x separates and stops mid-way. The
    # one inserted after it holds two rows twice each, so its Hessian has rank
    # 2 and it stops at the start. The rest converge at different steps. Each
    # stop moves the fits still running up in the work arrays.
    counts[0] = (y == 1) == (X[:, 2] > 0)
    rank = np.zeros(n)
    rank[[np.argmax(y == 0), np.argmax(y == 1)]] = 2
    counts = np.insert(counts, 1, rank, axis=0)
    inputs = X.copy(order="K"), y.copy(), counts.copy()
    fit = fit_logistic(X, y)
    design = LogisticDesign(X, y)
    prepared = design.XT.copy(), design.scale.copy()
    beta, errors = fit_logistic_counts(design, counts)
    assert errors == [SeparationDetected, RankDeficientDesign] + [None] * 4
    # Every verdict is that of fit_logistic on the replicate's rows, which the
    # batch calls itself on a replicate its block finds rank deficient.
    steps = set()
    for row, error, coefficients in zip(counts.astype(int), errors, beta):
        try:
            own = fit_logistic(np.repeat(X, row, axis=0), np.repeat(y, row))
        except SolverError as exc:
            assert error is type(exc)
            continue
        assert error is None
        assert np.max(np.abs(coefficients - own.coefficients)) <= 1e-10
        steps.add(own.iterations)
    assert len(steps) >= 2
    for given, kept in zip((X, y, counts), inputs):
        assert np.array_equal(given, kept)
    assert X.flags.f_contiguous == (order == "F")
    # A fit scales its own copy of the transpose in place, and its steps write
    # into work arrays of the design, never into what the design holds.
    assert not np.shares_memory(design.XT, X)
    one, one_errors = fit_logistic_counts(design, np.ones((1, n)))
    for given, kept in zip((design.XT, design.scale), prepared):
        assert np.array_equal(given, kept)
    # A fit of every row once skips the counts; a block of one row of ones
    # multiplies by them. Multiplying by 1 is exact, so the two agree bit for bit,
    # and neither result is a view of the other's buffers.
    assert one_errors == [None]
    assert np.array_equal(one[0], fit.coefficients)
    again = fit_logistic(X, y)
    assert np.array_equal(again.coefficients, fit.coefficients)
    assert not np.shares_memory(again.coefficients, fit.coefficients)


def fitted_or_error(X, y):
    try:
        return fit_logistic(X, y).predict(X), None
    except SolverError as exc:
        return None, type(exc)


@st.composite
def scaled_covariate_problems(draw):
    n = draw(st.integers(4, 40))
    p = draw(st.integers(1, 3))
    cells = st.one_of(st.sampled_from([0.0, 1.0]),
                      st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False))
    X = add_intercept(draw(arrays(float, (n, p), elements=cells)))
    y = draw(arrays(float, n, elements=st.sampled_from([0.0, 1.0])))
    return X, y, draw(st.integers(1, p)), draw(st.integers(-4, 5))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(scaled_covariate_problems())
def test_covariate_units_change_neither_verdict_nor_fit(problem):
    X, y, j, k = problem
    scaled = X.copy()
    scaled[:, j] *= 10.0 ** k
    want, want_error = fitted_or_error(X, y)
    got, got_error = fitted_or_error(scaled, y)
    assert got_error is want_error
    if want is not None:
        assert np.max(np.abs(got - want)) <= 1e-9


def test_logistic_input_errors_are_typed():
    # The row count is tested first, as fit_linear does, so zero rows are not
    # a bare ValueError; a response other than 0 or 1 is not read as a
    # rank-deficient design (NaN) or as separated data (2).
    with pytest.raises(RankDeficientDesign, match="need at least 3 rows, got 0"):
        fit_logistic(np.empty((0, 2)), np.empty(0))
    X = add_intercept(np.arange(6.0))
    for bad in (np.nan, 2.0, -1.0, 0.5, np.inf):
        y = np.array([0, 1, 0, 1, 0, 1.0])
        y[2] = bad
        with pytest.raises(ParameterOutOfRange, match="0 or 1"):
            fit_logistic(X, y)
    with pytest.raises(ParameterOutOfRange):
        fit_logistic(X, np.full(6, 2.0))


def test_too_few_rows_precede_a_constant_response_in_both_paths():
    # Two responders on three columns: too few rows, whether fitted once or as
    # a replicate of the batch that holds those rows.
    X = add_intercept(np.array([[0.0, 1.0], [1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]))
    y = np.array([1.0, 1.0, 0.0, 0.0])
    with pytest.raises(RankDeficientDesign, match="need at least 4 rows, got 2"):
        fit_logistic(X[:2], y[:2])
    counts = np.array([[1.0, 1.0, 0.0, 0.0]])
    assert fit_logistic_counts(LogisticDesign(X, y), counts)[1] == [RankDeficientDesign]


def reference_fit(X, y, tol=DEFAULT_TOL):
    """A fit of one written out in the Newton core's arithmetic, step by step:
    (coefficients, steps), or the SolverError class the fit ends in."""
    XT, scale = reference_unit_columns(X)
    X1, sign = XT.T, 2.0 * y - 1.0
    n, p = X.shape
    B, r, w, tested = np.zeros((1, p)), (sign * 1.0)[None], 1.0, False
    for steps in range(1, glm.DEFAULT_MAX_ITER + 1):
        if steps > 1:
            t = np.tanh(B @ XT)
            w = 1.0 - t * t
            r = sign - t
            if w.min() < glm._W_BOUND and not tested:
                tested = True
                if glm._separated(X, y, None):
                    return SeparationDetected
        score = r @ X1
        H = ((XT * w) @ X1)[None]
        if steps == 1:
            eig = np.linalg.eigvalsh(H)[0]
            if not eig[0] > max(n, p) * np.finfo(float).eps * eig[-1]:
                return RankDeficientDesign
        step = np.linalg.solve(H, score[:, :, None])[:, :, 0]
        decrement = np.add.reduce(score * step, axis=1)
        if not np.isfinite(decrement).all():
            return RankDeficientDesign
        B += step
        if decrement[0] < tol:
            return (2.0 * B / scale)[0], steps
    return SeparationDetected if not tested and glm._separated(X, y, None) else NoConvergence


def reference_problems(rng):
    """Well-posed fits of 0/1 and continuous covariates in mixed units, with
    separated, quasi-separated and rank-deficient designs among them."""
    for case in range(160):
        p = 1 + case % 5
        n = int(rng.choice([p + 2, 12, 60, 500, 3000]))
        Z = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
        binary = rng.random(p) < 0.5
        Z[:, binary] = Z[:, binary] > 0
        eta = np.clip(Z[:, 0], -5, 5)
        y = (rng.random(n) < 1.0 / (1.0 + np.exp(-eta))).astype(float)
        if case % 8 == 3:  # separated by the first covariate
            y = (Z[:, 0] > np.median(Z[:, 0])).astype(float)
        if case % 8 == 5 and p > 1:  # collinear
            Z[:, -1] = 3.0 * Z[:, 0] + 1.0
        if y.min() < y.max():
            yield add_intercept(Z), y
    X4 = add_intercept(np.array([[1, 0], [1, 0], [0, 1], [0, 3], [0, 1]], dtype=float))
    yield X4, np.array([0, 0, 0, 1, 1], dtype=float)  # quasi-separated


@pytest.mark.parametrize("cap", [None, 2, 3])
def test_fit_of_one_matches_the_reference_newton_bit_for_bit(cap, monkeypatch):
    # A fit of one skips the block bookkeeping of the Newton core; its
    # coefficients, step count and error class stay those of the arithmetic
    # written out in reference_fit, to the bit, also when the iteration cap
    # stops a fit.
    if cap is not None:
        monkeypatch.setattr(glm, "DEFAULT_MAX_ITER", cap)
    verdicts = set()
    for X, y in reference_problems(np.random.default_rng(7)):
        want = reference_fit(X, y)
        try:
            fit = fit_logistic(X, y)
        except SolverError as exc:
            assert type(exc) is want
            verdicts.add(want)
            continue
        coefficients, steps = want
        assert fit.coefficients.tobytes() == coefficients.tobytes()
        assert fit.iterations == steps
        verdicts.add(None)
    expected = {None, SeparationDetected, RankDeficientDesign}
    assert verdicts == (expected if cap is None else expected | {NoConvergence})


def reference_block_fit(X, y, counts, cut, tilt=False, tol=DEFAULT_TOL):
    """A block of Newton fits written out in the unsigned arithmetic: the
    unit-norm transpose of X itself, residuals sign - tanh u (sign * w for the
    tilt, w = exp(t - max t)) and the fits still running kept in order as
    others stop. Returns what _newton does, but the number of steps of each
    fit in place of the block's."""
    XT, scale = reference_unit_columns(X)
    X1, sign = XT.T, 2.0 * y - 1.0
    b, (n, p) = len(counts), X.shape
    outer = np.multiply(X1[:, :, None], X1[:, None, :], order="C").reshape(n, p * p)
    beta, hessians = np.full((b, p), np.nan), np.zeros((b, p, p))
    errors, tested, steps = [None] * b, set(), [0] * b
    fits, B, c = np.arange(b), np.zeros((b, p)), np.array(counts, dtype=float)
    for iterations in range(1, glm.DEFAULT_MAX_ITER + 1):
        for i in fits:
            steps[i] = iterations
        if iterations == 1:
            r, w = sign * c, c
        else:
            t = B @ XT
            if tilt:
                far = np.abs(t).max(axis=1) > glm._ETA_BOUND
                w = np.exp(t - t.max(axis=1, keepdims=True))
                r = sign * w
            else:
                t = np.tanh(t)
                w = 1.0 - t * t
                r = sign - t
                far = w.min(axis=1) < glm._W_BOUND
            for k in np.flatnonzero(far):
                if fits[k] not in tested:
                    tested.add(fits[k])
                    if glm._separated(X, y, c[k]):
                        errors[fits[k]] = SeparationDetected
            keep = np.array([errors[i] is None for i in fits])
            fits, B, c, r, w = fits[keep], B[keep], c[keep], r[keep], w[keep]
            if not len(fits):
                break
            r, w = c * r, c * w
        score = r @ X1
        H = (w @ outer).reshape(-1, p, p) if b > 1 else ((XT * w[0]) @ X1)[None]
        if iterations == 1:
            keep = np.array([e[0] > cut * e[-1] for e in np.linalg.eigvalsh(H)])
            for i in fits[~keep]:
                errors[i] = RankDeficientDesign
            fits, B, c, score, H = fits[keep], B[keep], c[keep], score[keep], H[keep]
            if not len(fits):
                break
        step = np.linalg.solve(H, score[:, :, None])[:, :, 0]
        decrement = np.add.reduce(score * step, axis=1)
        if not np.isfinite(decrement).all():
            for i in fits:
                errors[i] = RankDeficientDesign
            break
        B = B + step
        done = decrement < tol
        beta[fits[done]], hessians[fits[done]] = B[done], H[done]
        fits, B, c = fits[~done], B[~done], c[~done]
        if not len(fits):
            break
    else:
        for k, i in enumerate(fits):
            separated = i not in tested and glm._separated(X, y, c[k])
            errors[i] = SeparationDetected if separated else NoConvergence
    return (1.0 if tilt else 2.0) * beta / scale, errors, hessians, steps


def bootstrap_block(rng, y, b):
    """b bootstrap count vectors on len(y) rows, each holding both responses
    and more rows than the design has columns, so no screen of
    fit_logistic_counts takes a replicate out of the block."""
    n, block = len(y), []
    while len(block) < b:
        c = np.bincount(rng.integers(0, n, size=n), minlength=n)
        if 0 < np.count_nonzero(c[y == 1]) < np.count_nonzero(c):
            block.append(c)
    return np.array(block, dtype=float)


@pytest.mark.parametrize("cap", [None, 3])
def test_block_fits_match_the_reference_block_newton_bit_for_bit(cap, monkeypatch):
    # The design holds the signed rows s x, and a block's steps use residuals
    # 1 - tanh u (the tilt's: its weight); they must give, to the bit, the
    # unsigned arithmetic written out in reference_block_fit, for logistic
    # fits and MAIC tilts alike, as the fits of a block stop at different
    # steps and the fits still running move up in the work rows. Every second
    # problem runs, and at a cap of 3 steps every fourth.
    if cap is not None:
        monkeypatch.setattr(glm, "DEFAULT_MAX_ITER", cap)
    rng = np.random.default_rng(17)
    verdicts, fitted, moved = set(), 0, 0
    for case, (X, y) in enumerate(reference_problems(np.random.default_rng(7))):
        if case % (2 if cap is None else 4):
            continue
        n, p = X.shape
        counts = bootstrap_block(rng, y, 4)
        Z = X[:, 1:]
        Xc = Z - (Z.mean(axis=0) + 0.3 * Z.std(axis=0) * rng.normal(size=p - 1))
        for design, cut, tilt in ((LogisticDesign(X, y), glm._GRAM_SCREEN, False),
                                  (LogisticDesign(Xc, np.zeros(n)), max(n, p) * glm._EPS, True)):
            beta, errors, hessians, steps = reference_block_fit(design.X, design.y, counts,
                                                                cut, tilt)
            got = _newton(design, counts, DEFAULT_TOL, cut, tilt=tilt)
            assert got[0].tobytes() == beta.tobytes()
            assert got[1] == errors
            assert got[2].tobytes() == hessians.tobytes()
            assert got[3] == max(steps)
            verdicts.update(errors)
            moved += any(a < b for a, b in zip(steps, steps[1:]))
            if not tilt:
                logistic = beta, errors
        # fit_logistic_counts runs the logistic block above (cut _GRAM_SCREEN),
        # and gives each replicate it does not leave to fit_logistic the
        # reference's coefficients.
        got, got_errors = fit_logistic_counts(LogisticDesign(X, y), counts)
        for want, error, coefficients, verdict in zip(*logistic, got, got_errors):
            if verdict is None:
                assert error is None and coefficients.tobytes() == want.tobytes()
                fitted += 1
    expected = {None, SeparationDetected, RankDeficientDesign}
    assert verdicts == (expected if cap is None else expected | {NoConvergence})
    assert fitted > (100 if cap is None else 0) and moved > (30 if cap is None else 0)
