import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extctrl import (
    AggregateSummary,
    Dataset,
    Estimand,
    EstimandKind,
    Group,
    OutcomeKind,
    Scale,
    balancing_weights,
    estimate_propensity,
    maic_compare,
    maic_weights,
)
from extctrl.errors import MissingColumn, SolverError, TargetOutsideSupport
from extctrl.glm import DEFAULT_MAX_ITER

from conftest import make_dataset


def binary_target(severe_prop, n=100, responders=None):
    outcome = (
        {"kind": OutcomeKind.BINARY, "responders": responders}
        if responders is not None
        else {}
    )
    return AggregateSummary(
        covariate_names=("severe",),
        covariate_means=(severe_prop,),
        n=n,
        outcome_kind=OutcomeKind.BINARY if responders is not None else OutcomeKind.CONTINUOUS,
        outcome_summary={"responders": responders} if responders is not None else {"mean": 0.0},
    )


def trial_only(severe, outcomes=None):
    return make_dataset(severe, [Group.TRIAL] * len(severe), outcomes=outcomes)


def test_target_equal_to_trial_means_gives_uniform_weights():
    data = trial_only([1, 0, 1, 0])
    fit = maic_weights(data, binary_target(0.5))
    assert np.allclose(fit.alpha, 0.0, atol=1e-8)
    assert np.allclose(fit.weights, fit.weights[0])
    assert fit.ess == pytest.approx(4.0, abs=1e-8)


def test_toy_trial_arm_nine_to_one_ratio():
    # Matching severe proportion 3/4 forces w_s/(w_s + 3 w_n) = 3/4, i.e.
    # w_s = 9 w_n, solved in closed form for the one-dimensional tilt.
    data = trial_only([1, 0, 0, 0])
    fit = maic_weights(data, binary_target(0.75))
    ratio = fit.weights[0] / fit.weights[1]
    assert ratio == pytest.approx(9.0, abs=1e-6)
    assert np.allclose(fit.weights[1:], fit.weights[1])


def test_maic_proportional_to_atc_weights(toy8):
    # Table row consistency: with the same two-point covariate law, MAIC
    # weights are proportional to (1-e)/e from the pooled propensity fit.
    model = estimate_propensity(toy8)
    atc = balancing_weights(model, toy8, Estimand(EstimandKind.ATC))
    trial_mask = toy8.group_mask
    atc_trial = atc.weights[trial_mask]

    trial = trial_only([1, 0, 0, 0])
    fit = maic_weights(trial, binary_target(0.75))
    ratios = fit.weights / atc_trial
    assert np.allclose(ratios, ratios[0], atol=1e-8)


def test_moment_condition_met_on_random_fixture():
    rng = np.random.default_rng(12)
    X = rng.normal(size=(60, 3))
    data = make_dataset([tuple(r) for r in X], [Group.TRIAL] * 60,
                        covariate_names=("a", "b", "c"))
    target = AggregateSummary(
        covariate_names=("a", "b", "c"),
        covariate_means=(0.3, -0.2, 0.1),
        n=200,
        outcome_kind=OutcomeKind.CONTINUOUS,
        outcome_summary={"mean": 0.0},
    )
    fit = maic_weights(data, target)
    assert np.max(np.abs(fit.achieved_means - fit.target_means)) < 1e-8


def test_objective_is_convex_solution_positive_weights():
    rng = np.random.default_rng(21)
    X = rng.normal(size=(40, 2))
    data = make_dataset([tuple(r) for r in X], [Group.TRIAL] * 40,
                        covariate_names=("a", "b"))
    target = AggregateSummary(
        covariate_names=("a", "b"), covariate_means=(0.5, 0.5), n=50,
        outcome_kind=OutcomeKind.CONTINUOUS, outcome_summary={"mean": 0.0},
    )
    fit = maic_weights(data, target)
    assert np.all(fit.weights > 0)


def test_infeasible_target_raises():
    data = trial_only([1, 0, 0, 0])
    with pytest.raises(TargetOutsideSupport):
        maic_weights(data, binary_target(1.0))
    with pytest.raises(TargetOutsideSupport):
        maic_weights(data, binary_target(0.0))


def test_ess_decreases_with_target_distance():
    rng = np.random.default_rng(30)
    X = rng.normal(size=(100, 1))
    data = make_dataset([tuple(r) for r in X], [Group.TRIAL] * 100,
                        covariate_names=("a",))
    ess_values = []
    for shift in (0.0, 0.3, 0.6, 0.9):
        target = AggregateSummary(
            covariate_names=("a",), covariate_means=(float(X.mean() + shift),),
            n=50, outcome_kind=OutcomeKind.CONTINUOUS, outcome_summary={"mean": 0.0},
        )
        ess_values.append(maic_weights(data, target).ess)
    assert all(a > b for a, b in zip(ess_values, ess_values[1:]))


def test_compare_null_risk_difference():
    data = trial_only([1, 0, 1, 0, 1], outcomes=[1, 1, 0, 1, 0])
    fit = maic_weights(data, binary_target(0.6, n=10, responders=6))
    report = maic_compare(fit, data, binary_target(0.6, n=10, responders=6),
                          Scale.RISK_DIFFERENCE)
    assert report.point == pytest.approx(
        report.group_summary["trial_weighted"] - 0.6, abs=1e-12
    )


def test_compare_matches_weighted_sum_oracle():
    rng = np.random.default_rng(77)
    severe = rng.integers(0, 2, size=10).astype(float)
    if severe.mean() in (0.0, 1.0):
        severe[0] = 1.0 - severe[0]
    outcomes = rng.integers(0, 2, size=10).astype(float)
    data = trial_only(list(severe), outcomes=list(outcomes))
    target = binary_target(float(np.clip(severe.mean() + 0.1, 0.05, 0.95)),
                           n=40, responders=10)
    fit = maic_weights(data, target)
    report = maic_compare(fit, data, target, Scale.RISK_DIFFERENCE)
    # Brute-force weighted proportion, summed element by element.
    num = sum(w * y for w, y in zip(fit.weights, outcomes))
    den = sum(fit.weights)
    assert report.group_summary["trial_weighted"] == pytest.approx(num / den, abs=1e-12)
    assert report.point == pytest.approx(num / den - 10 / 40, abs=1e-12)


def test_zero_cell_odds_ratio_flagged_infinite():
    data = trial_only([1, 0, 1, 0], outcomes=[1, 1, 0, 1])
    target = binary_target(0.5, n=20, responders=0)
    fit = maic_weights(data, target)
    report = maic_compare(fit, data, target, Scale.ODDS_RATIO)
    assert report.infinite
    assert np.isinf(report.point)
    corrected = maic_compare(fit, data, target, Scale.ODDS_RATIO,
                             continuity_correction=True)
    assert not corrected.infinite
    assert np.isfinite(corrected.point)


def test_report_carries_constancy_caveat_and_atc_label():
    data = trial_only([1, 0, 1, 0], outcomes=[1, 1, 0, 1])
    target = binary_target(0.5, n=20, responders=5)
    fit = maic_weights(data, target)
    report = maic_compare(fit, data, target, Scale.RISK_DIFFERENCE)
    assert report.target_population == "external control population (ATC)"
    assert any("constancy" in w for w in report.warnings)


@pytest.mark.parametrize("seed", [1, 107, 161, 267])
def test_newton_converges_when_objective_is_flat_to_rounding(seed):
    # 1,000 trial rows drawn by a fixed NumPy recipe; on seeds 107, 161 and
    # 267 the objective stops decreasing by more than its rounding error
    # while the gradient is still above tol, which once stalled the line
    # search until NoConvergence.
    rng = np.random.default_rng([seed, 2_000])
    n = 2_000
    trial = np.arange(n) < 1_000
    b1 = (rng.random(n) < np.where(trial, 0.45, 0.55)).astype(float)
    c1 = rng.normal(np.where(trial, 0.3, 0.0), 1.0)
    c2 = rng.normal(np.where(trial, -0.2, 0.0), 1.0)
    ext = ~trial
    names = ("b1", "c1", "c2")
    target = AggregateSummary(
        covariate_names=names,
        covariate_means=(float(b1[ext].mean()), float(c1[ext].mean()), float(c2[ext].mean())),
        n=1_000, outcome_kind=OutcomeKind.CONTINUOUS, outcome_summary={"mean": 0.0},
    )
    data = Dataset(names, ids=[f"a{i}" for i in range(1_000)], trial=np.ones(1_000, bool),
                   X=np.column_stack([b1, c1, c2])[trial])
    fit = maic_weights(data, target)
    assert fit.iterations < DEFAULT_MAX_ITER
    assert fit.iterations <= 10
    assert np.max(np.abs(fit.achieved_means - fit.target_means)) < 1e-12


def continuous_target(names, means):
    return AggregateSummary(
        covariate_names=tuple(names), covariate_means=tuple(float(m) for m in means), n=100,
        outcome_kind=OutcomeKind.CONTINUOUS, outcome_summary={"mean": 0.0},
    )


def tilt(X, means):
    names = tuple(f"c{j}" for j in range(X.shape[1]))
    data = Dataset(names, ids=[f"t{i}" for i in range(len(X))], trial=np.ones(len(X), bool), X=X)
    return maic_weights(data, continuous_target(names, means))


def test_target_inside_every_range_but_outside_the_hull_is_rejected():
    # (0.8, 0.8) lies inside [0, 1] on both covariates but beyond the edge
    # a + b = 1 of the trial hull, so no positive weights reach it.
    X = np.array([(0, 0), (1, 0), (0, 1), (0.2, 0.1), (0.1, 0.3)], dtype=float)
    with pytest.raises(TargetOutsideSupport):
        tilt(X, (0.8, 0.8))


def test_target_on_a_crowded_boundary_face_is_rejected():
    # Target 0 with one row of 3,000 at 1: the tilt only approaches it as that
    # row's weight goes to 0. Taken relative to the summed weights, the
    # decrement would pass 1e-12 before |x'alpha| reached the bound at which
    # the hull is tested, and the fit would return.
    X = np.zeros((3_000, 1))
    X[0] = 1.0
    with pytest.raises(TargetOutsideSupport):
        tilt(X, (0.0,))


def test_no_shared_covariate_is_missing_column():
    data = trial_only([1, 0, 0, 0])
    target = continuous_target(["age"], [40.0])
    with pytest.raises(MissingColumn):
        maic_weights(data, target)
    with pytest.raises(MissingColumn):
        maic_weights(data, target, covariates=[])


def test_covariate_in_large_units_converges():
    # Gradients of order 1e9 carry rounding far above an absolute tolerance;
    # the decrement of the scaled objective is free of units.
    rng = np.random.default_rng(2_000)
    X = rng.normal(size=(2_000, 2)) * (1e6, 1.0)
    fit = tilt(X, (0.3e6, -0.2))
    gap = np.abs(fit.achieved_means - fit.target_means) / np.ptp(X, axis=0)
    assert np.max(gap) <= 1e-9
    assert fit.iterations <= 10


def tilt_gap_or_error(X, means):
    """Largest |achieved - target| relative to each covariate's range, or the error."""
    try:
        fit = tilt(X, means)
    except SolverError as exc:
        return None, type(exc)
    spread = np.ptp(X, axis=0)
    return np.max(np.abs(fit.achieved_means - fit.target_means)
                  / np.where(spread > 0, spread, 1.0)), None


@st.composite
def rescaled_tilt_problems(draw):
    # Rows and targets come from a seeded generator, so they sit in general
    # position: no target lies within rounding of the hull's boundary, where
    # rounding in the rescaled data alone could move it across.
    n = draw(st.sampled_from([3, 5, 10, 40, 200]))
    kinds = draw(st.lists(st.sampled_from(["normal", "binary", "uniform"]), min_size=1,
                          max_size=3))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    X = np.column_stack([rng.normal(size=n) if kind == "normal"
                         else (rng.random(n) < 0.3).astype(float) if kind == "binary"
                         else rng.random(n) for kind in kinds])
    means = X.mean(axis=0) + draw(st.sampled_from([0.2, 1.0, 3.0])) * X.std(axis=0) * (
        rng.normal(size=len(kinds)))
    return (X, means, draw(st.integers(0, len(kinds) - 1)), draw(st.integers(-5, 6)),
            draw(st.sampled_from([0.0, 250.0, 2015.0])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(rescaled_tilt_problems())
def test_covariate_units_change_neither_verdict_nor_achieved_means(problem):
    X, means, j, k, offset = problem
    scaled, scaled_means = X.copy(), means.copy()
    scaled[:, j] = offset + 10.0 ** k * X[:, j]
    scaled_means[j] = offset + 10.0 ** k * means[j]
    want, want_error = tilt_gap_or_error(X, means)
    got, got_error = tilt_gap_or_error(scaled, scaled_means)
    assert got_error is want_error
    if want is not None:
        assert want <= 1e-9 and got <= 1e-9
