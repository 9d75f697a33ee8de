import numpy as np
import pytest

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
from extctrl.errors import TargetOutsideSupport

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


def test_objective_non_increasing_across_iterations():
    rng = np.random.default_rng(55)
    X = rng.normal(size=(80, 2))
    data = make_dataset([tuple(r) for r in X], [Group.TRIAL] * 80,
                        covariate_names=("a", "b"))
    target = AggregateSummary(
        covariate_names=("a", "b"), covariate_means=(0.8, -0.6), n=50,
        outcome_kind=OutcomeKind.CONTINUOUS, outcome_summary={"mean": 0.0},
    )
    fit = maic_weights(data, target)
    trace = fit.objective_trace
    assert all(b <= a + 1e-12 for a, b in zip(trace, trace[1:]))


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
    assert fit.iterations < 200  # maic_weights max_iter
    assert fit.iterations <= 10
    assert np.max(np.abs(fit.achieved_means - fit.target_means)) < 1e-12
