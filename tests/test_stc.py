import math

import numpy as np
import pytest

from extctrl import AggregateSummary, Group, OutcomeKind, Scale, stc_estimate
from extctrl.errors import MissingColumn, ScaleIncompatibleWithOutcome
from extctrl.stc import Link

from conftest import make_dataset


def continuous_target(means, names, mean=0.0, n=50):
    return AggregateSummary(
        covariate_names=tuple(names),
        covariate_means=tuple(means),
        n=n,
        outcome_kind=OutcomeKind.CONTINUOUS,
        outcome_summary={"mean": mean},
    )


def binary_target(means, names, responders, n):
    return AggregateSummary(
        covariate_names=tuple(names),
        covariate_means=tuple(means),
        n=n,
        outcome_kind=OutcomeKind.BINARY,
        outcome_summary={"responders": responders},
    )


def predicted(report):
    """The outcome the STC model predicts in the external population."""
    return report.group_summary["predicted_trial_outcome_in_external_population"]


def test_identity_plugin_at_trial_means_is_trial_mean():
    rng = np.random.default_rng(1)
    x = rng.normal(size=25)
    y = 1.5 + 0.7 * x + rng.normal(scale=0.2, size=25)
    data = make_dataset(list(x), [Group.TRIAL] * 25, outcomes=list(y),
                        covariate_names=("x",))
    target = continuous_target([float(x.mean())], ["x"], mean=0.0)
    _, report = stc_estimate(data, target, scale=Scale.MEAN_DIFFERENCE)
    assert predicted(report) == pytest.approx(float(y.mean()), abs=1e-10)


def test_null_effect_when_observed_equals_predicted():
    x = [0.0, 1.0, 2.0, 3.0]
    y = [1.0, 2.0, 3.0, 4.0]  # exact line y = 1 + x
    data = make_dataset(x, [Group.TRIAL] * 4, outcomes=y, covariate_names=("x",))
    target = continuous_target([1.5], ["x"], mean=2.5)
    _, report = stc_estimate(data, target, scale=Scale.MEAN_DIFFERENCE)
    assert report.point == pytest.approx(0.0, abs=1e-10)


def test_logit_plugin_matches_hand_evaluation():
    # 12-subject binary fixture; prediction must equal the inverse logit of
    # b0 + b1 * target mean recomputed from the fitted coefficients.
    x = [0, 0, 0, 1, 1, 1, 0, 1, 0, 1, 0, 1]
    y = [0, 0, 1, 1, 1, 0, 0, 1, 1, 1, 0, 0]
    data = make_dataset([float(v) for v in x], [Group.TRIAL] * 12,
                        outcomes=[float(v) for v in y], covariate_names=("x",))
    target = binary_target([0.4], ["x"], responders=5, n=20)
    fit, report = stc_estimate(data, target, scale=Scale.RISK_DIFFERENCE)
    b0, b1 = fit.coefficients
    expected = 1.0 / (1.0 + math.exp(-(b0 + b1 * 0.4)))
    assert predicted(report) == pytest.approx(expected, abs=1e-12)
    assert report.point == pytest.approx(expected - 0.25, abs=1e-12)


def test_covariate_shift_monotonicity():
    rng = np.random.default_rng(3)
    x = rng.normal(size=40)
    eta = 0.2 + 1.2 * x
    y = (rng.random(40) < 1 / (1 + np.exp(-eta))).astype(float)
    data = make_dataset(list(x), [Group.TRIAL] * 40, outcomes=list(y),
                        covariate_names=("x",))
    preds = []
    for mu in (-0.5, 0.0, 0.5):
        target = binary_target([mu], ["x"], responders=5, n=20)
        preds.append(predicted(stc_estimate(data, target, scale=Scale.RISK_DIFFERENCE)[1]))
    assert preds[0] < preds[1] < preds[2]


def test_logit_prediction_stays_in_unit_interval():
    x = [0, 0, 1, 1, 0, 1, 0, 1]
    y = [0, 1, 1, 0, 0, 1, 1, 0]
    data = make_dataset([float(v) for v in x], [Group.TRIAL] * 8,
                        outcomes=[float(v) for v in y], covariate_names=("x",))
    target = binary_target([0.9], ["x"], responders=3, n=10)
    _, report = stc_estimate(data, target, scale=Scale.RISK_DIFFERENCE)
    assert 0.0 < predicted(report) < 1.0


def test_link_outcome_mismatch_rejected():
    # The model follows the outcome, so a continuous trial cannot be compared
    # with a binary aggregate (nor the other way round).
    data = make_dataset([0.0, 1.0, 2.0, 3.0], [Group.TRIAL] * 4,
                        outcomes=[1.5, 2.5, 3.5, 4.5], covariate_names=("x",))
    target = binary_target([1.0], ["x"], responders=3, n=10)
    with pytest.raises(ScaleIncompatibleWithOutcome):
        stc_estimate(data, target, scale=Scale.RISK_DIFFERENCE)
    binary = make_dataset([0.0, 1.0, 2.0, 3.0], [Group.TRIAL] * 4,
                          outcomes=[0.0, 1.0, 0.0, 1.0], covariate_names=("x",))
    with pytest.raises(ScaleIncompatibleWithOutcome):
        stc_estimate(binary, continuous_target([1.0], ["x"]))


def test_model_and_scale_follow_the_outcome():
    x = [0.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0]
    binary = make_dataset(x, [Group.TRIAL] * 8, outcomes=[0, 1, 1, 0, 0, 1, 1, 1],
                          covariate_names=("x",))
    _, report = stc_estimate(binary, binary_target([0.5], ["x"], responders=4, n=10))
    assert (Link(report.provenance["link"]), report.scale) == (Link.LOGIT, Scale.RISK_DIFFERENCE)
    assert report.provenance["link"] == "logit"
    continuous = make_dataset(x, [Group.TRIAL] * 8, outcomes=[0.5, 1.5, 2.0, 1.0, 0.2, 2.5,
                                                              0.7, 1.8],
                              covariate_names=("x",))
    _, report = stc_estimate(continuous, continuous_target([0.5], ["x"]))
    assert (Link(report.provenance["link"]), report.scale) == (Link.IDENTITY,
                                                               Scale.MEAN_DIFFERENCE)


def test_no_shared_covariate_is_missing_column():
    # Once an intercept-only model: an unadjusted comparison, reported as STC.
    data = make_dataset([0.0, 1.0, 2.0, 3.0], [Group.TRIAL] * 4,
                        outcomes=[1.5, 2.5, 3.5, 4.5], covariate_names=("x",))
    with pytest.raises(MissingColumn):
        stc_estimate(data, continuous_target([1.0], ["z"]))
    with pytest.raises(MissingColumn):
        stc_estimate(data, continuous_target([1.0], ["x"]), covariates=[])


def test_report_notes_noncollapsibility_for_logit():
    x = [0, 0, 0, 1, 1, 1, 0, 1]
    y = [0, 1, 0, 1, 1, 0, 1, 1]
    data = make_dataset([float(v) for v in x], [Group.TRIAL] * 8,
                        outcomes=[float(v) for v in y], covariate_names=("x",))
    target = binary_target([0.5], ["x"], responders=4, n=10)
    _, report = stc_estimate(data, target, scale=Scale.RISK_DIFFERENCE)
    assert any("plug-in" in w for w in report.warnings)
    assert report.target_population == "external control population"
