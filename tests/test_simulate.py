import numpy as np
import pytest

from extctrl import (
    CovariateSpec,
    Estimand,
    EstimandKind,
    OutcomeKind,
    Scale,
    ScenarioConfig,
    balancing_weights,
    estimate_propensity,
    generate,
    truth_gap,
    weighted_mean_contrast,
)
from extctrl.errors import EstimandMismatch, InvalidConfig
from extctrl.estimators import EffectReport
from extctrl.glm import expit


def binary_scenario(**overrides):
    base = dict(
        n_trial=300,
        n_external=300,
        covariates=(CovariateSpec("severe", "binary", p=0.4),),
        assignment=(0.0, -1.0),
        outcome_kind=OutcomeKind.BINARY,
        outcome_coefficients=(-0.5, 1.0),
        effect=0.15,
        seed=7,
    )
    base.update(overrides)
    return ScenarioConfig(**base)


def same_subjects(a, b) -> bool:
    """Equal ids, groups, covariates and outcomes, NaN matching NaN."""
    return a.ids.tolist() == b.ids.tolist() and all(
        np.array_equal(getattr(a, col), getattr(b, col), equal_nan=True)
        for col in ("trial", "X", "outcome", "time", "event")
    )


def test_same_seed_identical_datasets():
    d1, t1 = generate(binary_scenario())
    d2, t2 = generate(binary_scenario())
    assert same_subjects(d1, d2)
    assert t1 == t2


def test_different_seed_differs():
    d1, _ = generate(binary_scenario(seed=1))
    d2, _ = generate(binary_scenario(seed=2))
    assert not same_subjects(d1, d2)


def test_null_effect_null_truth():
    _, truth = generate(binary_scenario(effect=0.0))
    assert truth.ate == truth.att == truth.atc == 0.0


def test_single_binary_covariate_truth_matches_hand_enumeration():
    config = binary_scenario()
    _, truth = generate(config)
    # Two-cell enumeration done by hand: cell probabilities, propensities,
    # and per-cell risk differences combined over the trial distribution.
    p_sev = 0.4
    cells = [0.0, 1.0]
    pr = [1 - p_sev, p_sev]
    e = [expit(0.0), expit(-1.0)]
    p0 = [expit(-0.5), expit(0.5)]
    delta = [min(max(p + 0.15, 1e-9), 1 - 1e-9) - p for p in p0]
    att_num = sum(pr[i] * e[i] * delta[i] for i in range(2))
    att_den = sum(pr[i] * e[i] for i in range(2))
    assert truth.att == pytest.approx(att_num / att_den, abs=1e-12)
    ate = sum(pr[i] * delta[i] for i in range(2))
    assert truth.ate == pytest.approx(ate, abs=1e-12)
    assert truth.mc_se == 0.0


def test_continuous_covariate_uses_mc_oracle():
    config = binary_scenario(
        covariates=(CovariateSpec("age", "continuous", mean=0.0, sd=1.0),),
        n_trial=100, n_external=100,
    )
    _, truth = generate(config)
    assert truth.mc_se > 0.0
    assert abs(truth.ate - 0.15) < 0.05  # close to the stated shift


def test_homogeneous_effect_estimands_agree():
    config = binary_scenario(effect=0.1, outcome_coefficients=(0.0, 0.0))
    _, truth = generate(config)
    assert truth.ate == pytest.approx(truth.att, abs=1e-12)
    assert truth.ate == pytest.approx(truth.atc, abs=1e-12)


def test_continuous_outcome_truth_is_mean_shift():
    config = binary_scenario(
        outcome_kind=OutcomeKind.CONTINUOUS,
        outcome_coefficients=(1.0, 0.5),
        effect=2.5,
    )
    data, truth = generate(config)
    assert truth.scale == "md"
    assert truth.ate == truth.att == truth.atc == 2.5
    assert data.outcome_kind is OutcomeKind.CONTINUOUS


def test_survival_generation_censoring_rate():
    config = binary_scenario(
        outcome_kind=OutcomeKind.TIME_TO_EVENT,
        outcome_coefficients=(0.0, 0.3),
        effect=-0.5,
        censoring_rate=0.3,
        n_trial=2000, n_external=2000,
    )
    data, truth = generate(config)
    _, events = data.times_events()
    assert abs(1.0 - events.mean() - 0.3) < 0.05
    assert truth.scale == "log_hazard"


def test_unmeasured_confounder_hidden_from_output():
    config = binary_scenario(
        covariates=(
            CovariateSpec("seen", "binary", p=0.5),
            CovariateSpec("hidden", "binary", p=0.5),
        ),
        assignment=(0.0, 0.5, 1.5),
        outcome_coefficients=(0.0, 0.5, 1.5),
        unmeasured_confounder=True,
    )
    data, _ = generate(config)
    assert data.covariate_names == ("seen",)
    assert data.X.shape == (len(data), 1)


def test_time_lag_shifts_external_times():
    base = binary_scenario(
        outcome_kind=OutcomeKind.TIME_TO_EVENT,
        outcome_coefficients=(0.0, 0.0),
        effect=0.0,
        n_trial=500, n_external=500,
    )
    lagged = binary_scenario(
        outcome_kind=OutcomeKind.TIME_TO_EVENT,
        outcome_coefficients=(0.0, 0.0),
        effect=0.0,
        time_lag=5.0,
        n_trial=500, n_external=500,
    )
    d0, _ = generate(base)
    d1, _ = generate(lagged)
    t0, _ = d0.times_events()
    t1, _ = d1.times_events()
    ext = ~d0.group_mask
    assert np.allclose(t1[ext], t0[ext] + 5.0)
    assert np.allclose(t1[~ext], t0[~ext])


def test_truth_gap_subtraction():
    from extctrl.simulate import TruthRecord

    truth = TruthRecord(scale="rd", ate=0.25, att=0.3, atc=0.2)
    report = EffectReport(
        estimand_label="ate", target_population="", scale=Scale.RISK_DIFFERENCE,
        point=0.30,
    )
    assert truth_gap(report, truth) == pytest.approx(0.05, abs=1e-12)


def test_truth_gap_estimand_mismatch():
    from extctrl.simulate import TruthRecord

    truth = TruthRecord(scale="rd", ate=0.25, att=0.3, atc=0.2)
    report = EffectReport(
        estimand_label="ato", target_population="", scale=Scale.RISK_DIFFERENCE,
        point=0.30,
    )
    with pytest.raises(EstimandMismatch):
        truth_gap(report, truth)
    wrong_scale = EffectReport(
        estimand_label="ate", target_population="", scale=Scale.MEAN_DIFFERENCE,
        point=0.30,
    )
    with pytest.raises(EstimandMismatch):
        truth_gap(wrong_scale, truth)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        binary_scenario(n_trial=0)
    with pytest.raises(InvalidConfig):
        binary_scenario(assignment=(0.0,))
    with pytest.raises(InvalidConfig):
        binary_scenario(censoring_rate=1.0)
    with pytest.raises(InvalidConfig):
        CovariateSpec("bad", "binary", p=1.5)
    with pytest.raises(InvalidConfig):
        binary_scenario(unmeasured_confounder=True)


def test_from_dict_round_trip():
    payload = {
        "n_trial": 50,
        "n_external": 60,
        "covariates": [{"name": "severe", "kind": "binary", "p": 0.3}],
        "assignment": [0.0, -0.8],
        "outcome_kind": "binary",
        "outcome_coefficients": [-0.2, 0.9],
        "effect": 0.1,
        "seed": 5,
    }
    config = ScenarioConfig.from_dict(payload)
    assert config.n_external == 60
    assert config.covariates[0].p == 0.3
    with pytest.raises(InvalidConfig):
        ScenarioConfig.from_dict({"n_trial": 5})


def test_ipw_recovers_truth_on_average():
    # Small replication check; the full-precision version runs in the
    # acceptance suite.
    gaps = []
    for rep in range(30):
        config = binary_scenario(seed=1000 + rep, n_trial=400, n_external=400)
        data, truth = generate(config)
        model = estimate_propensity(data)
        wset = balancing_weights(model, data, Estimand(EstimandKind.ATE))
        report = weighted_mean_contrast(data, wset, Scale.RISK_DIFFERENCE)
        gaps.append(truth_gap(report, truth))
    gaps = np.array(gaps)
    se = gaps.std(ddof=1) / np.sqrt(len(gaps))
    assert abs(gaps.mean()) < 4 * se + 1e-3
