from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
    weighted_mean_contrast,
)
from extctrl.errors import InvalidConfig
from extctrl.glm import expit
from extctrl.inference import replicate_seed
from extctrl.simulate import (MC_ORACLE_DRAWS, _control_prob, _draw_covariates, _propensity,
                              _treated_prob, compute_truth)


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


@pytest.mark.parametrize("build", [
    lambda: binary_scenario(n_trial=2.5),
    lambda: binary_scenario(n_external="40"),
    lambda: binary_scenario(seed="x"),
    lambda: binary_scenario(effect=None),
    lambda: binary_scenario(assignment=(0.0, "a")),
    lambda: binary_scenario(outcome_kind="binary"),
    lambda: binary_scenario(unmeasured_confounder=0),
    lambda: CovariateSpec("age", "continuous", sd="a"),
    lambda: binary_scenario(residual_sd=-1.0),
], ids=["n-float", "n-string", "seed-string", "effect-none", "coefficient-string",
        "kind-string", "flag-number", "sd-string", "residual-sd-negative"])
def test_bad_config_field_is_invalid(build):
    # Built directly, not through from_dict: generate once ended in a TypeError
    # or, for a negative residual sd, a ValueError from NumPy.
    with pytest.raises(InvalidConfig):
        build()


def test_numpy_integer_sizes_and_seed_are_accepted():
    config = binary_scenario(n_trial=np.int64(20), n_external=np.int32(30), seed=np.int64(7))
    assert same_subjects(generate(config)[0],
                         generate(binary_scenario(n_trial=20, n_external=30, seed=7))[0])


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
        gaps.append(report.point - truth.ate)
    gaps = np.array(gaps)
    se = gaps.std(ddof=1) / np.sqrt(len(gaps))
    assert abs(gaps.mean()) < 4 * se + 1e-3


# The reference compute_truth's tilted average must match: ATE, ATT and ATC
# written out one by one, with the weights 1, e and 1 - e spelled by hand.
def enumerated_truth(config):
    cells = np.array(list(product((0.0, 1.0), repeat=len(config.covariates))))
    probs = np.ones(len(cells))
    for j, spec in enumerate(config.covariates):
        probs *= np.where(cells[:, j] == 1.0, spec.p, 1.0 - spec.p)
    delta = _treated_prob(config, cells) - _control_prob(config, cells)
    e = _propensity(config, cells)
    ate = float(np.sum(probs * delta))
    att = float(np.sum(probs * e * delta) / np.sum(probs * e))
    atc = float(np.sum(probs * (1 - e) * delta) / np.sum(probs * (1 - e)))
    return ate, att, atc


def monte_carlo_truth(config):
    rng = np.random.default_rng(replicate_seed(config.seed, 1))
    X = _draw_covariates(config, MC_ORACLE_DRAWS, rng)
    delta = _treated_prob(config, X) - _control_prob(config, X)
    e = _propensity(config, X)

    def weighted(w):
        wn = w / np.sum(w)
        est = float(np.sum(wn * delta))
        se = float(np.sqrt(np.sum(wn**2 * (delta - est) ** 2)))
        return est, se

    ate, se_ate = weighted(np.ones(len(delta)))
    att, se_att = weighted(e)
    atc, se_atc = weighted(1.0 - e)
    return ate, att, atc, max(se_ate, se_att, se_atc)


coefficient = st.floats(-3.0, 3.0)


@st.composite
def binary_scenarios(draw):
    k = draw(st.integers(1, 4))
    return binary_scenario(
        covariates=tuple(CovariateSpec(f"x{j}", "binary", p=draw(st.floats(0.05, 0.95)))
                         for j in range(k)),
        assignment=tuple(draw(coefficient) for _ in range(k + 1)),
        outcome_coefficients=tuple(draw(coefficient) for _ in range(k + 1)),
        effect=draw(st.floats(-0.5, 0.5)),
    )


@settings(max_examples=200, deadline=None, derandomize=True)
@given(binary_scenarios())
def test_tilted_truth_matches_the_enumeration_formulas(config):
    truth = compute_truth(config)
    for value, reference in zip((truth.ate, truth.att, truth.atc), enumerated_truth(config)):
        assert abs(value - reference) <= 4e-16
    assert truth.mc_se == 0.0


def test_tilted_truth_matches_the_monte_carlo_formulas():
    config = binary_scenario(
        covariates=(CovariateSpec("severe", "binary", p=0.4),
                    CovariateSpec("age", "continuous", mean=0.5, sd=1.5)),
        assignment=(0.2, -1.0, 0.8), outcome_coefficients=(-0.5, 1.0, -0.7), effect=0.2)
    truth = compute_truth(config)
    assert (truth.ate, truth.att, truth.atc, truth.mc_se) == monte_carlo_truth(config)
