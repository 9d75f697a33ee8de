import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from extctrl import (
    balance_table,
    Estimand,
    EstimandKind,
    Group,
    balancing_weights,
    effective_sample_size,
    estimate_propensity,
    tilting,
    weighted_prevalence,
)

from extctrl.errors import SolverError

from conftest import make_dataset, random_confounded_dataset

ALL_ESTIMANDS = [
    Estimand(EstimandKind.ATE),
    Estimand(EstimandKind.ATT),
    Estimand(EstimandKind.ATC),
    Estimand(EstimandKind.ATO),
    Estimand(EstimandKind.TRIMMED, a=0.1),
    Estimand(EstimandKind.MATCHING),
]


def test_tilting_point_values():
    assert tilting(Estimand(EstimandKind.ATE), 0.3) == 1.0
    assert tilting(Estimand(EstimandKind.ATT), 0.3) == pytest.approx(0.3)
    assert tilting(Estimand(EstimandKind.ATC), 0.3) == pytest.approx(0.7)
    assert tilting(Estimand(EstimandKind.ATO), 0.3) == pytest.approx(0.21)
    assert tilting(Estimand(EstimandKind.MATCHING), 0.7) == pytest.approx(0.3)
    assert tilting(Estimand(EstimandKind.TRIMMED, a=0.1), 0.05) == 0.0
    assert tilting(Estimand(EstimandKind.TRIMMED, a=0.1), 0.5) == 1.0


def test_trimmed_requires_valid_a():
    with pytest.raises(ValueError):
        Estimand(EstimandKind.TRIMMED, a=0.6)
    with pytest.raises(ValueError):
        Estimand(EstimandKind.TRIMMED)
    with pytest.raises(ValueError):
        Estimand(EstimandKind.ATE, a=0.1)


def closed_form_weights(estimand, e):
    """Table-row closed forms, written independently of the tilting engine."""
    kind = estimand.kind
    if kind is EstimandKind.ATE:
        return 1.0 / e, 1.0 / (1.0 - e)
    if kind is EstimandKind.ATT:
        return np.ones_like(e), e / (1.0 - e)
    if kind is EstimandKind.ATC:
        return (1.0 - e) / e, np.ones_like(e)
    if kind is EstimandKind.ATO:
        return 1.0 - e, e
    if kind is EstimandKind.TRIMMED:
        ind = ((estimand.a < e) & (e < 1.0 - estimand.a)).astype(float)
        return ind / e, ind / (1.0 - e)
    if kind is EstimandKind.MATCHING:
        m = np.minimum(e, 1.0 - e)
        return m / e, m / (1.0 - e)
    raise AssertionError(kind)


def test_row_formula_property_random_scores():
    rng = np.random.default_rng(0)
    e = rng.uniform(1e-4, 1 - 1e-4, size=1000)
    for estimand in ALL_ESTIMANDS:
        h = tilting(estimand, e)
        w_trial, w_ext = closed_form_weights(estimand, e)
        assert np.max(np.abs(h / e - w_trial)) < 1e-12
        assert np.max(np.abs(h / (1.0 - e) - w_ext)) < 1e-12


def test_toy_ipw_weights(toy8):
    model = estimate_propensity(toy8)
    w = balancing_weights(model, toy8, Estimand(EstimandKind.ATE)).weights
    # Trial: severe 4, non-severe 4/3; external: severe 4/3, non-severe 4.
    assert np.allclose(w[:4], [4.0, 4 / 3, 4 / 3, 4 / 3], atol=1e-9)
    assert np.allclose(w[4:], [4 / 3, 4 / 3, 4 / 3, 4.0], atol=1e-9)


def test_toy_att_weights(toy8):
    model = estimate_propensity(toy8)
    w = balancing_weights(model, toy8, Estimand(EstimandKind.ATT)).weights
    assert np.all(w[:4] == 1.0)
    assert np.allclose(w[4:], [1 / 3, 1 / 3, 1 / 3, 3.0], atol=1e-9)


def test_toy_atc_weights(toy8):
    model = estimate_propensity(toy8)
    w = balancing_weights(model, toy8, Estimand(EstimandKind.ATC)).weights
    assert np.allclose(w[:4], [3.0, 1 / 3, 1 / 3, 1 / 3], atol=1e-9)
    assert np.all(w[4:] == 1.0)


def test_toy_att_ess_control(toy8):
    model = estimate_propensity(toy8)
    wset = balancing_weights(model, toy8, Estimand(EstimandKind.ATT))
    # (sum w)^2 / sum w^2 = 4 / (3*(1/3)^2 + 9) = 12/7 evaluated by hand.
    assert wset.ess_control == pytest.approx(12 / 7, abs=1e-8)
    assert wset.ess_treated == pytest.approx(4.0, abs=1e-12)


def test_toy_weighted_prevalences(toy8):
    model = estimate_propensity(toy8)
    expectations = {
        EstimandKind.ATE: (0.5, 0.5),
        EstimandKind.ATT: (0.25, 0.25),
        EstimandKind.ATC: (0.75, 0.75),
    }
    for kind, (pt, pe) in expectations.items():
        wset = balancing_weights(model, toy8, Estimand(kind))
        got = weighted_prevalence(wset, toy8, "severe")
        assert got[0] == pytest.approx(pt, abs=1e-9)
        assert got[1] == pytest.approx(pe, abs=1e-9)


def test_att_atc_unit_weight_rows():
    rng = np.random.default_rng(4)
    data = random_confounded_dataset(rng, n=120)
    model = estimate_propensity(data)
    trial = data.group_mask
    w_att = balancing_weights(model, data, Estimand(EstimandKind.ATT)).weights
    assert np.all(w_att[trial] == 1.0)
    w_atc = balancing_weights(model, data, Estimand(EstimandKind.ATC)).weights
    assert np.all(w_atc[~trial] == 1.0)


def test_overlap_weights_exact_balance():
    rng = np.random.default_rng(6)
    for _ in range(20):
        data = random_confounded_dataset(rng, n=200, p=3)
        model = estimate_propensity(data)
        wset = balancing_weights(model, data, Estimand(EstimandKind.ATO))
        trial = data.group_mask
        X = data.covariate_matrix()
        w = wset.weights
        for j in range(X.shape[1]):
            m1 = np.sum(w[trial] * X[trial, j]) / np.sum(w[trial])
            m0 = np.sum(w[~trial] * X[~trial, j]) / np.sum(w[~trial])
            assert abs(m1 - m0) < 1e-6


@st.composite
def logistic_designs(draw):
    """A dataset of 1-4 binary or continuous covariates whose group follows a logistic model."""
    n = draw(st.integers(20, 120))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    columns = []
    for _ in range(draw(st.integers(1, 4))):
        if draw(st.booleans()):
            columns.append((rng.random(n) < draw(st.floats(0.1, 0.9))).astype(float))
        else:
            shift, scale = draw(st.floats(-5, 5)), draw(st.floats(0.01, 100))
            columns.append(shift + scale * rng.normal(size=n))
    X = np.column_stack(columns)
    gamma = rng.normal(size=X.shape[1]) / X.std(axis=0).clip(1e-3)
    trial = rng.random(n) < 1 / (1 + np.exp(-(X - X.mean(axis=0)) @ gamma))
    groups = [Group.TRIAL if t else Group.EXTERNAL for t in trial]
    return make_dataset([tuple(row) for row in X], groups,
                        covariate_names=tuple(f"x{j}" for j in range(X.shape[1])))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(logistic_designs())
def test_overlap_weights_balance_every_covariate_exactly(data):
    # The score equations of a logistic fit with an intercept say that the
    # (1 - e)-weighted trial mean of each covariate equals its e-weighted
    # external mean: ATO balances means exactly, whatever the design.
    try:
        model = estimate_propensity(data)
    except SolverError:
        assume(False)
    table = balance_table(data, balancing_weights(model, data, Estimand(EstimandKind.ATO)))
    for row, x in zip(table.rows, data.covariate_matrix().T):
        if np.ptp(x) > 0:  # a constant covariate has no SMD
            assert abs(row.weighted_smd) < 1e-10


def test_trimmed_zero_outside_band_ipw_inside():
    rng = np.random.default_rng(8)
    data = random_confounded_dataset(rng, n=150)
    model = estimate_propensity(data)
    a = 0.2
    wset = balancing_weights(model, data, Estimand(EstimandKind.TRIMMED, a=a))
    e = model.scores
    trial = data.group_mask
    inside = (e > a) & (e < 1 - a)
    assert np.all(wset.weights[~inside] == 0.0)
    ipw = np.where(trial, 1 / e, 1 / (1 - e))
    assert np.allclose(wset.weights[inside], ipw[inside], atol=1e-12)
    assert wset.n_zero_weight == int(np.sum(~inside))


def test_weight_scale_invariance_of_prevalence(toy8):
    from extctrl.balancing import WeightSet

    model = estimate_propensity(toy8)
    wset = balancing_weights(model, toy8, Estimand(EstimandKind.ATE))
    trial = toy8.group_mask
    scaled = np.where(trial, wset.weights * 17.0, wset.weights * 0.001)
    wset2 = WeightSet(wset.estimand, scaled, 0.0, 0.0, 0)
    p1 = weighted_prevalence(wset, toy8, "severe")
    p2 = weighted_prevalence(wset2, toy8, "severe")
    assert p1[0] == pytest.approx(p2[0], abs=1e-12)
    assert p1[1] == pytest.approx(p2[1], abs=1e-12)


def test_ess_equals_group_size_iff_equal_weights():
    assert effective_sample_size(np.full(9, 2.5)) == pytest.approx(9.0, abs=1e-12)
    unequal = np.array([1.0, 2.0, 3.0])
    assert effective_sample_size(unequal) < 3.0 - 1e-12


def test_estimand_parse_tokens():
    assert Estimand.parse("att").kind is EstimandKind.ATT
    trimmed = Estimand.parse("trim:0.05")
    assert trimmed.kind is EstimandKind.TRIMMED
    assert trimmed.a == 0.05
    assert trimmed.label == "trimmed(a=0.05)"
    assert Estimand.parse("ato").target_population_label.startswith("overlap")
