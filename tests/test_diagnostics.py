import numpy as np
import pytest

from extctrl import (
    Dataset,
    Estimand,
    EstimandKind,
    Group,
    balancing_weights,
    balance_table,
    comparability_checklist,
    estimate_propensity,
    smd,
)
from extctrl.balancing import WeightSet

from conftest import make_dataset, random_confounded_dataset


def unit_weights(n):
    return WeightSet(Estimand(EstimandKind.ATE), np.ones(n), 0.0, 0.0, 0)


def test_identical_distributions_zero_smd():
    x = [1.0, 0.0, 0.0, 1.0, 0.0, 0.0]
    groups = [Group.TRIAL] * 3 + [Group.EXTERNAL] * 3
    data = make_dataset(x, groups)
    table = balance_table(data, unit_weights(6))
    assert table.rows[0].unweighted_smd == pytest.approx(0.0, abs=1e-12)


def test_toy_unweighted_smd_hand_value(toy8):
    # means 1/4 vs 3/4, both variances 3/16: (0.25-0.75)/sqrt(3/16).
    table = balance_table(toy8, unit_weights(8))
    expected = (0.25 - 0.75) / np.sqrt(3 / 16)
    assert table.rows[0].unweighted_smd == pytest.approx(expected, abs=1e-10)
    assert table.rows[0].unweighted_smd == pytest.approx(-1.1547, abs=1e-4)


def test_toy_ato_weighted_smd_zero(toy8):
    model = estimate_propensity(toy8)
    wset = balancing_weights(model, toy8, Estimand(EstimandKind.ATO))
    table = balance_table(toy8, wset)
    assert abs(table.rows[0].weighted_smd) < 1e-6
    assert not table.imbalance


def test_smd_sign_flips_under_group_swap():
    rng = np.random.default_rng(5)
    x = rng.normal(size=30)
    trial = np.array([True] * 12 + [False] * 18)
    v1 = smd(x, trial)
    v2 = smd(x, ~trial)
    assert v1 == pytest.approx(-v2, abs=1e-12)


def test_smd_affine_invariance():
    rng = np.random.default_rng(7)
    x = rng.normal(size=40)
    trial = np.array([True] * 15 + [False] * 25)
    base = smd(x, trial)
    shifted = smd(3.0 + 2.5 * x, trial)
    assert shifted == pytest.approx(base, abs=1e-10)
    flipped = smd(-x, trial)
    assert flipped == pytest.approx(-base, abs=1e-10)


def test_unit_weighted_smd_equals_unweighted():
    rng = np.random.default_rng(9)
    data = random_confounded_dataset(rng, n=80)
    table = balance_table(data, unit_weights(80))
    for row in table.rows:
        assert row.weighted_smd == pytest.approx(row.unweighted_smd, abs=0.0)


def _reference_smd(x, trial, w):
    """SMD as one formula: each group's weighted mean and frequency-weight variance."""
    def moments(x, w):
        total = float(np.sum(w))
        m = float(np.sum(w * x) / total)
        return m, float(np.sum(w * (x - m) ** 2) / total)

    (m1, v1), (m0, v0) = moments(x[trial], w[trial]), moments(x[~trial], w[~trial])
    pooled = (v1 + v0) / 2.0
    return None if pooled <= 0 else (m1 - m0) / np.sqrt(pooled)


@pytest.mark.parametrize("kind,seed", [(EstimandKind.ATO, 21), (EstimandKind.ATE, 22)])
def test_balance_table_is_bitwise_smd_per_covariate(kind, seed):
    # The table gathers each group once; each SMD has the bits of the formula
    # on the covariate's column, the unweighted one with unit weights.
    rng = np.random.default_rng(seed)
    base = random_confounded_dataset(rng, n=20001, p=3)
    X = np.column_stack([base.X, (base.X[:, 0] > 0.3).astype(float), np.full(20001, 2.0)])
    data = Dataset(base.covariate_names + ("b", "const"), ids=base.ids, trial=base.trial, X=X)
    wset = balancing_weights(estimate_propensity(data, ["x0", "x1", "x2", "b"]), data,
                             Estimand(kind))
    table = balance_table(data, wset)
    for j, row in enumerate(table.rows):
        x = data.X[:, j]
        assert row.unweighted_smd == _reference_smd(x, data.trial, np.ones(len(x)))
        assert row.weighted_smd == _reference_smd(x, data.trial, wset.weights)
        assert row.unweighted_smd == smd(x, data.trial)
        assert row.weighted_smd == smd(x, data.trial, wset.weights)
    assert table.undefined_covariates == ("const",)


def test_zero_pooled_variance_flagged_not_fatal():
    data = make_dataset([(1.0, 0.5)] * 6,
                        [Group.TRIAL] * 3 + [Group.EXTERNAL] * 3,
                        covariate_names=("const", "alsoconst"))
    table = balance_table(data, unit_weights(6))
    assert set(table.undefined_covariates) == {"const", "alsoconst"}
    assert table.rows[0].weighted_smd is None
    assert not table.imbalance


def test_imbalance_flag_threshold():
    data = make_dataset([1.0, 1.0, 0.0, 0.0, 0.0, 1.0],
                        [Group.TRIAL] * 3 + [Group.EXTERNAL] * 3)
    table = balance_table(data, unit_weights(6), threshold=0.1)
    assert table.imbalance
    loose = balance_table(data, unit_weights(6), threshold=10.0)
    assert not loose.imbalance


def test_checklist_all_aligned_passes():
    report = comparability_checklist({
        "eligibility": "aligned",
        "endpoint_measurement": "aligned",
        "calendar_time": "aligned",
        "treatment_decision_time": "aligned",
    })
    assert report.status == "PASS"
    assert not report.caveats


def test_checklist_non_contemporaneous_warns():
    report = comparability_checklist({
        "eligibility": "aligned",
        "endpoint_measurement": "aligned",
        "calendar_time": "non-contemporaneous",
        "treatment_decision_time": "aligned",
    })
    assert report.status == "WARN"
    assert any("non-contemporaneous" in c for c in report.caveats)


def test_checklist_empty_incomplete():
    report = comparability_checklist({})
    assert report.status == "INCOMPLETE"
