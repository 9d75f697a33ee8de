import numpy as np
import pytest

from extctrl import Dataset, Group, add_intercept, estimate_propensity, positivity_report
from extctrl.glm import LogisticDesign, expit
from extctrl.propensity import _design

from conftest import make_dataset, random_confounded_dataset, reference_unit_columns


def test_toy_scores(toy8):
    model = estimate_propensity(toy8)
    severe = toy8.covariate_matrix()[:, 0] == 1.0
    assert np.allclose(model.scores[severe], 0.25, atol=1e-10)
    assert np.allclose(model.scores[~severe], 0.75, atol=1e-10)


def test_constant_covariate_gives_trial_fraction():
    groups = [Group.TRIAL] * 3 + [Group.EXTERNAL] * 7
    data = make_dataset([1.0] * 10, groups)
    model = estimate_propensity(data)
    assert np.allclose(model.scores, 0.3, atol=1e-8)


def test_scores_match_linear_predictor_oracle():
    rng = np.random.default_rng(42)
    data = random_confounded_dataset(rng, n=200, p=3)
    model = estimate_propensity(data)
    # Recompute every score directly from the fitted coefficients.
    X = data.covariate_matrix()
    beta = model.glm.coefficients
    oracle = expit(beta[0] + X @ beta[1:])
    assert np.allclose(model.scores, oracle, atol=1e-12)


def test_recovers_known_assignment_coefficients():
    rng = np.random.default_rng(1)
    n = 2000
    X = rng.normal(size=(n, 2))
    truth = np.array([0.2, 0.8, -0.5])
    e = expit(truth[0] + X @ truth[1:])
    groups = [Group.TRIAL if rng.random() < p else Group.EXTERNAL for p in e]
    data = make_dataset([tuple(r) for r in X], groups, covariate_names=("a", "b"))
    model = estimate_propensity(data)
    assert np.allclose(model.glm.coefficients, truth, atol=0.2)


def test_score_mean_equals_trial_proportion():
    rng = np.random.default_rng(9)
    data = random_confounded_dataset(rng, n=150)
    model = estimate_propensity(data)
    assert np.mean(model.scores) == pytest.approx(data.n_trial / len(data), abs=1e-8)


def test_rescaling_invariance():
    rng = np.random.default_rng(17)
    data = random_confounded_dataset(rng, n=150)
    model = estimate_propensity(data)
    scaled = Dataset(data.covariate_names, ids=data.ids, trial=data.trial,
                     X=data.X * [50.0, 1.0, 1.0])
    model2 = estimate_propensity(scaled)
    assert np.allclose(model.scores, model2.scores, atol=1e-8)


def test_positivity_toy(toy8):
    model = estimate_propensity(toy8)
    report = positivity_report(model, toy8, a=0.1)
    assert report.trial_range == pytest.approx((0.25, 0.75), abs=1e-10)
    assert report.external_range == pytest.approx((0.25, 0.75), abs=1e-10)
    assert report.overlap_interval == pytest.approx((0.25, 0.75), abs=1e-10)
    assert report.n_outside_trial == 0
    assert report.n_outside_external == 0
    assert not report.insufficient_overlap


def test_positivity_disjoint_supports_flagged():
    # Synthetic model: all trial scores above 0.99, all external below 0.01.
    from extctrl import PropensityModel

    data = make_dataset([1.0] * 6, [Group.TRIAL] * 3 + [Group.EXTERNAL] * 3)
    scores = np.array([0.995, 0.997, 0.999, 0.002, 0.005, 0.008])
    model = PropensityModel(glm=None, scores=scores, covariate_names=("severe",))
    report = positivity_report(model, data, a=0.05)
    assert report.overlap_interval is None
    assert report.insufficient_overlap


def test_positivity_zero_band(toy8):
    model = estimate_propensity(toy8)
    report = positivity_report(model, toy8, a=0.0)
    assert report.band == (0.0, 1.0)
    assert report.prop_outside_trial == 0.0
    assert report.prop_outside_external == 0.0


def composed_design(X):
    """The propensity design as ``add_intercept(X[:, keep])`` composed it."""
    return add_intercept(X[:, np.ptp(np.ascontiguousarray(X.T), axis=1) > 0])


@pytest.mark.parametrize("p", range(1, 7))
def test_one_pass_design_matches_the_composition_bit_for_bit(p):
    # The design built in one pass must hold the composition's values in its
    # memory layout (which picks the BLAS kernel of the scores X @ beta), and
    # LogisticDesign must prepare the same signs, scales and unit-norm
    # transpose from it, each row times its sign (exact for +-1). 20,000 rows
    # pass einsum's 8,192-element buffer.
    rng = np.random.default_rng(p)
    for n in sorted({p + 1, p + 2, 10, 499, 500, 1000, 5000, 20_000}):
        for case in range(3):
            X = rng.normal(size=(n, p)) * 10.0 ** rng.integers(-3, 4, size=p)
            binary = rng.random(p) < 0.5 if case else np.full(p, case == 0)
            X[:, binary] = X[:, binary] > 0
            X[:, rng.random(p) < 0.3] = rng.choice([0.0, 1.0, 2.5])  # dropped
            X = np.ascontiguousarray(X)
            y = (rng.random(n) < 0.5).astype(float)
            want, got = composed_design(X), _design(X)
            assert got.strides == want.strides
            assert got.tobytes() == want.tobytes()
            XT, scale = reference_unit_columns(want)
            design = LogisticDesign(got, y)
            assert design.XT.tobytes() == (XT * (2.0 * y - 1.0)).tobytes()
            assert design.scale.tobytes() == scale.tobytes()
