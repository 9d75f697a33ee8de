import numpy as np
import pytest
from scipy.integrate import quad

from extctrl import power_prior_posterior
from extctrl.borrow import PowerPriorAnalysis
from extctrl.errors import ParameterOutOfRange

# Toy response counts: 52 of 61 trial responders.
TRIAL_X, TRIAL_N = 52, 61
EXT_X0, EXT_N0 = 30, 80


def test_a0_zero_discards_external_data():
    post = power_prior_posterior(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0, a0=0.0)
    assert post.posterior_alpha == 1.0 + TRIAL_X
    assert post.posterior_beta == 1.0 + (TRIAL_N - TRIAL_X)
    assert post.effective_prior_n == 0.0


def test_a0_one_pools_counts():
    post = power_prior_posterior(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0, a0=1.0)
    pooled = power_prior_posterior(TRIAL_X + EXT_X0, TRIAL_N + EXT_N0, 0, 0, a0=0.0)
    assert post.posterior_alpha == pooled.posterior_alpha
    assert post.posterior_beta == pooled.posterior_beta


def test_half_discount_matches_quadrature_oracle():
    a0 = 0.5
    post = power_prior_posterior(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0, a0=a0)

    def unnorm(theta):
        # Prior Beta(1,1) times trial likelihood times discounted external
        # likelihood, integrated numerically.
        return (
            theta ** TRIAL_X
            * (1 - theta) ** (TRIAL_N - TRIAL_X)
            * (theta ** EXT_X0 * (1 - theta) ** (EXT_N0 - EXT_X0)) ** a0
        )

    z, _ = quad(unnorm, 0.0, 1.0, epsabs=1e-14, epsrel=1e-12)
    mean_oracle = quad(lambda t: t * unnorm(t), 0.0, 1.0,
                       epsabs=1e-14, epsrel=1e-12)[0] / z
    assert post.mean == pytest.approx(mean_oracle, abs=1e-6)

    # CDF spot checks against the quadrature of the normalized density.
    for theta in (0.6, 0.75, 0.85):
        cdf_oracle = quad(unnorm, 0.0, theta, epsabs=1e-14, epsrel=1e-12)[0] / z
        assert post.cdf(theta) == pytest.approx(cdf_oracle, abs=1e-6)


def test_posterior_mean_monotone_in_a0():
    # External rate (30/80) below the trial-only posterior mean: borrowing
    # more pulls the mean down monotonically.
    means = [
        power_prior_posterior(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0, a0).mean
        for a0 in np.linspace(0.0, 1.0, 11)
    ]
    assert all(a > b for a, b in zip(means, means[1:]))


def test_posterior_mass_increases_in_a0():
    totals = [
        power_prior_posterior(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0, a0).posterior_alpha
        + power_prior_posterior(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0, a0).posterior_beta
        for a0 in np.linspace(0.0, 1.0, 5)
    ]
    assert all(b > a for a, b in zip(totals, totals[1:]))


def test_credible_interval_brackets_mean():
    post = power_prior_posterior(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0, a0=0.3)
    lo, hi = post.credible_interval(0.95)
    assert lo < post.mean < hi


def test_interval_consistent_with_cdf():
    post = power_prior_posterior(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0, a0=0.5)
    lo, hi = post.credible_interval(0.9)
    assert post.cdf(lo) == pytest.approx(0.05, abs=1e-8)
    assert post.cdf(hi) == pytest.approx(0.95, abs=1e-8)


def test_parameter_validation():
    with pytest.raises(ParameterOutOfRange):
        power_prior_posterior(10, 5, 0, 0, 0.5)
    with pytest.raises(ParameterOutOfRange):
        power_prior_posterior(5, 10, 8, 5, 0.5)
    with pytest.raises(ParameterOutOfRange):
        power_prior_posterior(5, 10, 2, 5, 1.5)
    with pytest.raises(ParameterOutOfRange):
        power_prior_posterior(5, 10, 2, 5, 0.5, prior_alpha=0.0)


@pytest.mark.parametrize("call", [
    lambda: power_prior_posterior(2.5, 10, 3, 10, 0.5),
    lambda: power_prior_posterior(2, 10, 1, True, 0.5),
    lambda: PowerPriorAnalysis(2, 10, 3, 10, 0.5, prior=(1, 2, 3)).run(),
], ids=["fractional-count", "bool-count", "three-number-prior"])
def test_library_rejects_what_a_plan_rejects(call):
    # A plan takes counts that are integers and not bools (is_count) and a
    # prior of two numbers > 0; a library caller gets the same rule.
    with pytest.raises(ParameterOutOfRange):
        call()


def test_a0_sensitivity_sweep():
    rows = PowerPriorAnalysis(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0, 0.5, sweep=[0.0, 0.5, 1.0]).run()[1]["sensitivity"]
    assert [r["a0"] for r in rows] == [0.0, 0.5, 1.0]
    assert rows[0]["mean"] > rows[2]["mean"]


@pytest.mark.parametrize("x, n, x0, n0", [(TRIAL_X, TRIAL_N, EXT_X0, EXT_N0), (0, 61, 30, 80),
                                          (61, 61, 30, 80), (52, 61, 0, 80), (52, 61, 80, 80)])
@pytest.mark.parametrize("a0", [0.0, 0.5, 1.0])
def test_quantile_inverts_the_cdf(x, n, x0, n0, a0):
    post = power_prior_posterior(x, n, x0, n0, a0)
    for q in (0.005, 0.025, 0.975, 0.995):
        theta = post.quantile(q)
        assert 0.0 < theta < 1.0
        assert abs(post.cdf(theta) - q) <= 1e-11
    with pytest.raises(ParameterOutOfRange):
        post.quantile(1.0)
