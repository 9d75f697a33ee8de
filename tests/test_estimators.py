import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from extctrl import (
    Estimand,
    EstimandKind,
    Group,
    OutcomeKind,
    Scale,
    WeightingAnalysis,
    balance_table,
    balancing_weights,
    estimate_propensity,
    positivity_report,
    power_prior_posterior,
    survival_contrast,
    weighted_km,
    weighted_km_by_group,
    weighted_mean_contrast,
)
from extctrl import estimators
from extctrl.balancing import WeightSet
from extctrl.errors import (
    AllWeightsZero,
    ParameterOutOfRange,
    ScaleIncompatibleWithOutcome,
    ZeroDenominator,
)
from extctrl.plan import canonical_json

from conftest import make_dataset


def unit_weightset(n, estimand=Estimand(EstimandKind.ATE)):
    return WeightSet(estimand, np.ones(n), 0.0, 0.0, 0)


def test_unit_weight_risk_difference():
    data = make_dataset(
        [0.0] * 8,
        [Group.TRIAL] * 4 + [Group.EXTERNAL] * 4,
        outcomes=[1, 1, 0, 1, 0, 1, 0, 0],
    )
    report = weighted_mean_contrast(data, unit_weightset(8), Scale.RISK_DIFFERENCE)
    assert report.point == pytest.approx(0.5, abs=1e-12)


def test_toy_ipw_null_contrast_on_severity(toy8):
    # Outcome equal to the severity indicator: IPW balances it, so the
    # weighted "response" is 1/2 in both groups and the difference is 0.
    severe = toy8.covariate_matrix()[:, 0].tolist()
    groups = [Group.TRIAL if t else Group.EXTERNAL for t in toy8.trial]
    data = make_dataset(severe, groups, outcomes=severe)
    model = estimate_propensity(data)
    wset = balancing_weights(model, data, Estimand(EstimandKind.ATE))
    report = weighted_mean_contrast(data, wset, Scale.RISK_DIFFERENCE)
    assert report.group_summary["trial"] == pytest.approx(0.5, abs=1e-9)
    assert report.group_summary["external"] == pytest.approx(0.5, abs=1e-9)
    assert report.point == pytest.approx(0.0, abs=1e-9)


def test_att_weights_match_brute_force_oracle():
    rng = np.random.default_rng(15)
    x = rng.normal(size=30)
    groups = [Group.TRIAL if rng.random() < 0.5 else Group.EXTERNAL for _ in range(30)]
    if not any(g is Group.EXTERNAL for g in groups):
        groups[0] = Group.EXTERNAL
    y = rng.integers(0, 2, size=30).astype(float)
    data = make_dataset(list(x), groups, outcomes=list(y), covariate_names=("x",))
    model = estimate_propensity(data)
    wset = balancing_weights(model, data, Estimand(EstimandKind.ATT))
    report = weighted_mean_contrast(data, wset, Scale.RISK_DIFFERENCE)
    # Element-by-element weighted sums, no numpy reductions.
    trial = data.group_mask
    num1 = sum(w * yi for w, yi, t in zip(wset.weights, y, trial) if t)
    den1 = sum(w for w, t in zip(wset.weights, trial) if t)
    num0 = sum(w * yi for w, yi, t in zip(wset.weights, y, trial) if not t)
    den0 = sum(w for w, t in zip(wset.weights, trial) if not t)
    assert report.point == pytest.approx(num1 / den1 - num0 / den0, abs=1e-12)


def test_weight_scale_invariance():
    rng = np.random.default_rng(44)
    y = rng.integers(0, 2, size=20).astype(float)
    groups = [Group.TRIAL] * 10 + [Group.EXTERNAL] * 10
    data = make_dataset([0.0] * 20, groups, outcomes=list(y))
    w = rng.uniform(0.5, 2.0, size=20)
    base = WeightSet(Estimand(EstimandKind.ATE), w, 0.0, 0.0, 0)
    trial = data.group_mask
    scaled = WeightSet(Estimand(EstimandKind.ATE),
                       np.where(trial, w * 31.0, w * 0.007), 0.0, 0.0, 0)
    r1 = weighted_mean_contrast(data, base, Scale.RISK_DIFFERENCE)
    r2 = weighted_mean_contrast(data, scaled, Scale.RISK_DIFFERENCE)
    assert r1.point == pytest.approx(r2.point, abs=1e-12)


def test_ratio_scale_zero_denominator():
    data = make_dataset([0.0] * 4, [Group.TRIAL] * 2 + [Group.EXTERNAL] * 2,
                        outcomes=[1, 1, 0, 0])
    with pytest.raises(ZeroDenominator):
        weighted_mean_contrast(data, unit_weightset(4), Scale.RISK_RATIO)


def test_scale_compatibility_enforced():
    data = make_dataset([0.0] * 4, [Group.TRIAL] * 2 + [Group.EXTERNAL] * 2,
                        outcomes=[1.5, 2.0, 0.5, 1.0])
    with pytest.raises(ScaleIncompatibleWithOutcome):
        weighted_mean_contrast(data, unit_weightset(4), Scale.RISK_DIFFERENCE)
    report = weighted_mean_contrast(data, unit_weightset(4), Scale.MEAN_DIFFERENCE)
    assert report.point == pytest.approx(1.0, abs=1e-12)


def test_all_weights_zero_rejected():
    data = make_dataset([0.0] * 4, [Group.TRIAL] * 2 + [Group.EXTERNAL] * 2,
                        outcomes=[1, 0, 1, 0])
    wset = WeightSet(Estimand(EstimandKind.ATE),
                     np.array([0.0, 0.0, 1.0, 1.0]), 0.0, 0.0, 2)
    with pytest.raises(AllWeightsZero):
        weighted_mean_contrast(data, wset, Scale.RISK_DIFFERENCE)


# --- weighted Kaplan-Meier -------------------------------------------------

def km_oracle(times, events, weights):
    """Enumeration oracle: explicit product over event times."""
    event_times = sorted({t for t, e in zip(times, events) if e == 1})
    points = []
    s = 1.0
    for tj in event_times:
        nj = sum(w for t, w in zip(times, weights) if t >= tj)
        dj = sum(w for t, e, w in zip(times, events, weights) if t == tj and e == 1)
        s *= 1.0 - dj / nj
        points.append((tj, s))
    return points


def test_km_no_censoring_unit_weights():
    curve = weighted_km([1.0, 2.0, 3.0], [1, 1, 1], [1.0, 1.0, 1.0])
    assert np.allclose(curve.times, [1.0, 2.0, 3.0])
    assert np.allclose(curve.survival, [2 / 3, 1 / 3, 0.0])


def test_km_single_subject_any_weight():
    curve = weighted_km([5.0], [1], [7.0])
    assert curve.evaluate(4.9) == 1.0
    assert curve.evaluate(5.0) == 0.0


def test_km_matches_oracle_on_censored_fixture():
    times = [2.0, 3.0, 3.0, 5.0, 8.0, 8.0, 9.0, 12.0]
    events = [1, 1, 0, 1, 0, 1, 1, 0]
    weights = [1.0, 2.0, 0.5, 1.5, 1.0, 2.5, 0.75, 1.25]
    curve = weighted_km(times, events, weights)
    oracle = km_oracle(times, events, weights)
    assert len(curve.times) == len(oracle)
    for (tj, sj), t, s in zip(oracle, curve.times, curve.survival):
        assert t == tj
        assert s == pytest.approx(sj, abs=0.0)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.lists(st.tuples(st.integers(0, 12), st.booleans()), min_size=1, max_size=40))
def test_km_unit_weights_equal_classical_km(subjects):
    # Follow-up times on a half-unit grid, so ties between events, between
    # censorings and across the two are common.
    times = [t / 2 for t, _ in subjects]
    events = [int(e) for _, e in subjects]
    want_times, want = [], []
    s = 1.0
    for t in sorted(set(times)):
        at_risk = sum(u >= t for u in times)
        deaths = sum(u == t and e for u, e in zip(times, events))
        if deaths:
            s *= 1.0 - deaths / at_risk
            want_times.append(t)
            want.append(s)
    curve = weighted_km(times, events, np.ones(len(times)))
    assert curve.times.tolist() == want_times
    assert np.max(np.abs(curve.survival - want), initial=0.0) <= 1e-15


def test_km_curve_non_increasing_and_bounded():
    rng = np.random.default_rng(31)
    times = rng.exponential(3.0, size=40)
    events = rng.integers(0, 2, size=40)
    events[0] = 1
    weights = rng.uniform(0.1, 3.0, size=40)
    curve = weighted_km(times, events, weights)
    assert np.all(np.diff(curve.survival) <= 1e-15)
    assert np.all(curve.survival >= -1e-15)
    assert np.all(curve.survival <= 1.0)


def test_tie_runs_equal_unique_on_tied_times():
    # 25k times on a grid of 0.1, about 150 distinct values, then the same
    # with infinite and NaN times (np.unique counts every NaN as one value).
    times = np.round(np.random.default_rng(4).exponential(2.0, 25_000), 1)
    for bad in ([], [np.inf, np.inf], [np.nan], [np.nan, np.inf, np.nan, np.nan]):
        t = np.sort(np.concatenate([times, bad]))
        uniq, inverse = estimators._tie_runs(t)
        want_uniq, want_inverse = np.unique(t, return_inverse=True)
        assert uniq.tobytes() == want_uniq.tobytes()
        assert inverse.tobytes() == want_inverse.tobytes()


def test_km_curves_are_those_of_unique(monkeypatch):
    # The curves read from the runs of ties are those read from np.unique, to the byte.
    rng = np.random.default_rng(6)
    times = np.round(rng.exponential(2.0, 5_000), 1)
    events = rng.integers(0, 2, size=5_000)
    weights = rng.uniform(0.0, 3.0, size=5_000)
    curve = weighted_km(times, events, weights)
    monkeypatch.setattr(estimators, "_tie_runs", lambda t: np.unique(t, return_inverse=True))
    want = weighted_km(times, events, weights)
    for name in ("times", "survival", "at_risk"):
        assert getattr(curve, name).tobytes() == getattr(want, name).tobytes()
    assert curve.last_time == want.last_time


def test_km_ties_events_before_censorings():
    # Censored subject at t=3 stays in the risk set for the t=3 event.
    curve = weighted_km([3.0, 3.0, 5.0], [1, 0, 1], [1.0, 1.0, 1.0])
    assert curve.survival[0] == pytest.approx(2 / 3, abs=1e-15)


def test_survival_contrast_identical_curves():
    curve = weighted_km([1.0, 2.0, 4.0], [1, 1, 1], [1.0, 1.0, 1.0])
    for horizon in (0.0, 1.5, 3.0, 10.0):
        assert survival_contrast(curve, curve, horizon).point == 0.0


def test_survival_contrast_step_evaluation():
    trial = weighted_km([10.0], [1], [1.0])  # constant 1 before t=10
    external = weighted_km([1.0, 2.0, 2.5, 3.0, 4.0], [1, 1, 1, 0, 1],
                           [1.0, 1.0, 1.0, 1.0, 1.0])
    report = survival_contrast(trial, external, 2.5)
    assert report.point == pytest.approx(1.0 - external.evaluate(2.5), abs=1e-12)


def test_survival_contrast_horizon_beyond_followup_flagged():
    trial = weighted_km([1.0, 2.0], [1, 1], [1.0, 1.0])
    external = weighted_km([1.5], [1], [1.0])
    report = survival_contrast(trial, external, 100.0)
    assert report.warnings


def test_horizon_within_follow_up_after_last_event_not_flagged():
    # Events at 1 and 2, censorings at 10: follow-up runs to 10, not to 2.
    curve = weighted_km([1.0, 2.0, 10.0, 10.0], [1, 1, 0, 0], [1.0] * 4)
    assert curve.last_time == 10.0
    assert survival_contrast(curve, curve, 5.0).warnings == []
    assert survival_contrast(curve, curve, 12.0).warnings
    # A subject with zero weight is not followed up.
    curve = weighted_km([1.0, 2.0, 10.0, 20.0], [1, 1, 0, 0], [1.0, 1.0, 1.0, 0.0])
    assert curve.last_time == 10.0
    assert survival_contrast(curve, curve, 12.0).warnings


def test_weighted_km_by_group_and_median():
    times = [1, 2, 3, 4, 5, 6, 7, 8]
    events = [1] * 8
    groups = [Group.TRIAL] * 4 + [Group.EXTERNAL] * 4
    data = make_dataset([0.0] * 8, groups, times=times, events=events)
    curves = weighted_km_by_group(
        data, WeightSet(Estimand(EstimandKind.ATE), np.ones(8), 0, 0, 0)
    )
    assert curves["trial"].median() == 2.0
    assert curves["external"].median() == 6.0


def test_median_not_reached():
    curve = weighted_km([1.0, 2.0, 3.0, 4.0], [1, 0, 0, 0], [1.0] * 4)
    assert curve.median() is None


def test_km_matches_oracle_on_large_tied_samples():
    # Summation order differs from the subject-by-subject definition, so
    # agreement is to a few ulps, not exact; a last subject dying alone
    # must still leave S exactly 0, never a rounding error below it.
    rng = np.random.default_rng(23)
    for _ in range(20):
        n = 300
        times = np.round(rng.exponential(4.0, size=n), 1)
        events = (rng.random(n) < 0.7).astype(int)
        events[np.argmax(times)] = 1
        times[np.argmax(times)] += 1.0
        weights = rng.exponential(1.0, size=n)
        curve = weighted_km(times, events, weights)
        oracle = km_oracle(list(times), list(events), list(weights))
        assert [t for t, _ in oracle] == curve.times.tolist()
        assert np.allclose(curve.survival, [s for _, s in oracle], rtol=0.0, atol=1e-14)
        assert curve.survival[-1] == 0.0


def test_km_zero_weight_risk_set_is_typed_error():
    # Only zero-weight subjects remain at the last event time.
    with pytest.raises(AllWeightsZero):
        weighted_km([1.0, 2.0, 3.0], [1, 0, 1], [1.0, 1.0, 0.0])


@pytest.mark.parametrize("outcomes, scale", [
    ([1, 0, 1, 1, 0, 1, 0, 0], Scale.RISK_DIFFERENCE),
    ([1.5, 0.2, 2.0, 0.7, 0.1, 1.1, -0.3, 0.4], Scale.MEAN_DIFFERENCE),
])
def test_weighting_without_a_scale_uses_the_outcomes_default(outcomes, scale):
    groups = [Group.TRIAL] * 4 + [Group.EXTERNAL] * 4
    data = make_dataset([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0], groups, outcomes=outcomes)
    default, explicit = WeightingAnalysis(), WeightingAnalysis(scale=scale)
    assert default(data) == explicit(data)
    report = default.run(data)[0]
    assert report.scale is scale
    assert canonical_json(report.to_dict()) == canonical_json(explicit.run(data)[0].to_dict())


# Eight subjects with a time-to-event outcome, both groups on both covariate values.
_SURVIVAL = make_dataset([0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 1.0, 1.0],
                         [Group.TRIAL] * 4 + [Group.EXTERNAL] * 4,
                         times=[1.0, 2.0, 3.0, 4.0, 1.5, 2.5, 3.5, 4.5],
                         events=[1, 0, 1, 1, 1, 1, 0, 1])


def _balance_threshold(threshold):
    balance_table(_SURVIVAL, unit_weightset(8), threshold)


def _positivity_band(a):
    data = make_dataset([0.0, 1.0, 1.0, 0.0], [Group.TRIAL, Group.TRIAL, Group.EXTERNAL,
                                               Group.EXTERNAL])
    positivity_report(estimate_propensity(data), data, a)


@pytest.mark.parametrize("call", [
    lambda: Estimand(EstimandKind.TRIMMED, a=0.6),
    lambda: Estimand(EstimandKind.ATE, a=0.1),
    lambda: _positivity_band(0.5),
    lambda: weighted_km([1.0, -1.0], [1, 0], [1.0, 1.0]),
    lambda: weighted_km([1.0, 2.0], [1, 0], [1.0, -1.0]),
    lambda: weighted_km([1.0, np.nan], [1, 0], [1.0, 1.0]),
    lambda: weighted_km([1.0, 2.0], [1, 0], [1.0, np.nan]),
    lambda: survival_contrast(weighted_km([1.0], [1], [1.0]), weighted_km([1.0], [1], [1.0]), -1.0),
    lambda: weighted_km([1.0, 2.0, 3.0], [1, 2, 0], [1.0, 1.0, 1.0]),
    lambda: weighted_km([1.0, 2.0, 3.0], [1, -1, 0], [1.0, 1.0, 1.0]),
    lambda: weighted_km([1.0, 2.0], [1, np.nan], [1.0, 1.0]),
    lambda: weighted_km([1.0, 2.0], [1, 0], [1.0, np.inf]),
    lambda: survival_contrast(weighted_km([1.0], [1], [1.0]), weighted_km([1.0], [1], [1.0]),
                              np.nan),
    lambda: WeightingAnalysis(horizon=np.nan).run(_SURVIVAL),
    lambda: WeightingAnalysis(horizon=np.nan)(_SURVIVAL),
    lambda: _balance_threshold(np.nan),
    lambda: _balance_threshold(-1.0),
    lambda: _balance_threshold(0.0),
    lambda: _balance_threshold(np.inf),
    lambda: power_prior_posterior(5, 10, 2, 5, 0.5, prior_alpha=np.nan),
], ids=["trim-a", "untrimmed-a", "positivity-band", "negative-time", "negative-weight",
        "nan-time", "nan-weight", "negative-horizon", "event-2", "event-minus-1", "nan-event",
        "inf-weight", "nan-horizon", "analysis-nan-horizon", "analysis-call-nan-horizon",
        "nan-smd-threshold", "negative-smd-threshold", "zero-smd-threshold",
        "inf-smd-threshold", "nan-prior"])
def test_bad_argument_is_parameter_out_of_range(call):
    with pytest.raises(ParameterOutOfRange):
        call()
