import numpy as np
import pytest

from extctrl import (
    BootstrapConfig,
    Estimand,
    EstimandKind,
    Group,
    Resampling,
    Scale,
    balancing_weights,
    bootstrap_ci,
    estimate_propensity,
    weighted_mean_contrast,
)
from extctrl.errors import SolverError, TooManyReplicateFailures
from extctrl.inference import replicate_seed, resample_dataset

from conftest import make_dataset


def ipw_pipeline(data):
    model = estimate_propensity(data)
    wset = balancing_weights(model, data, Estimand(EstimandKind.ATE))
    return weighted_mean_contrast(data, wset, Scale.RISK_DIFFERENCE).point


def small_dataset(rng, n=60):
    x = rng.normal(size=n)
    groups = [Group.TRIAL if rng.random() < 0.5 else Group.EXTERNAL for _ in range(n)]
    groups[0], groups[1] = Group.TRIAL, Group.EXTERNAL
    y = (rng.random(n) < 0.4).astype(float)
    return make_dataset(list(x), groups, outcomes=list(y), covariate_names=("x",))


def test_replicate_seed_is_deterministic_and_spread():
    seeds = {replicate_seed(123, i) for i in range(1000)}
    assert len(seeds) == 1000
    assert replicate_seed(123, 5) == replicate_seed(123, 5)
    assert replicate_seed(123, 5) != replicate_seed(124, 5)


def test_determinism_same_seed_identical_interval():
    rng = np.random.default_rng(0)
    data = small_dataset(rng)
    config = BootstrapConfig(replicates=50, seed=99)
    r1 = bootstrap_ci(ipw_pipeline, data, config)
    r2 = bootstrap_ci(ipw_pipeline, data, config)
    assert r1.lower == r2.lower
    assert r1.upper == r2.upper
    assert np.array_equal(r1.replicates, r2.replicates)


def test_numpy_integer_seed_gives_the_same_replicates():
    data = small_dataset(np.random.default_rng(0))
    want = bootstrap_ci(ipw_pipeline, data, BootstrapConfig(replicates=20, seed=99))
    got = bootstrap_ci(ipw_pipeline, data, BootstrapConfig(replicates=20, seed=np.int64(99)))
    assert np.array_equal(got.replicates, want.replicates)


def test_serial_vs_parallel_identical():
    rng = np.random.default_rng(1)
    data = small_dataset(rng)
    serial = bootstrap_ci(ipw_pipeline, data,
                          BootstrapConfig(replicates=40, seed=7, threads=1))
    parallel = bootstrap_ci(ipw_pipeline, data,
                            BootstrapConfig(replicates=40, seed=7, threads=4))
    assert np.array_equal(serial.replicates, parallel.replicates)
    assert (serial.lower, serial.upper) == (parallel.lower, parallel.upper)


def test_degenerate_data_zero_width():
    # Identical outcome within each group and constant covariate: every
    # resample reproduces the same contrast.
    groups = [Group.TRIAL] * 5 + [Group.EXTERNAL] * 5
    data = make_dataset([1.0] * 10, groups, outcomes=[1] * 5 + [0] * 5)
    result = bootstrap_ci(ipw_pipeline, data, BootstrapConfig(replicates=30, seed=4))
    assert result.lower == result.upper == result.point == pytest.approx(1.0)


def test_refit_counter_equals_successes():
    rng = np.random.default_rng(2)
    data = small_dataset(rng)
    result = bootstrap_ci(ipw_pipeline, data, BootstrapConfig(replicates=25, seed=11))
    assert result.n_refits == 25 - result.n_failures
    assert result.n_refits == len(result.replicates)


def test_percentile_interval_contains_median():
    rng = np.random.default_rng(3)
    data = small_dataset(rng, n=80)
    result = bootstrap_ci(ipw_pipeline, data, BootstrapConfig(replicates=99, seed=13))
    med = float(np.median(result.replicates))
    assert result.lower <= med <= result.upper


def test_stratified_resampling_preserves_group_sizes():
    rng = np.random.default_rng(6)
    data = small_dataset(rng)
    seen = []

    def probe(d):
        seen.append((d.n_trial, d.n_external))
        return 0.0

    bootstrap_ci(probe, data, BootstrapConfig(replicates=10, seed=3))
    assert all(s == (data.n_trial, data.n_external) for s in seen)


def test_trial_only_resampling_keeps_external_fixed():
    rng = np.random.default_rng(8)
    data = small_dataset(rng)
    def external_rows(d):
        ext = ~d.trial
        return d.ids[ext].tolist(), d.X[ext].tolist(), d.outcome[ext].tolist()

    externals = external_rows(data)
    seen = []

    def probe(d):
        seen.append(external_rows(d))
        return 0.0

    bootstrap_ci(
        probe, data,
        BootstrapConfig(replicates=5, seed=3, resampling=Resampling.TRIAL_ONLY),
    )
    # First call is the point estimate on the original data.
    assert all(s == externals for s in seen[1:])


def test_too_many_failures_raises():
    rng = np.random.default_rng(5)
    data = small_dataset(rng)
    calls = {"n": 0}

    def flaky(d):
        calls["n"] += 1
        if calls["n"] > 1:  # point estimate succeeds, replicates all fail
            raise SolverError("synthetic failure")
        return 0.0

    with pytest.raises(TooManyReplicateFailures):
        bootstrap_ci(flaky, data, BootstrapConfig(replicates=10, seed=1))


def test_config_validation():
    with pytest.raises(ValueError):
        BootstrapConfig(replicates=1)
    with pytest.raises(ValueError):
        BootstrapConfig(level=1.0)


def _row_resample_reference(data, rng, resampling):
    # The per-group list algorithm the columnar resampler must reproduce.
    trial_ids = data.ids[data.trial].tolist()
    ext_ids = data.ids[~data.trial].tolist()
    idx_t = rng.integers(0, len(trial_ids), size=len(trial_ids))
    picked = [trial_ids[i] for i in idx_t]
    if resampling is Resampling.STRATIFIED_BY_GROUP and ext_ids:
        idx_e = rng.integers(0, len(ext_ids), size=len(ext_ids))
        picked += [ext_ids[i] for i in idx_e]
    else:
        picked += ext_ids
    return picked


@pytest.mark.parametrize("resampling", list(Resampling))
def test_resample_matches_row_reference(resampling):
    data = small_dataset(np.random.default_rng(12))
    for seed in range(6):
        got = resample_dataset(data, np.random.default_rng(seed), resampling)
        expected = _row_resample_reference(data, np.random.default_rng(seed), resampling)
        assert got.ids.tolist() == expected
        assert got.covariate_matrix().flags.c_contiguous
