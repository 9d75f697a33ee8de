import numpy as np
import pytest

from extctrl import (
    BootstrapConfig,
    CovariateSpec,
    Estimand,
    EstimandKind,
    Group,
    OutcomeKind,
    Scale,
    ScenarioConfig,
    WeightingAnalysis,
    add_intercept,
    balancing_weights,
    bootstrap_ci,
    estimate_propensity,
    generate,
    weighted_mean_contrast,
)
from extctrl.errors import (InvalidConfig, PlanInvalid, PositivityHardFail, SolverError,
                            TooManyReplicateFailures)
from extctrl.glm import DEFAULT_TOL
from extctrl.inference import (_SEED_CHUNK, _block_draw, _resample_rows, _seed_state,
                               replicate_estimates, replicate_seed, resample_dataset)

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


@pytest.mark.parametrize("threads", ["3", "0", "-2", "x", "\u00b2"])
def test_threads_variable_never_changes_the_replicates(threads, monkeypatch):
    # Anything but a positive integer, a superscript digit included, runs serially.
    data = small_dataset(np.random.default_rng(1))
    want = bootstrap_ci(ipw_pipeline, data, BootstrapConfig(replicates=20, seed=7, threads=1))
    monkeypatch.setenv("EXTCTRL_THREADS", threads)
    got = bootstrap_ci(ipw_pipeline, data, BootstrapConfig(replicates=20, seed=7))
    assert np.array_equal(got.replicates, want.replicates)


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
    assert len(result.replicates) == 25 - result.n_failures


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


def test_closure_positivity_hard_fail_is_a_counted_failure():
    # A custom pipeline's hard-fail is a typed error like any other: the
    # replicate fails and is counted, and the interval comes from the rest.
    rng = np.random.default_rng(5)
    data = small_dataset(rng)
    calls = {"n": 0}

    def strict(d):
        calls["n"] += 1
        if calls["n"] in (3, 7):
            raise PositivityHardFail("insufficient propensity-score overlap")
        return ipw_pipeline(d)

    result = bootstrap_ci(strict, data, BootstrapConfig(replicates=20, seed=1), point=0.0)
    assert result.n_failures == 2
    assert result.failures_by_error == {"PositivityHardFail": 2}
    assert len(result.replicates) == 18


def test_weighting_analysis_without_horizon_is_plan_invalid_before_any_fit(monkeypatch):
    rng = np.random.default_rng(8)
    groups = [Group.TRIAL, Group.EXTERNAL] * 10
    data = make_dataset(list(rng.normal(size=20)), groups, times=list(rng.exponential(size=20)),
                        events=[1, 0] * 10, covariate_names=("x",))
    analysis = WeightingAnalysis(Estimand(EstimandKind.ATE), Scale.RISK_DIFFERENCE)

    def no_fit(*args, **kwargs):
        raise AssertionError("the propensity model was fitted")

    monkeypatch.setattr("extctrl.estimators.estimate_propensity", no_fit)
    with pytest.raises(PlanInvalid, match="needs a survival horizon"):
        bootstrap_ci(analysis, data, BootstrapConfig(replicates=10, seed=1))
    with pytest.raises(PlanInvalid, match="needs a survival horizon"):
        analysis.run(data)


def test_config_validation():
    with pytest.raises(InvalidConfig):
        BootstrapConfig(replicates=1)
    with pytest.raises(InvalidConfig):
        BootstrapConfig(level=1.0)


@pytest.mark.parametrize("field, value", [
    ("replicates", 20.5), ("replicates", True), ("replicates", "20"), ("replicates", None),
    ("seed", "x"), ("seed", 1.5), ("seed", False), ("seed", None),
    ("threads", -2), ("threads", 2.5), ("threads", True),
    ("level", "0.9"), ("level", float("nan")),
])
def test_config_field_types_are_invalid_config(field, value):
    # Each of these once failed later (a NumPy TypeError for replicates=20.5,
    # a ValueError for seed="x") or ran (threads=-2 and threads=2.5).
    with pytest.raises(InvalidConfig, match=f"bootstrap {field} must be"):
        BootstrapConfig(**{field: value})


def test_config_accepts_numpy_integers():
    config = BootstrapConfig(replicates=np.int64(20), seed=np.uint64(7), threads=np.int32(2))
    assert (config.replicates, config.seed, config.threads) == (20, 7, 2)


def _row_resample_reference(data, rng):
    # The per-group list algorithm the columnar resampler must reproduce.
    trial_ids = data.ids[data.trial].tolist()
    ext_ids = data.ids[~data.trial].tolist()
    idx_t = rng.integers(0, len(trial_ids), size=len(trial_ids))
    picked = [trial_ids[i] for i in idx_t]
    if ext_ids:
        idx_e = rng.integers(0, len(ext_ids), size=len(ext_ids))
        picked += [ext_ids[i] for i in idx_e]
    return picked


def test_resample_matches_row_reference():
    data = small_dataset(np.random.default_rng(12))
    for seed in range(6):
        got = resample_dataset(data, np.random.default_rng(seed))
        expected = _row_resample_reference(data, np.random.default_rng(seed))
        assert got.ids.tolist() == expected
        assert got.covariate_matrix().flags.c_contiguous


def cell_standardised_contrast(data):
    """Sum over cells c of P(c) (mean trial outcome in c - mean external outcome in c)."""
    x, trial, y = data.covariate_matrix()[:, 0], data.group_mask, data.outcomes()
    return sum(np.mean(x == c) * (y[(x == c) & trial].mean() - y[(x == c) & ~trial].mean())
               for c in (0.0, 1.0))


def test_every_replicate_equals_the_closed_form_of_its_resample():
    # The criterion-9 design: a saturated propensity model on one binary
    # covariate reproduces the cell trial fractions, so the ATE Hajek IPW
    # contrast is the cell-standardised difference of means, replicate by replicate.
    data, _ = generate(ScenarioConfig(
        n_trial=250, n_external=250, covariates=(CovariateSpec("severe", "binary", p=0.4),),
        assignment=(0.2, -1.0), outcome_kind=OutcomeKind.BINARY,
        outcome_coefficients=(-0.4, 1.0), effect=0.12, seed=9003))
    config = BootstrapConfig(replicates=200, seed=3)
    values, errors = replicate_estimates(ipw_pipeline, data, config)
    assert errors == [None] * config.replicates
    for i, value in enumerate(values):
        sample = resample_dataset(data, np.random.default_rng(replicate_seed(config.seed, i)))
        assert abs(value - cell_standardised_contrast(sample)) < 1e-9
    assert abs(ipw_pipeline(data) - cell_standardised_contrast(data)) < 1e-9


# Reference formulas for one replicate of a custom pipeline, written out in
# fresh arrays with no shared sums: the unit-norm transpose, every Newton step
# from tanh u (the first one too), expit, the balancing weights, each group's
# weight total, ESS and Hajek mean. The package computes several of these
# differently (in place, from known values at beta = 0, or once for two uses),
# and must land on the same bits.
def _reference_fit(X, y):
    XT = np.ascontiguousarray(X.T)
    big = np.abs(XT).max(axis=1)
    XT = XT / np.where(big > 0, big, 1.0)[:, None]
    norm = np.sqrt(np.einsum("ij,ij->i", XT, XT))
    XT, scale = XT / np.where(norm > 0, norm, 1.0)[:, None], np.where(big > 0, big * norm, 1.0)
    sign, B = 2.0 * y - 1.0, np.zeros((1, X.shape[1]))
    for steps in range(1, 101):
        t = np.tanh(B @ XT)
        w = 1.0 - t * t
        score = (sign - t) @ XT.T
        H = ((XT * w) @ XT.T)[None]
        step = np.linalg.solve(H, score[:, :, None])[:, :, 0]
        B += step
        if (score * step).sum(axis=1)[0] < DEFAULT_TOL:
            return 2.0 * B[0] / scale, steps
    raise AssertionError("the reference fit did not converge")


def _reference_replicate(sample):
    """Coefficients, steps, scores, weights, ESS, zero count, totals and effect."""
    x, trial, y = sample.covariate_matrix(), sample.group_mask, sample.outcomes()
    X = add_intercept(x[:, np.ptp(np.ascontiguousarray(x.T), axis=1) > 0])
    beta, steps = _reference_fit(X, trial.astype(float))
    eta = X @ beta
    e = np.exp(-np.abs(eta))
    scores = np.where(eta >= 0, 1.0, e) / (1.0 + e)
    h = np.ones_like(scores)  # ATE
    w = np.where(trial, h / scores, h / (1.0 - scores))
    t0, t1 = np.bincount(trial, w, 2).tolist()
    q0, q1 = np.bincount(trial, w * w, 2).tolist()
    s0, s1 = np.bincount(trial, w * y, 2).tolist()
    return dict(beta=beta, steps=steps, scores=scores, weights=w,
                ess=(t1 * t1 / q1, t0 * t0 / q0), n_zero=int(np.count_nonzero(w == 0.0)),
                totals=(t0, t1), means=(s1 / t1, s0 / t0), point=s1 / t1 - s0 / t0)


def test_custom_replicates_equal_the_analysis_and_reference_formulas_bit_for_bit():
    # The criterion-9 design: each of 100 replicates of a user's closure
    # equals the plan's WeightingAnalysis on the same resample, and every value
    # of its fit, WeightSet and EffectReport equals the reference formulas.
    data, _ = generate(ScenarioConfig(
        n_trial=250, n_external=250, covariates=(CovariateSpec("severe", "binary", p=0.4),),
        assignment=(0.2, -1.0), outcome_kind=OutcomeKind.BINARY,
        outcome_coefficients=(-0.4, 1.0), effect=0.12, seed=9005))
    config = BootstrapConfig(replicates=100, seed=11)
    values, errors = replicate_estimates(ipw_pipeline, data, config)
    assert errors == [None] * config.replicates
    analysis = WeightingAnalysis(Estimand(EstimandKind.ATE), Scale.RISK_DIFFERENCE)
    for i, value in enumerate(values):
        sample = resample_dataset(data, np.random.default_rng(replicate_seed(config.seed, i)))
        ref = _reference_replicate(sample)
        assert value == analysis(sample) == ref["point"]
        model = estimate_propensity(sample)
        assert np.array_equal(model.glm.coefficients, ref["beta"])
        assert model.glm.iterations == ref["steps"]
        assert np.array_equal(model.scores, ref["scores"])
        wset = balancing_weights(model, sample, Estimand(EstimandKind.ATE))
        assert np.array_equal(wset.weights, ref["weights"])
        assert (wset.ess_treated, wset.ess_control) == ref["ess"]
        assert wset.n_zero_weight == ref["n_zero"] and wset.totals == ref["totals"]
        report = weighted_mean_contrast(sample, wset, Scale.RISK_DIFFERENCE)
        assert report.point == ref["point"]
        assert (report.group_summary["trial"], report.group_summary["external"]) == ref["means"]
        assert (report.ess["trial"], report.ess["external"]) == ref["ess"]


# --- the block draw against NumPy's generator ---------------------------------

def _splitmix64_reference(z):
    z = (z + 0x9E3779B97F4A7C15) % 2**64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) % 2**64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) % 2**64
    return z ^ (z >> 31)


ROOT_SEEDS = [0, 1, 7, -1, -12345, 2**63, 2**64 - 1, 2**64 + 3, np.int64(-9), np.uint64(2**63 + 1),
              np.int32(17), *range(100, 139)]


def test_replicate_seed_equals_the_integer_hash():
    assert len(ROOT_SEEDS) == 50
    for root in ROOT_SEEDS:
        for index in (0, 1, 2, 1000, 2**31):
            want = _splitmix64_reference((int(root) % 2**64) ^ _splitmix64_reference(index))
            assert replicate_seed(root, index) == want


@pytest.mark.parametrize("n_trial", [1, 2, 3, 250, 251, 1000, 2999, 3000])
@pytest.mark.parametrize("n_external", [0, 1])
def test_block_rows_equal_the_stream_rule(n_trial, n_external):
    # Every replicate of a block holds the subjects its own generator draws,
    # over 50 root seeds (NumPy integers and negative roots among them). Rows
    # are interleaved so that a row index is not its position in the group.
    rows = np.random.default_rng(n_trial).permutation(n_trial + n_external)
    group_rows = (np.sort(rows[:n_trial]), np.sort(rows[n_trial:]))
    indices = np.array([0, 1, 5, 64, 999])
    for root in ROOT_SEEDS:
        got = _block_draw(group_rows, root, 1000, len(indices))(indices)
        for j, i in enumerate(indices):
            want = _resample_rows(*group_rows, np.random.default_rng(replicate_seed(root, i)))
            assert np.array_equal(got[j], want), (root, i)


@pytest.mark.parametrize("n_external", [0, 1, 500])
def test_block_rows_equal_the_stream_rule_after_a_rejected_word(n_external):
    # At root seed 0, replicates 725 and 1419 of a 3,000-row trial group each
    # meet a word that Lemire's method rejects; the draws after it shift by one
    # word, the external group's included.
    group_rows = (np.arange(3000), np.arange(3000, 3000 + n_external))
    indices = np.array([724, 725, 726, 1419])
    got = _block_draw(group_rows, 0, 1420, 4)(indices)
    for j, i in enumerate(indices):
        rng = np.random.default_rng(replicate_seed(0, i))
        halves = rng.bit_generator.random_raw(1500).astype("<u8").view("<u4")
        assert (halves * np.uint32(3000) < 2**32 % 3000).any() == (i in (725, 1419))
        want = _resample_rows(*group_rows, np.random.default_rng(replicate_seed(0, i)))
        assert np.array_equal(got[j], want)


def test_block_rows_equal_the_stream_rule_when_half_the_block_is_redrawn():
    # At k = 60,000 trial rows Lemire's method rejects a half with probability
    # (2**32 mod k) / 2**32, about 1.1e-5, so about half of the replicates meet
    # a rejected word: at root seed 0, replicates 0, 3, 4 and 6. Those are
    # drawn again by NumPy's generator, in the same buffer as the others.
    k = 60000
    group_rows = (np.arange(k), np.arange(k, k + 3))
    got = _block_draw(group_rows, 0, 8, 8)(np.arange(8))
    met = []
    for i in range(8):
        rng = np.random.default_rng(replicate_seed(0, i))
        halves = rng.bit_generator.random_raw(k // 2).astype("<u8").view("<u4")
        met.append(bool((halves * np.uint32(k) < 2**32 % k).any()))
        want = _resample_rows(*group_rows, np.random.default_rng(replicate_seed(0, i)))
        assert np.array_equal(got[i], want), i
    assert met == [True, False, False, True, True, False, True, False]


def interleaved(n_trial, n_external):
    rows = np.random.default_rng(n_trial).permutation(n_trial + n_external)
    return np.sort(rows[:n_trial]), np.sort(rows[n_trial:])


@pytest.mark.parametrize("group_rows,roots,indices", [
    (interleaved(251, 250), ROOT_SEEDS[:12], [0, 1, 5, 64, 999]),
    (interleaved(1, 40), ROOT_SEEDS[:12], [0, 1, 5, 64, 999]),  # a trial group of one
    (interleaved(40, 1), ROOT_SEEDS[:12], [0, 1, 5, 64, 999]),  # an external group of one
    ((np.arange(3000), np.arange(3000, 3000)), ROOT_SEEDS[:12], [0, 1, 5, 64, 999]),
    ((np.arange(3000), np.arange(3000, 3500)), [0], [724, 725, 726, 1419]),  # rejected words
    ((np.arange(60000), np.arange(60000, 60003)), [0], range(8)),  # half the block redrawn
], ids=["interleaved", "trial-one", "external-one", "no-external", "rejected", "half-redrawn"])
def test_block_counts_equal_bincount_of_the_stream_rule(group_rows, roots, indices):
    # A batch's counts are drawn in place from the Lemire positions, without
    # rows: row j of the count block is np.bincount of the rows that replicate
    # indices[j]'s own generator draws. The same draw still gives those rows.
    indices = np.array(indices)
    n = sum(map(len, group_rows))
    for root in roots:
        draw = _block_draw(group_rows, root, indices.max() + 1, len(indices))
        counts = np.full((len(indices) + 1, n), np.nan)
        got = draw(indices, counts)
        assert np.shares_memory(got, counts) and got.shape == (len(indices), n)
        assert np.isnan(counts[-1]).all()
        rows = draw(indices)
        for j, i in enumerate(indices):
            want = _resample_rows(*group_rows, np.random.default_rng(replicate_seed(root, i)))
            assert np.array_equal(got[j], np.bincount(want, minlength=n)), (root, i)
            assert np.array_equal(rows[j], want), (root, i)


def test_block_draw_reuses_its_buffer_and_takes_any_indices():
    group_rows = (np.arange(0, 40, 2), np.arange(1, 40, 2))
    draw = _block_draw(group_rows, 3, 31, 4)
    first = draw(np.array([9, 2, 30]))
    kept = first.copy()
    second = draw(np.array([30]))
    assert np.shares_memory(first, second) and np.array_equal(second[0], kept[2])
    for j, i in enumerate([9, 2, 30]):
        assert np.array_equal(kept[j], _resample_rows(
            *group_rows, np.random.default_rng(replicate_seed(3, i))))


def test_block_draw_seeds_every_chunk_of_replicates():
    # Seed words are mixed a chunk of replicates at a time and only the last
    # chunk is kept: a block that spans two chunks, and a draw that goes back
    # to an earlier chunk (as a refit of failed replicates does), still give
    # each replicate its own stream. The last chunk is a short one.
    group_rows = (np.arange(0, 30, 3), np.setdiff1d(np.arange(30), np.arange(0, 30, 3)))
    c = _SEED_CHUNK
    draw = _block_draw(group_rows, 11, 2 * c + 5, 4)
    for indices in ([c - 2, c - 1, c, c + 1], [2 * c + 4, 2 * c], [0, c - 1], [2 * c + 1, c]):
        counts = draw(np.array(indices), np.empty((4, 30)))
        for j, i in enumerate(indices):
            want = _resample_rows(*group_rows, np.random.default_rng(replicate_seed(11, i)))
            assert np.array_equal(counts[j], np.bincount(want, minlength=30)), i


@pytest.mark.parametrize("seed", [0, 1, 2**32 - 1, 2**32, 2**64 - 1])
def test_seed_state_equals_seed_sequence(seed):
    from numpy.random import SeedSequence

    got = _seed_state(np.array([seed, 12345, seed], dtype=np.uint64))
    want = SeedSequence(seed).generate_state(4, np.uint64)
    assert got.dtype == want.dtype and got.flags.c_contiguous
    assert np.array_equal(got[0], want) and np.array_equal(got[2], want)
    assert np.array_equal(got[1], SeedSequence(12345).generate_state(4, np.uint64))


def test_replicate_streams_golden():
    # The first ten rows that replicates 0-2 draw at root seed 0 on a 250 + 250
    # design. NumPy's compatibility policy (NEP 19) pins its bit generators'
    # streams but not Generator.integers' algorithm; if either moves, or this
    # package's seeding does, this test names it.
    golden = [[170, 22, 43, 40, 208, 219, 193, 134, 40, 122],
              [21, 121, 209, 240, 27, 103, 180, 174, 234, 30],
              [25, 141, 101, 137, 126, 133, 69, 83, 144, 244]]
    group_rows = (np.arange(250), np.arange(250, 500))
    assert _block_draw(group_rows, 0, 3, 3)(np.arange(3))[:, :10].tolist() == golden
    for i, want in enumerate(golden):
        rng = np.random.default_rng(replicate_seed(0, i))
        assert _resample_rows(*group_rows, rng)[:10].tolist() == want
