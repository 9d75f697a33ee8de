"""Batched frequency-weight bootstrap against the per-replicate pipelines.

A batched analysis (STC with the logit link) refits every replicate of a
block on fixed rows weighted by the replicate's counts. Each replicate must match the pipeline run on the
resampled dataset: the same estimate to 1e-10 and, for a replicate that
fails, the same error class.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from extctrl import (
    AggregateSummary,
    BootstrapConfig,
    Dataset,
    Estimand,
    Group,
    OutcomeKind,
    Scale,
    StcAnalysis,
    add_intercept,
    balancing_weights,
    bootstrap_ci,
    cli,
    estimate_propensity,
    fit_logistic,
    stc_estimate,
    weighted_mean_contrast,
)
from extctrl.errors import ExtCtrlError, SolverError
from extctrl.glm import REFIT, LogisticDesign, fit_logistic_counts
from extctrl.inference import (_BLOCK_ELEMENTS, _resample_rows, replicate_estimates,
                               replicate_seed, resample_dataset)
from extctrl.stc import outcome_link


def make_data(rng, n, kind=OutcomeKind.BINARY, p_severe=0.4, p_response=0.4):
    severe = (rng.random(n) < p_severe).astype(float)
    x = rng.normal(size=n)
    trial = rng.random(n) < 1.0 / (1.0 + np.exp(-(0.3 + 0.8 * x - 0.6 * severe)))
    trial[:2] = [True, False]
    if kind is OutcomeKind.BINARY:
        y = (rng.random(n) < p_response).astype(float)
    else:
        y = 0.5 * x + severe + rng.normal(size=n)
    return Dataset(("severe", "x"), ids=[f"s{i}" for i in range(n)], trial=trial,
                   X=np.column_stack([severe, x]), outcome=y, outcome_kind=kind)


def small_data(n=32, seed=1):
    # A rare binary covariate and a rare response: resamples of this size
    # hit separation, a covariate constant within the replicate, and (in the
    # trial arm) a constant response.
    rng = np.random.default_rng(seed)
    severe = (rng.random(n) < 0.12).astype(float)
    x = rng.normal(size=n)
    y = (rng.random(n) < 0.15).astype(float)
    return Dataset(("severe", "x"), ids=[f"s{i}" for i in range(n)],
                   trial=np.arange(n) < n // 2, X=np.column_stack([severe, x]),
                   outcome=y, outcome_kind=OutcomeKind.BINARY)


def binary_target(n=80, responders=30):
    return AggregateSummary(covariate_names=("severe", "x"), covariate_means=(0.3, 0.2),
                            n=n, outcome_kind=OutcomeKind.BINARY,
                            outcome_summary={"responders": responders})


def reference_replicates(pipeline, data, config):
    """The per-replicate bootstrap loop: resample, rerun, record the error."""
    values, errors = [], []
    for i in range(config.replicates):
        rng = np.random.default_rng(replicate_seed(config.seed, i))
        sample = resample_dataset(data, rng)
        try:
            values.append(pipeline(sample))
            errors.append(None)
        except ExtCtrlError as exc:
            values.append(np.nan)
            errors.append(type(exc).__name__)
    return np.array(values), errors


def assert_same_replicates(batched, reference):
    (got, got_errors), (want, want_errors) = batched, reference
    assert got_errors == want_errors
    ok = np.array([e is None for e in want_errors])
    assert np.array_equal(np.isinf(got[ok]), np.isinf(want[ok]))
    finite = ok & np.isfinite(want)
    assert np.max(np.abs(got[finite] - want[finite]), initial=0.0) <= 1e-10


def weighting_pipeline(estimand, scale):
    def pipeline(d):
        model = estimate_propensity(d)
        wset = balancing_weights(model, d, estimand)
        return weighted_mean_contrast(d, wset, scale).point
    return pipeline


def stc_pipeline(target, scale):
    return lambda d: stc_estimate(d.restrict(Group.TRIAL), target, None, scale)[1].point


@pytest.mark.parametrize("link,scale,kind", [
    ("logit", Scale.RISK_DIFFERENCE, OutcomeKind.BINARY),
    ("logit", Scale.RISK_RATIO, OutcomeKind.BINARY),
    ("logit", Scale.ODDS_RATIO, OutcomeKind.BINARY),
    ("identity", Scale.MEAN_DIFFERENCE, OutcomeKind.CONTINUOUS),
], ids=lambda v: getattr(v, "value", v))
def test_stc_replicates_match_pipeline(link, scale, kind):
    trial = make_data(np.random.default_rng(3), 500, kind).restrict(Group.TRIAL)
    if kind is OutcomeKind.BINARY:
        target = binary_target()
    else:
        target = AggregateSummary(covariate_names=("severe", "x"), covariate_means=(0.3, 0.2),
                                  n=80, outcome_kind=kind, outcome_summary={"mean": 0.4})
    analysis = StcAnalysis(target, None, scale)
    assert outcome_link(kind).value == link
    config = BootstrapConfig(replicates=100, seed=9)
    assert_same_replicates(
        replicate_estimates(analysis, trial, config),
        reference_replicates(stc_pipeline(target, scale), trial, config),
    )


def test_stc_batch_on_pooled_data_matches_the_pipeline():
    # A library bootstrap of STC may resample trial and external rows together.
    # The batch then fits each replicate's counts on the trial rows alone, and
    # must give what the same analysis gives without its batch.
    class Unbatched(StcAnalysis):
        batch = None

    pooled = make_data(np.random.default_rng(3), 500)
    assert 0 < pooled.n_external < len(pooled)
    args = binary_target(), None, Scale.RISK_DIFFERENCE
    config = BootstrapConfig(replicates=200, seed=9)
    got, got_errors = replicate_estimates(StcAnalysis(*args), pooled, config)
    want, want_errors = replicate_estimates(Unbatched(*args), pooled, config)
    assert got_errors == want_errors == [None] * config.replicates
    assert np.max(np.abs(got - want)) <= 1e-12


def test_small_n_failures_match_pipeline():
    trial = small_data().restrict(Group.TRIAL)
    config = BootstrapConfig(replicates=40, seed=1)
    target = binary_target()
    reference = reference_replicates(
        stc_pipeline(target, Scale.RISK_DIFFERENCE), trial, config)
    assert_same_replicates(
        replicate_estimates(StcAnalysis(target, None, Scale.RISK_DIFFERENCE), trial, config),
        reference,
    )
    # A replicate that holds only one value of "severe" has a rank-deficient
    # outcome model.
    assert {"ConstantResponse", "SeparationDetected", "RankDeficientDesign"} <= set(reference[1])


def test_failures_by_error_counts_each_class():
    data = small_data(seed=3)
    config = BootstrapConfig(replicates=40, seed=3)
    loop = bootstrap_ci(weighting_pipeline(Estimand.parse("ate"), Scale.RISK_DIFFERENCE),
                        data, config)
    assert loop.failures_by_error == {"SeparationDetected": 5}
    assert loop.n_failures == 5

    trial = small_data(n=96, seed=11).restrict(Group.TRIAL)
    config = BootstrapConfig(replicates=40, seed=1)
    target = binary_target()
    batched = bootstrap_ci(StcAnalysis(target, None, Scale.RISK_DIFFERENCE), trial, config)
    loop = bootstrap_ci(stc_pipeline(target, Scale.RISK_DIFFERENCE), trial, config)
    assert batched.failures_by_error == loop.failures_by_error == {"SeparationDetected": 7}
    assert sum(batched.failures_by_error.values()) == batched.n_failures
    assert np.allclose(batched.replicates, loop.replicates, rtol=0.0, atol=1e-10)


def test_block_fits_share_work_arrays_but_no_result():
    # Every block is fitted in the same work arrays. A block's results must not
    # be one of them, and a block's estimates must not depend on which blocks
    # were fitted before it, or in which order.
    trial = make_data(np.random.default_rng(3), 1500).restrict(Group.TRIAL)
    analysis = StcAnalysis(binary_target(), None, Scale.RISK_DIFFERENCE)
    config = BootstrapConfig(replicates=100, seed=9)
    values, errors = replicate_estimates(analysis, trial, config)
    again, again_errors = replicate_estimates(analysis, trial, config)
    assert np.array_equal(values, again, equal_nan=True) and errors == again_errors

    n = len(trial)
    counts = np.array([np.bincount(_resample_rows(*trial.group_rows, np.random.default_rng(
        replicate_seed(config.seed, i))), minlength=n) for i in range(config.replicates)],
        dtype=float)
    size = _BLOCK_ELEMENTS // n
    blocks = [counts[start:start + size] for start in range(0, config.replicates, size)]
    assert len(blocks) == 3 and len(blocks[-1]) < size
    fit_block, forward, kept = analysis.batch(trial), [], []
    for block in blocks:
        forward.append(fit_block(block))
        kept.append((forward[-1][0].copy(), list(forward[-1][1])))
    fit_block = analysis.batch(trial)
    backward = [fit_block(block) for block in reversed(blocks)][::-1]
    for (v, e), (kept_v, kept_e), (back_v, back_e) in zip(forward, kept, backward):
        assert np.array_equal(v, kept_v, equal_nan=True) and e == kept_e
        assert np.array_equal(back_v, v, equal_nan=True) and back_e == e
    batched = np.concatenate([v for v, _ in forward])
    fitted = np.array([e is None for _, block_errors in forward for e in block_errors])
    assert fitted.sum() >= 95
    assert np.array_equal(batched[fitted], values[fitted])

    design = LogisticDesign(add_intercept(trial.X), trial.outcome)
    first = fit_logistic_counts(design, blocks[0])
    beta = first[0].copy()
    fit_logistic_counts(design, blocks[1])
    assert np.array_equal(first[0], beta)


# --- batched GLM fits against the one-replicate fits --------------------------

@st.composite
def count_problems(draw):
    n = draw(st.integers(3, 24))
    p = draw(st.integers(1, 3))
    cells = st.one_of(st.sampled_from([0.0, 1.0]),
                      st.floats(-3.0, 3.0, allow_nan=False, allow_subnormal=False))
    X = add_intercept(draw(arrays(float, (n, p), elements=cells)))
    y = draw(arrays(float, n, elements=st.sampled_from([0.0, 1.0])))
    counts = draw(arrays(np.int64, (draw(st.integers(1, 4)), n),
                         elements=st.integers(0, 3)))
    counts[:, draw(st.integers(0, n - 1))] += 1  # every replicate holds a row
    return X, y, counts


def assert_matches_repeated_rows(X, y, counts):
    """Each replicate is REFIT or has fit_logistic's verdict on its rows."""
    coefficients, errors = fit_logistic_counts(LogisticDesign(X, y), counts)
    for r, c in enumerate(counts):
        if errors[r] is REFIT:
            assert np.isnan(coefficients[r]).all()
            continue
        try:
            want = fit_logistic(np.repeat(X, c, axis=0), np.repeat(y, c)).coefficients
        except SolverError as exc:
            assert errors[r] is type(exc)
            assert np.isnan(coefficients[r]).all()
            continue
        assert errors[r] is None
        assert np.max(np.abs(coefficients[r] - want)) <= 1e-10
    return errors


@settings(max_examples=200, deadline=None, derandomize=True)
@given(count_problems())
def test_logistic_counts_equal_fit_on_repeated_rows(problem):
    assert_matches_repeated_rows(*problem)


def bootstrap_counts(n, b, seed):
    rng = np.random.default_rng(seed)
    return np.array([np.bincount(rng.integers(0, n, size=n), minlength=n) for _ in range(b)])


def test_large_covariate_values_fit_in_the_batch():
    # The fits stop on the Newton decrement and solve on unit-norm columns,
    # so a covariate in units near 1e5 converges to the same fitted
    # probabilities as in standard units, in fit_logistic and in the batch.
    rng = np.random.default_rng(8)
    n = 300
    severe = (rng.random(n) < 0.4).astype(float)
    x = rng.normal(size=n)
    y = (rng.random(n) < 1.0 / (1.0 + np.exp(-(0.2 + 0.7 * x - 0.5 * severe)))).astype(float)
    counts = bootstrap_counts(n, 30, 2)
    X = add_intercept(np.column_stack([severe, x]))
    assert assert_matches_repeated_rows(X, y, counts) == [None] * 30
    scaled = add_intercept(np.column_stack([severe, 1e5 * x]))
    assert assert_matches_repeated_rows(scaled, y, counts) == [None] * 30
    for c in counts[:5]:
        rows = np.repeat(np.arange(n), c)
        want = fit_logistic(X[rows], y[rows]).predict(X[rows])
        got = fit_logistic(scaled[rows], y[rows]).predict(scaled[rows])
        assert np.max(np.abs(got - want)) <= 1e-9


def test_refit_replicates_run_through_threaded_pipeline():
    # A rare binary covariate is missing from some resamples, which makes
    # their outcome models rank deficient. The batch leaves those replicates
    # to the pipeline, which uses the configured threads, and they still
    # match the per-replicate loop.
    rng = np.random.default_rng(6)
    n = 120
    rare = np.zeros(n)
    rare[[5, 50]] = 1.0
    x = rng.normal(size=n)
    y = (rng.random(n) < 0.4).astype(float)
    y[[5, 50]] = [0.0, 1.0]
    trial = Dataset(("rare", "x"), ids=[f"s{i}" for i in range(n)], trial=np.ones(n, bool),
                    X=np.column_stack([rare, x]), outcome=y, outcome_kind=OutcomeKind.BINARY)
    target = AggregateSummary(covariate_names=("rare", "x"), covariate_means=(0.02, 0.0),
                              n=80, outcome_kind=OutcomeKind.BINARY,
                              outcome_summary={"responders": 30})
    X = add_intercept(np.column_stack([rare, x]))
    assert REFIT in fit_logistic_counts(LogisticDesign(X, y), bootstrap_counts(n, 10, 3))[1]
    config = BootstrapConfig(replicates=30, seed=2, threads=2)
    assert_same_replicates(
        replicate_estimates(StcAnalysis(target, None, Scale.RISK_DIFFERENCE), trial, config),
        reference_replicates(stc_pipeline(target, Scale.RISK_DIFFERENCE), trial, config),
    )


# --- CLI front ends share the plan's bootstrap ---------------------------------

@pytest.fixture
def trial_csv(tmp_path):
    data = make_data(np.random.default_rng(11), 120)
    lines = ["id,group,severe,x,outcome"]
    for rid, t, (s, x), y in zip(data.ids, data.trial, data.X.tolist(), data.outcome):
        lines.append(f"{rid},{'trial' if t else 'external'},{s:g},{x!r},{y:g}")
    path = tmp_path / "data.csv"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.fixture
def target_json(tmp_path):
    path = tmp_path / "target.json"
    path.write_text(json.dumps({
        "n": 80, "covariates": {"severe": 0.3, "x": 0.2},
        "binary_covariates": ["severe"],
        "outcome": {"kind": "binary", "responders": 30},
    }), encoding="utf-8")
    return path


def run_plan_report(tmp_path, plan):
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps(plan), encoding="utf-8")
    out = tmp_path / "run"
    assert cli.main(["--out-dir", str(out), "run", str(plan_path)]) == 0
    return json.loads((out / "report.json").read_text(encoding="utf-8"))


def test_compare_bootstrap_matches_run(trial_csv, tmp_path, capsys):
    assert cli.main(["compare", str(trial_csv), "--estimand", "ato", "--scale", "or",
                     "--bootstrap", "60", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = run_plan_report(tmp_path, {
        "method": "weighting", "dataset": str(trial_csv), "estimand": "ato",
        "scale": "or", "bootstrap": {"replicates": 60, "seed": 4},
    })
    assert payload["effect"]["ci"] == report["effect"]["ci"]
    assert payload["bootstrap"] == report["bootstrap"]


def test_stc_bootstrap_matches_run(trial_csv, target_json, tmp_path, capsys):
    assert cli.main(["stc", str(trial_csv), "--target", str(target_json),
                     "--scale", "rd", "--bootstrap", "60", "--seed", "4"]) == 0
    payload = json.loads(capsys.readouterr().out)
    report = run_plan_report(tmp_path, {
        "method": "stc", "dataset": str(trial_csv), "aggregate": str(target_json),
        "link": "logit", "scale": "rd", "bootstrap": {"replicates": 60, "seed": 4},
    })
    assert payload["effect"]["ci"] == report["effect"]["ci"]
    assert payload["bootstrap"] == report["bootstrap"]


def test_maic_weights_csv_same_from_cli_and_plan(trial_csv, target_json, tmp_path):
    cli_out = tmp_path / "cli"
    assert cli.main(["--out-dir", str(cli_out), "maic", str(trial_csv),
                     "--target", str(target_json), "--scale", "rd"]) == 0
    plan_path = tmp_path / "plan.json"
    plan_path.write_text(json.dumps({
        "method": "maic", "dataset": str(trial_csv), "aggregate": str(target_json),
        "scale": "rd",
    }), encoding="utf-8")
    run_out = tmp_path / "run"
    assert cli.main(["--out-dir", str(run_out), "run", str(plan_path)]) == 0
    cli_csv = (cli_out / "weights.csv").read_bytes()
    assert cli_csv == (run_out / "weights.csv").read_bytes()
    assert cli_csv.splitlines()[1].split(b",")[2] == b""
