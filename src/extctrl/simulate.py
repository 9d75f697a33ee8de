"""Seeded synthetic trial-vs-external data with analytically known effects.

Scenarios draw covariates, assign trial membership through a logistic
model, and generate binary, continuous, or exponential survival outcomes.
The returned truth record carries exact ATE/ATT/ATC values (enumeration
over the finite covariate support when all covariates are binary, a large
Monte-Carlo oracle otherwise). Toggles deliberately break assumptions:
hiding a generated confounder, or shifting external follow-up start to
emulate time-lag bias.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from typing import Optional

import numpy as np

from .dataset import ROLE_COLUMNS, Dataset, OutcomeKind
from .errors import EstimandMismatch, InvalidConfig, checked_field, is_int, is_number
from .estimators import EffectReport
from .glm import expit
from .inference import replicate_seed

MC_ORACLE_DRAWS = 1_000_000

_OUTCOME_PROB_EPS = 1e-9


@dataclass(frozen=True)
class CovariateSpec:
    name: str
    kind: str  # "binary" | "continuous"
    p: Optional[float] = None  # Bernoulli parameter
    mean: float = 0.0
    sd: float = 1.0

    def __post_init__(self):
        for key in ("p", "mean", "sd"):
            checked_field(vars(self), key, None,
                          lambda v: is_number(v) or (key == "p" and v is None), "a number",
                          "covariate ", InvalidConfig)
        if self.kind == "binary":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise InvalidConfig(f"binary covariate {self.name!r} needs p in (0,1)")
        elif self.kind == "continuous":
            if self.sd <= 0:
                raise InvalidConfig(f"continuous covariate {self.name!r} needs sd > 0")
        else:
            raise InvalidConfig(f"unknown covariate kind {self.kind!r}")


@dataclass(frozen=True)
class ScenarioConfig:
    n_trial: int
    n_external: int
    covariates: tuple[CovariateSpec, ...]
    assignment: tuple[float, ...]  # logistic coefficients, intercept first
    outcome_kind: OutcomeKind
    outcome_coefficients: tuple[float, ...]  # intercept first
    effect: float  # risk difference / mean difference / log-hazard shift
    residual_sd: float = 1.0
    censoring_rate: float = 0.0
    unmeasured_confounder: bool = False
    time_lag: float = 0.0
    seed: int = 0

    def __post_init__(self):
        def numbers(v):
            return isinstance(v, (tuple, list)) and all(is_number(x) for x in v)

        for keys, ok, what in (
            (("n_trial", "n_external", "seed"), is_int, "an integer"),
            (("effect", "residual_sd", "censoring_rate", "time_lag"), is_number, "a number"),
            (("assignment", "outcome_coefficients"), numbers, "a list of numbers"),
            (("covariates",), lambda v: isinstance(v, (tuple, list))
             and all(isinstance(c, CovariateSpec) for c in v), "a list of CovariateSpec"),
            (("outcome_kind",), lambda v: isinstance(v, OutcomeKind), "an OutcomeKind"),
            (("unmeasured_confounder",), lambda v: isinstance(v, (bool, np.bool_)),
             "true or false"),
        ):
            for key in keys:
                checked_field(vars(self), key, None, ok, what, error=InvalidConfig)
        if self.n_trial <= 0 or self.n_external <= 0:
            raise InvalidConfig("group sizes must be positive")
        if not self.covariates:
            raise InvalidConfig("at least one covariate is required")
        names = [spec.name for spec in self.covariates]
        for name in names:
            if not isinstance(name, str) or name in ROLE_COLUMNS or names.count(name) > 1:
                raise InvalidConfig(
                    f"covariate name {name!r}: names must be unique strings other than "
                    f"{', '.join(ROLE_COLUMNS)}")
        if len(self.assignment) != len(self.covariates) + 1:
            raise InvalidConfig("assignment coefficients must be intercept + one per covariate")
        if len(self.outcome_coefficients) != len(self.covariates) + 1:
            raise InvalidConfig("outcome coefficients must be intercept + one per covariate")
        if self.residual_sd < 0:
            raise InvalidConfig("residual sd must be >= 0")
        if not 0.0 <= self.censoring_rate < 1.0:
            raise InvalidConfig("censoring rate must be in [0,1)")
        if self.unmeasured_confounder and len(self.covariates) < 2:
            raise InvalidConfig("hiding a confounder requires at least 2 covariates")

    @property
    def n_total(self) -> int:
        return self.n_trial + self.n_external

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        """A scenario from its JSON object; the field checks are ``__post_init__``'s."""
        specs = checked_field(payload, "covariates", None, lambda v: isinstance(v, list)
                              and all(isinstance(c, dict) for c in v), "a list of objects",
                              error=InvalidConfig)
        known = {f.name for f in fields(cls)}
        kwargs = {k: tuple(v) if isinstance(v, list) else v
                  for k, v in payload.items() if k in known}
        try:
            kwargs["covariates"] = tuple(CovariateSpec(**c) for c in specs)
            kwargs["outcome_kind"] = OutcomeKind(payload.get("outcome_kind"))
            return cls(**kwargs)
        except (TypeError, ValueError) as exc:
            raise InvalidConfig(f"bad scenario payload: {exc}") from None


@dataclass(frozen=True)
class TruthRecord:
    scale: str  # "rd" | "md" | "log_hazard"
    ate: float
    att: float
    atc: float
    mc_se: float = 0.0

    def value_for(self, estimand_label: str) -> float:
        try:
            return {"ate": self.ate, "att": self.att, "atc": self.atc}[estimand_label]
        except KeyError:
            raise EstimandMismatch(
                f"truth record has no value for estimand {estimand_label!r}"
            ) from None

    def to_dict(self) -> dict:
        return {
            "scale": self.scale,
            "ate": self.ate,
            "att": self.att,
            "atc": self.atc,
            "mc_se": self.mc_se,
        }


def _draw_covariates(config: ScenarioConfig, n: int, rng) -> np.ndarray:
    cols = []
    for spec in config.covariates:
        if spec.kind == "binary":
            cols.append((rng.random(n) < spec.p).astype(float))
        else:
            cols.append(rng.normal(spec.mean, spec.sd, size=n))
    return np.column_stack(cols)


def _control_prob(config: ScenarioConfig, X: np.ndarray) -> np.ndarray:
    beta = np.asarray(config.outcome_coefficients)
    return expit(beta[0] + X @ beta[1:])


def _treated_prob(config: ScenarioConfig, X: np.ndarray) -> np.ndarray:
    # Saturating addition keeps probabilities in (0,1) when the stated risk
    # difference would push a cell past the boundary.
    return np.clip(
        _control_prob(config, X) + config.effect,
        _OUTCOME_PROB_EPS,
        1.0 - _OUTCOME_PROB_EPS,
    )


def _propensity(config: ScenarioConfig, X: np.ndarray) -> np.ndarray:
    gamma = np.asarray(config.assignment)
    return expit(gamma[0] + X @ gamma[1:])


def _calibrate_censoring(event_times: np.ndarray, rate: float) -> float:
    """Upper bound c of Uniform(0,c) censoring hitting the target rate.

    P(censored) = mean_i min(t_i / c, 1), decreasing in c; solved by
    bisection on a bracket grown geometrically.
    """
    def prob(c):
        return float(np.mean(np.minimum(event_times / c, 1.0)))

    hi = float(np.max(event_times)) or 1.0
    while prob(hi) > rate:
        hi *= 2.0
        if hi > 1e12:
            break
    lo = hi / 2.0
    while prob(lo) < rate and lo > 1e-12:
        lo /= 2.0
    for _ in range(100):
        mid = 0.5 * (lo + hi)
        if prob(mid) > rate:
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def generate(config: ScenarioConfig) -> tuple[Dataset, TruthRecord]:
    """Draw one dataset and its analytically computed truth record."""
    rng = np.random.default_rng(replicate_seed(config.seed, 0))
    n = config.n_total
    X = _draw_covariates(config, n, rng)
    e = _propensity(config, X)
    treated = rng.random(n) < e

    outcome = times = events = None
    if config.outcome_kind is OutcomeKind.BINARY:
        p = np.where(treated, _treated_prob(config, X), _control_prob(config, X))
        outcome = (rng.random(n) < p).astype(float)
    elif config.outcome_kind is OutcomeKind.CONTINUOUS:
        beta = np.asarray(config.outcome_coefficients)
        mean = beta[0] + X @ beta[1:] + config.effect * treated
        outcome = mean + rng.normal(0.0, config.residual_sd, size=n)
    else:
        beta = np.asarray(config.outcome_coefficients)
        hazard = np.exp(beta[0] + X @ beta[1:] + config.effect * treated)
        event_times = rng.exponential(1.0 / hazard)
        if config.censoring_rate > 0:
            c = _calibrate_censoring(event_times, config.censoring_rate)
            censor_times = rng.uniform(0.0, c, size=n)
            events = (event_times <= censor_times).astype(int)
            times = np.minimum(event_times, censor_times)
        else:
            events = np.ones(n, dtype=int)
            times = event_times
        if config.time_lag > 0:
            # External follow-up clock starts earlier: observed durations
            # include guaranteed event-free lag time.
            times = np.where(treated, times, times + config.time_lag)

    visible = list(range(len(config.covariates)))
    if config.unmeasured_confounder:
        visible = visible[:-1]
    names = tuple(config.covariates[j].name for j in visible)

    data = Dataset(
        names,
        ids=[f"s{i}" for i in range(n)],
        trial=treated,
        X=X[:, visible],
        outcome=outcome,
        time=times,
        event=events,
        outcome_kind=config.outcome_kind,
    )
    return data, compute_truth(config)


def compute_truth(config: ScenarioConfig) -> TruthRecord:
    """Exact (all-binary covariates) or Monte-Carlo truth for the scenario."""
    if config.outcome_kind is OutcomeKind.CONTINUOUS:
        return TruthRecord(scale="md", ate=config.effect, att=config.effect,
                           atc=config.effect)
    if config.outcome_kind is OutcomeKind.TIME_TO_EVENT:
        # Homogeneous multiplicative hazard shift: same in every cell.
        return TruthRecord(scale="log_hazard", ate=config.effect,
                           att=config.effect, atc=config.effect)

    if all(spec.kind == "binary" for spec in config.covariates):
        cells = np.array(list(product((0.0, 1.0), repeat=len(config.covariates))))
        probs = np.ones(len(cells))
        for j, spec in enumerate(config.covariates):
            probs *= np.where(cells[:, j] == 1.0, spec.p, 1.0 - spec.p)
        delta = _treated_prob(config, cells) - _control_prob(config, cells)
        e = _propensity(config, cells)
        ate = float(np.sum(probs * delta))
        att = float(np.sum(probs * e * delta) / np.sum(probs * e))
        atc = float(np.sum(probs * (1 - e) * delta) / np.sum(probs * (1 - e)))
        return TruthRecord(scale="rd", ate=ate, att=att, atc=atc)

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
    return TruthRecord(scale="rd", ate=ate, att=att, atc=atc,
                       mc_se=max(se_ate, se_att, se_atc))


def truth_gap(report: EffectReport, truth: TruthRecord) -> float:
    """Signed estimation error: report point minus the matching true value."""
    if report.scale.value != truth.scale:
        raise EstimandMismatch(
            f"report scale {report.scale.value!r} does not match truth scale "
            f"{truth.scale!r}"
        )
    return report.point - truth.value_for(report.estimand_label)
