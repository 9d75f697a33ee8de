"""Seeded synthetic trial-vs-external data with analytically known effects.

Scenarios draw covariates, assign trial membership through a logistic
model, and generate binary, continuous, or exponential survival outcomes.
The returned truth record carries the ATE, ATT and ATC, each the average of
the individual effect under the estimand's tilting function h(e), over the
finite covariate support when all covariates are binary (exact) and over a
large Monte-Carlo sample otherwise. Toggles deliberately break assumptions:
hiding a generated confounder, or shifting external follow-up start to
emulate time-lag bias.
"""

from __future__ import annotations

from dataclasses import dataclass, fields
from itertools import product
from typing import Optional

import numpy as np

from .balancing import Estimand, EstimandKind, tilting
from .dataset import ROLE_COLUMNS, Dataset, OutcomeKind
from .errors import (InvalidConfig, check_settings, checked_field, is_int, is_number,
                     setting)
from .glm import expit
from .inference import replicate_seed

MC_ORACLE_DRAWS = 1_000_000

_OUTCOME_PROB_EPS = 1e-9


@dataclass(frozen=True)
class CovariateSpec:
    name: str
    kind: str = setting("'binary' or 'continuous'", lambda v: v in ("binary", "continuous"))
    p: Optional[float] = setting("a number", lambda v: v is None or is_number(v),
                                 default=None)  # Bernoulli parameter
    mean: float = setting("a number", is_number, default=0.0)
    sd: float = setting("a number", is_number, default=1.0)

    def __post_init__(self):
        check_settings(self, "covariate ", InvalidConfig)
        if self.kind == "binary":
            if self.p is None or not 0.0 < self.p < 1.0:
                raise InvalidConfig(f"binary covariate {self.name!r} needs p in (0,1)")
        elif self.sd <= 0:
            raise InvalidConfig(f"continuous covariate {self.name!r} needs sd > 0")


def _numbers(values) -> bool:
    return isinstance(values, (tuple, list)) and all(is_number(x) for x in values)


@dataclass(frozen=True)
class ScenarioConfig:
    n_trial: int = setting("an integer > 0", lambda v: is_int(v) and v > 0)
    n_external: int = setting("an integer > 0", lambda v: is_int(v) and v > 0)
    covariates: tuple[CovariateSpec, ...] = setting(
        "a list of CovariateSpec", lambda v: isinstance(v, (tuple, list))
        and all(isinstance(c, CovariateSpec) for c in v))
    # The coefficients of trial membership's logistic model and of the outcome
    # model, intercept first.
    assignment: tuple[float, ...] = setting("a list of numbers", _numbers)
    outcome_kind: OutcomeKind = setting("an OutcomeKind", lambda v: isinstance(v, OutcomeKind))
    outcome_coefficients: tuple[float, ...] = setting("a list of numbers", _numbers)
    effect: float = setting("a number", is_number)  # risk/mean difference, log-hazard shift
    residual_sd: float = setting("a number >= 0", lambda v: is_number(v) and v >= 0, default=1.0)
    censoring_rate: float = setting("in [0, 1)", lambda v: is_number(v) and 0 <= v < 1, default=0.0)
    unmeasured_confounder: bool = setting(
        "true or false", lambda v: isinstance(v, (bool, np.bool_)), default=False)
    time_lag: float = setting("a number", is_number, default=0.0)
    seed: int = setting("an integer", is_int, default=0)

    def __post_init__(self):
        check_settings(self, error=InvalidConfig)
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
        if self.unmeasured_confounder and len(self.covariates) < 2:
            raise InvalidConfig("hiding a confounder requires at least 2 covariates")

    @property
    def n_total(self) -> int:
        return self.n_trial + self.n_external

    @classmethod
    def from_dict(cls, payload: dict) -> "ScenarioConfig":
        """A scenario from its JSON object; the field checks are ``__post_init__``'s.

        A key that names no field is InvalidConfig, so a misspelled optional
        field cannot fall back to its default unseen.
        """
        specs = checked_field(payload, "covariates", None, lambda v: isinstance(v, list)
                              and all(isinstance(c, dict) for c in v), "a list of objects",
                              error=InvalidConfig)
        known = {f.name for f in fields(cls)}
        unknown = sorted(set(payload) - known)
        if unknown:
            raise InvalidConfig(f"unknown scenario key {unknown[0]!r}")
        kwargs = {k: tuple(v) if isinstance(v, list) else v for k, v in payload.items()}
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
    """The scenario's ATE, ATT and ATC: each the tilted average
    E[h(e(X)) Δ(X)] / E[h(e(X))] of the individual effect Δ(X), with h the
    estimand's ``balancing.tilting``.

    The expectation runs over the covariate cells with their probabilities
    when every covariate is binary (exact, ``mc_se`` 0), and otherwise over
    ``MC_ORACLE_DRAWS`` draws of mass 1 (``mc_se`` the largest of the three
    standard errors).
    """
    if config.outcome_kind is OutcomeKind.CONTINUOUS:
        return TruthRecord(scale="md", ate=config.effect, att=config.effect,
                           atc=config.effect)
    if config.outcome_kind is OutcomeKind.TIME_TO_EVENT:
        # Homogeneous multiplicative hazard shift: same in every cell.
        return TruthRecord(scale="log_hazard", ate=config.effect,
                           att=config.effect, atc=config.effect)

    exact = all(spec.kind == "binary" for spec in config.covariates)
    if exact:
        X = np.array(list(product((0.0, 1.0), repeat=len(config.covariates))))
        mass = np.ones(len(X))
        for j, spec in enumerate(config.covariates):
            mass *= np.where(X[:, j] == 1.0, spec.p, 1.0 - spec.p)
    else:
        rng = np.random.default_rng(replicate_seed(config.seed, 1))
        X = _draw_covariates(config, MC_ORACLE_DRAWS, rng)
        mass = 1.0
    delta = _treated_prob(config, X) - _control_prob(config, X)
    e = _propensity(config, X)

    truths, ses = {}, []
    for kind in (EstimandKind.ATE, EstimandKind.ATT, EstimandKind.ATC):
        w = mass * tilting(Estimand(kind), e)
        wn = w / np.sum(w)
        truths[kind.value] = value = float(np.sum(wn * delta))
        ses.append(float(np.sqrt(np.sum(wn**2 * (delta - value) ** 2))))
    return TruthRecord(scale="rd", mc_se=0.0 if exact else max(ses), **truths)
