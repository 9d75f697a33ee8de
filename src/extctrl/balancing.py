"""Estimand-specific balancing weights from propensity scores.

Each estimand is characterized by a tilting function h(e) of the propensity
score; a trial subject gets weight h(e)/e and an external subject
h(e)/(1-e). Weights are stored unnormalized: every downstream estimator is
ratio-form (Hajek), so any group-wise rescaling is irrelevant.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .dataset import Dataset
from .errors import AllWeightsZero, ParameterOutOfRange
from .propensity import PropensityModel


class EstimandKind(enum.Enum):
    ATE = "ate"
    ATT = "att"
    ATC = "atc"
    ATO = "ato"
    TRIMMED = "trimmed"
    MATCHING = "matching"


_POPULATION_LABELS = {
    EstimandKind.ATE: "combined trial and external population",
    EstimandKind.ATT: "trial population (ATT)",
    EstimandKind.ATC: "external control population (ATC)",
    EstimandKind.ATO: "overlap population (ATO)",
    EstimandKind.TRIMMED: "trimmed-population (non-specified)",
    EstimandKind.MATCHING: "matching population (ATT)",
}


@dataclass(frozen=True)
class Estimand:
    kind: EstimandKind
    a: Optional[float] = None

    def __post_init__(self):
        if self.kind is EstimandKind.TRIMMED:
            if self.a is None or not 0.0 < self.a < 0.5:
                raise ParameterOutOfRange("trimmed estimand requires 0 < a < 0.5")
        elif self.a is not None:
            raise ParameterOutOfRange(f"estimand {self.kind.value} takes no trim parameter")

    @property
    def target_population_label(self) -> str:
        return _POPULATION_LABELS[self.kind]

    @property
    def label(self) -> str:
        if self.kind is EstimandKind.TRIMMED:
            return f"trimmed(a={self.a:g})"
        return self.kind.value

    @classmethod
    def parse(cls, token: str) -> "Estimand":
        """Parse CLI-style tokens: ate, att, atc, ato, matching, trim:<a>.
        Anything else, a value that is no string included, is ParameterOutOfRange."""
        if not isinstance(token, str):
            raise ParameterOutOfRange(f"estimand must be a string, got {token!r}")
        name = token.strip().lower()
        try:
            if name.startswith("trim:"):
                return cls(EstimandKind.TRIMMED, a=float(name.split(":", 1)[1]))
            return cls(EstimandKind(name))
        except ValueError as exc:
            raise ParameterOutOfRange(f"bad estimand {token!r}: {exc}") from None


@dataclass(frozen=True)
class WeightSet:
    """Per-subject weights in row order, with each group's ESS.

    ``totals`` is the (external, trial) pair of weight sums when known, so a
    Hajek mean over the same rows need not sum them again.
    """

    estimand: Estimand
    weights: np.ndarray
    ess_treated: float
    ess_control: float
    n_zero_weight: int
    totals: Optional[tuple[float, float]] = None


def effective_sample_size(w: np.ndarray) -> float:
    """(sum w)^2 / sum w^2; equals len(w) iff all weights are equal."""
    total_sq = float(np.sum(w)) ** 2
    denom = float(np.sum(w * w))
    return total_sq / denom if denom > 0 else 0.0


# The per-group helpers below sum each group in one bincount over the trial
# mask (index 1 the trial rows), with no masked copies. ``totals``, where
# given, is the bincount of ``w``: the (external, trial) weight sums.
def group_ess(w: np.ndarray, trial: np.ndarray, totals=None) -> tuple[float, float]:
    """``effective_sample_size`` of the trial and of the external weights."""
    t0, t1 = np.bincount(trial, w, 2).tolist() if totals is None else totals
    s0, s1 = np.bincount(trial, w * w, 2).tolist()
    return (t1 * t1 / s1 if s1 > 0 else 0.0), (t0 * t0 / s0 if s0 > 0 else 0.0)


def group_means(w: np.ndarray, trial: np.ndarray, values: np.ndarray,
                totals=None) -> tuple[float, float]:
    """Hajek (weighted) means of ``values`` in the trial and the external group."""
    t0, t1 = np.bincount(trial, w, 2).tolist() if totals is None else totals
    if not (t0 > 0 and t1 > 0):
        group = "external" if t1 > 0 else "trial"
        raise AllWeightsZero(f"all weights are zero in the {group} group")
    s0, s1 = np.bincount(trial, w * values, 2).tolist()
    return s1 / t1, s0 / t0


def tilting(estimand: Estimand, e) -> np.ndarray | float:
    """Evaluate the estimand's tilting function h at score(s) e in (0,1)."""
    e_arr = np.asarray(e, dtype=float)
    kind = estimand.kind
    if kind is EstimandKind.ATE:
        h = np.ones_like(e_arr)
    elif kind is EstimandKind.ATT:
        h = e_arr
    elif kind is EstimandKind.ATC:
        h = 1.0 - e_arr
    elif kind is EstimandKind.ATO:
        h = e_arr * (1.0 - e_arr)
    elif kind is EstimandKind.TRIMMED:
        h = ((estimand.a < e_arr) & (e_arr < 1.0 - estimand.a)).astype(float)
    elif kind is EstimandKind.MATCHING:
        h = np.minimum(e_arr, 1.0 - e_arr)
    else:  # pragma: no cover
        raise ValueError(kind)
    return h if np.ndim(e) else float(h)


def balancing_weights(
    model: PropensityModel, data: Dataset, estimand: Estimand
) -> WeightSet:
    """Per-subject balancing weights h(e)/e (trial) and h(e)/(1-e) (external)."""
    e = model.scores
    h = tilting(estimand, e)
    trial = data.group_mask
    # IEEE division gives e/e == 1 exactly, so the ATT/ATC unit-weight rows
    # hold without special-casing.
    w = h / np.where(trial, e, 1.0 - e)
    totals = tuple(np.bincount(trial, w, 2).tolist())
    return WeightSet(estimand, w, *group_ess(w, trial, totals),
                     int(np.count_nonzero(w == 0.0)), totals)


def weighted_prevalence(
    weights: WeightSet, data: Dataset, covariate: str
) -> tuple[float, float]:
    """Weighted mean of one covariate in the trial and external groups."""
    x = data.covariate_matrix([covariate])[:, 0]
    return group_means(weights.weights, data.group_mask, x, weights.totals)
