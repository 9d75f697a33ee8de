"""Balance and comparability auditing before and after weighting.

Standardized mean differences use the frequency-weight convention for the
weighted variance (sum-of-weights denominator); conventions differ across
software, so the choice is fixed and documented here.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .balancing import WeightSet, group_ess
from .dataset import Dataset
from .errors import AllWeightsZero, ParameterOutOfRange, is_number

DEFAULT_SMD_THRESHOLD = 0.1

CHECKLIST_FIELDS = (
    "eligibility",
    "endpoint_measurement",
    "calendar_time",
    "treatment_decision_time",
)

_NON_CONTEMPORANEOUS_CAVEAT = (
    "non-contemporaneous controls: secular trends in care may confound the "
    "comparison (historical cohorts can predate the trial by many years)"
)

_IMMORTAL_TIME_CAVEAT = (
    "misaligned treatment-decision timepoints risk immortal-time / time-lag bias"
)


def weighted_mean_var(x: np.ndarray, w: Optional[np.ndarray] = None) -> tuple[float, float]:
    """Weighted mean and frequency-weight (biased) variance; unit weights by default."""
    total = float(len(x) if w is None else np.sum(w))
    if total <= 0:
        raise AllWeightsZero("group total weight is zero")
    m = float(np.sum(x if w is None else w * x) / total)
    d2 = (x - m) ** 2
    v = float(np.sum(d2 if w is None else w * d2) / total)
    return m, v


def _group_smd(x1, x0, w1=None, w0=None) -> Optional[float]:
    """SMD of trial values ``x1`` (weights ``w1``) minus external values ``x0``."""
    m1, v1 = weighted_mean_var(x1, w1)
    m0, v0 = weighted_mean_var(x0, w0)
    pooled = (v1 + v0) / 2.0
    if pooled <= 0:
        return None
    return (m1 - m0) / np.sqrt(pooled)


def smd(
    x: np.ndarray, trial_mask: np.ndarray, weights: Optional[np.ndarray] = None
) -> Optional[float]:
    """Standardized mean difference (trial minus external).

    Returns None when the pooled variance is zero (SMD undefined).
    """
    w = (None, None) if weights is None else (weights[trial_mask], weights[~trial_mask])
    return _group_smd(x[trial_mask], x[~trial_mask], *w)


@dataclass(frozen=True)
class BalanceRow:
    covariate: str
    unweighted_smd: Optional[float]
    weighted_smd: Optional[float]


@dataclass(frozen=True)
class BalanceTable:
    rows: tuple[BalanceRow, ...]
    ess_trial: float
    ess_external: float
    threshold: float
    max_abs_weighted_smd: Optional[float]
    imbalance: bool
    undefined_covariates: tuple[str, ...]


def balance_table(
    data: Dataset,
    weights: WeightSet,
    threshold: float = DEFAULT_SMD_THRESHOLD,
) -> BalanceTable:
    """Per-covariate SMD before and after weighting, with an imbalance flag:
    a weighted |SMD| above ``threshold``, which must be finite and > 0."""
    if not (is_number(threshold) and threshold > 0):
        raise ParameterOutOfRange(f"SMD threshold must be finite and > 0, got {threshold!r}")
    trial = data.group_mask
    w = weights.weights
    # Each group's rows, gathered once: one contiguous row per covariate.
    XT = data.covariate_matrix().T
    x1, x0 = np.ascontiguousarray(XT[:, trial]), np.ascontiguousarray(XT[:, ~trial])
    w1, w0 = w[trial], w[~trial]
    rows = []
    undefined = []
    weighted_vals = []
    for j, name in enumerate(data.covariate_names):
        raw = _group_smd(x1[j], x0[j])
        adj = _group_smd(x1[j], x0[j], w1, w0)
        if adj is None:
            undefined.append(name)
        else:
            weighted_vals.append(abs(adj))
        rows.append(BalanceRow(covariate=name, unweighted_smd=raw, weighted_smd=adj))
    max_abs = max(weighted_vals) if weighted_vals else None
    return BalanceTable(
        tuple(rows),
        *group_ess(w, trial, weights.totals),
        threshold=threshold,
        max_abs_weighted_smd=max_abs,
        imbalance=max_abs is not None and max_abs > threshold,
        undefined_covariates=tuple(undefined),
    )


@dataclass(frozen=True)
class ChecklistReport:
    status: str  # PASS | WARN | INCOMPLETE
    items: dict = field(default_factory=dict)
    caveats: tuple[str, ...] = ()


def comparability_checklist(meta: dict) -> ChecklistReport:
    """Analyst-completed comparability checklist, echoed into reports.

    Each field takes ``aligned`` or a free-text deviation note; the field
    ``calendar_time`` additionally recognizes ``non-contemporaneous``.
    Purely declarative: nothing here is computed from data.
    """
    items = {k: meta.get(k) for k in CHECKLIST_FIELDS}
    if any(v is None for v in items.values()):
        return ChecklistReport(status="INCOMPLETE", items=items)
    caveats = []
    if str(items["calendar_time"]).lower() != "aligned":
        caveats.append(_NON_CONTEMPORANEOUS_CAVEAT)
    if str(items["treatment_decision_time"]).lower() != "aligned":
        caveats.append(_IMMORTAL_TIME_CAVEAT)
    for key in ("eligibility", "endpoint_measurement"):
        if str(items[key]).lower() != "aligned":
            caveats.append(f"{key} differs between trial and external cohorts")
    status = "PASS" if not caveats else "WARN"
    return ChecklistReport(status=status, items=items, caveats=tuple(caveats))
