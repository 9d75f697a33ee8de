"""Indirect comparison of single-arm trials against external controls.

Estimand-driven balancing weights, aggregate-data comparisons (MAIC, STC),
fixed power-prior borrowing, weighted survival estimation, balance and
positivity diagnostics, bootstrap inference, and a synthetic-scenario
verification harness.
"""

from .balancing import (
    Estimand,
    EstimandKind,
    WeightSet,
    balancing_weights,
    effective_sample_size,
    tilting,
    weighted_prevalence,
)
from .borrow import PowerPriorAnalysis, PowerPriorPosterior, power_prior_posterior
from .dataset import (
    AggregateSummary,
    Dataset,
    Group,
    OutcomeKind,
    load_aggregate,
    load_dataset,
    save_dataset,
)
from .diagnostics import BalanceTable, balance_table, comparability_checklist, smd
from .estimators import (
    EffectReport,
    Scale,
    SurvivalCurve,
    WeightingAnalysis,
    survival_contrast,
    weighted_km,
    weighted_km_by_group,
    weighted_mean_contrast,
)
from .glm import GlmFit, add_intercept, fit_linear, fit_logistic
from .inference import BootstrapConfig, BootstrapResult, bootstrap_ci
from .maic import MaicAnalysis, MaicFit, maic_compare, maic_weights
from .propensity import (
    PositivityReport,
    PropensityModel,
    estimate_propensity,
    positivity_report,
)
from .simulate import CovariateSpec, ScenarioConfig, TruthRecord, generate
from .stc import Link, StcAnalysis, stc_estimate

__version__ = "0.1.0"
