"""Bootstrap percentile confidence intervals with a reproducible seeding rule.

Each replicate resamples subjects with replacement and re-runs the full
analysis pipeline, including re-estimation of any propensity or tilt model.
Per-replicate RNG streams are derived from the root seed by mixing the
replicate index through a fixed 64-bit hash, so serial and parallel
execution produce identical results.
"""

from __future__ import annotations

import enum
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .dataset import Dataset
from .errors import ExtCtrlError, TooManyReplicateFailures

MAX_FAILURE_FRACTION = 0.2

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_seed(root_seed: int, index: int) -> int:
    """Independent 64-bit substream seed for one replicate."""
    return _splitmix64((root_seed & _MASK64) ^ _splitmix64(index))


class Resampling(enum.Enum):
    STRATIFIED_BY_GROUP = "stratified"
    TRIAL_ONLY = "trial-only"


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    level: float = 0.95
    seed: int = 0
    resampling: Resampling = Resampling.STRATIFIED_BY_GROUP
    threads: int = 0  # 0 = serial

    def __post_init__(self):
        if self.replicates < 2:
            raise ValueError("bootstrap needs at least 2 replicates")
        if not 0.0 < self.level < 1.0:
            raise ValueError("level must be in (0,1)")


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    lower: float
    upper: float
    replicates: np.ndarray
    n_failures: int
    n_refits: int

    @property
    def failure_fraction(self) -> float:
        return self.n_failures / (self.n_failures + len(self.replicates))


def resample_dataset(
    data: Dataset, rng: np.random.Generator, resampling: Resampling
) -> Dataset:
    """Draw a bootstrap dataset, preserving group sizes.

    Stratified resampling draws with replacement within each group.
    Trial-only resampling keeps external records fixed (used when the
    external side is an aggregate constant).
    """
    trial_rows = np.flatnonzero(data.group_mask)
    ext_rows = np.flatnonzero(~data.group_mask)
    # Draw order and sizes (trial first, then external) fix which subjects
    # replicate i selects; keep them when changing this function.
    picked = trial_rows[rng.integers(0, len(trial_rows), size=len(trial_rows))]
    if resampling is Resampling.STRATIFIED_BY_GROUP and len(ext_rows):
        ext_rows = ext_rows[rng.integers(0, len(ext_rows), size=len(ext_rows))]
    return data.take(np.concatenate([picked, ext_rows]))


def bootstrap_ci(
    analysis: Callable[[Dataset], float],
    data: Dataset,
    config: BootstrapConfig,
) -> BootstrapResult:
    """Percentile bootstrap interval for a full analysis pipeline.

    Parameters
    ----------
    analysis : callable
        Re-runnable pipeline mapping a Dataset to a scalar estimate; any
        model fitting happens inside, so it is re-done per replicate.
    data : Dataset
        Original data; the point estimate is the pipeline applied to it.
    config : BootstrapConfig

    Raises
    ------
    TooManyReplicateFailures
        When more than 20% of replicates fail with a typed solver error.
    """
    point = analysis(data)

    def one(index: int) -> float | None:
        rng = np.random.default_rng(replicate_seed(config.seed, index))
        sample = resample_dataset(data, rng, config.resampling)
        try:
            return analysis(sample)
        except ExtCtrlError:
            return None

    threads = config.threads
    if threads == 0:
        env = os.environ.get("EXTCTRL_THREADS", "")
        threads = int(env) if env.isdigit() and int(env) > 0 else 1
    indices = range(config.replicates)
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # map() yields in index order, keeping reduction deterministic.
            raw = list(pool.map(one, indices))
    else:
        raw = [one(i) for i in indices]

    estimates = np.array([v for v in raw if v is not None], dtype=float)
    n_fail = config.replicates - len(estimates)
    if n_fail > MAX_FAILURE_FRACTION * config.replicates:
        raise TooManyReplicateFailures(
            f"{n_fail}/{config.replicates} bootstrap replicates failed"
        )
    tail = (1.0 - config.level) / 2.0
    lower, upper = np.quantile(estimates, [tail, 1.0 - tail])
    return BootstrapResult(
        point=point,
        lower=float(lower),
        upper=float(upper),
        replicates=estimates,
        n_failures=n_fail,
        n_refits=len(estimates),
    )
