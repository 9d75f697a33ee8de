"""Bootstrap percentile confidence intervals with a reproducible seeding rule.

Each replicate resamples subjects with replacement within each group and
re-runs the full analysis pipeline, including re-estimation of any
propensity or tilt model. Per-replicate RNG streams are derived from the
root seed by mixing the replicate index through a fixed 64-bit hash, so
serial and parallel execution produce identical results.

A resample is a vector of frequency weights on the fixed rows: how many
times each subject was drawn (Efron & Tibshirani 1993, ch. 6). An analysis
that can refit many count vectors at once is run on blocks of them instead
of one resampled dataset per replicate; the counts come from the same
streams, so replicate i refits the same subjects either way.
"""

from __future__ import annotations

import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dataset import Dataset
from .errors import (ExtCtrlError, InvalidConfig, TooManyReplicateFailures, checked_field,
                     is_count, is_int, is_number)
from .glm import REFIT

MAX_FAILURE_FRACTION = 0.2

# Entries in one count block (replicates x subjects). The count block and the
# b x n work arrays of a batched refit are made once per bootstrap and reused
# by every block and Newton step, so they hold a few hundred kB whatever n and
# the number of replicates. They are reused because allocation, not arithmetic,
# dominated: on a 2-vCPU host a fresh array of 256 kB or more cost about 6-7 ns
# per element, against about 1 ns below 128 kB.
_BLOCK_ELEMENTS = 32768

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1


def _splitmix64(z: int) -> int:
    z = (z + _SPLITMIX_GAMMA) & _MASK64
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _MASK64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _MASK64
    return (z ^ (z >> 31)) & _MASK64


def replicate_seed(root_seed: int, index: int) -> int:
    """Independent 64-bit substream seed for one replicate (NumPy integer roots too)."""
    return _splitmix64((int(root_seed) & _MASK64) ^ _splitmix64(index))


@dataclass(frozen=True)
class BootstrapConfig:
    replicates: int = 1000
    level: float = 0.95
    seed: int = 0
    threads: int = 0  # 0 = EXTCTRL_THREADS if set, else serial

    def __post_init__(self):
        # NumPy integers pass, bools do not (as in ScenarioConfig).
        for key, ok, what in (
            ("replicates", lambda v: is_int(v) and v >= 2, "an integer >= 2"),
            ("level", lambda v: is_number(v) and 0.0 < v < 1.0, "a number in (0, 1)"),
            ("seed", is_int, "an integer"),
            ("threads", is_count, "an integer >= 0"),
        ):
            checked_field(vars(self), key, None, ok, what, "bootstrap ", InvalidConfig)


@dataclass(frozen=True)
class BootstrapResult:
    point: float
    lower: float
    upper: float
    replicates: np.ndarray
    n_failures: int
    failures_by_error: dict = field(default_factory=dict)


def _resample_rows(trial_rows, ext_rows, rng: np.random.Generator) -> np.ndarray:
    # Draw order and sizes (trial first, then external) fix which subjects
    # replicate i selects; keep them when changing this function.
    picked = trial_rows[rng.integers(0, len(trial_rows), size=len(trial_rows))]
    if len(ext_rows):
        ext_rows = ext_rows[rng.integers(0, len(ext_rows), size=len(ext_rows))]
    return np.concatenate([picked, ext_rows])


def resample_dataset(data: Dataset, rng: np.random.Generator) -> Dataset:
    """Draw a bootstrap dataset with replacement within each group.

    Group sizes are kept. MAIC and STC compare against an aggregate, so
    their plans bootstrap the trial rows alone.
    """
    return data.take(_resample_rows(*data.group_rows, rng))


def _replicate_rng(config: BootstrapConfig, index: int) -> np.random.Generator:
    return np.random.default_rng(replicate_seed(config.seed, index))


def replicate_estimates(
    analysis: Callable[[Dataset], float],
    data: Dataset,
    config: BootstrapConfig,
) -> tuple[np.ndarray, list[Optional[str]]]:
    """Every replicate's estimate and the name of the error it failed with.

    Returns the ``config.replicates`` estimates in index order (NaN where a
    replicate failed) and, per replicate, the class name of the
    ``ExtCtrlError`` it raised (None where it succeeded). See
    ``bootstrap_ci`` for the batched path.
    """
    values = np.full(config.replicates, np.nan)
    errors: list[Optional[str]] = [None] * config.replicates

    def one(index: int) -> tuple[float, Optional[str]]:
        sample = resample_dataset(data, _replicate_rng(config, index))
        try:
            return analysis(sample), None
        except ExtCtrlError as exc:
            return math.nan, type(exc).__name__

    pending = range(config.replicates)
    batch = getattr(analysis, "batch", None)
    if batch is not None:
        pending = []
        fit_block = batch(data)
        n = len(data)
        size = min(max(1, _BLOCK_ELEMENTS // n), config.replicates)
        counts = np.empty((size, n))  # refilled in place for every block
        for start in range(0, config.replicates, size):
            block = range(start, min(start + size, config.replicates))
            for row, i in zip(counts, block):
                row[:] = np.bincount(_resample_rows(*data.group_rows, _replicate_rng(config, i)),
                                     minlength=n)
            estimates, block_errors = fit_block(counts[:len(block)])
            for i, value, error in zip(block, estimates, block_errors):
                if error is REFIT:
                    pending.append(i)
                elif error is None:
                    values[i] = value
                else:
                    errors[i] = error.__name__

    threads = config.threads
    if threads == 0:
        env = os.environ.get("EXTCTRL_THREADS", "")
        threads = int(env) if env.isdecimal() and int(env) > 0 else 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            # map() yields in index order, keeping reduction deterministic.
            results = list(pool.map(one, pending))
    else:
        results = [one(i) for i in pending]
    for i, (value, error) in zip(pending, results):
        values[i], errors[i] = value, error
    return values, errors


def bootstrap_ci(
    analysis: Callable[[Dataset], float],
    data: Dataset,
    config: BootstrapConfig,
    point: Optional[float] = None,
) -> BootstrapResult:
    """Percentile bootstrap interval for a full analysis pipeline.

    Parameters
    ----------
    analysis : callable
        Re-runnable pipeline mapping a Dataset to a scalar estimate; any
        model fitting happens inside, so it is re-done per replicate. An
        analysis may also have an attribute ``batch``: None, or a method
        ``batch(data)`` that prepares ``data`` once and returns a function
        of a b x n block of replicate counts on the rows of ``data``. That
        function returns the b estimates and, per replicate, None, the
        ``ExtCtrlError`` subclass the pipeline raises on that resample, or
        ``REFIT`` to have that replicate run through the pipeline itself;
        it is called once per block, on blocks of at most 32768 counts, and
        may not keep the block, which is refilled for the next one.
        ``config.threads`` applies only to replicates run through the
        pipeline.
    data : Dataset
        Original data; the point estimate is the pipeline applied to it.
    config : BootstrapConfig
    point : float, optional
        ``analysis(data)`` when the caller has it already; by default it is
        computed here.

    Raises
    ------
    TooManyReplicateFailures
        When more than 20% of replicates fail with a typed solver error.
    """
    if point is None:
        point = analysis(data)
    values, errors = replicate_estimates(analysis, data, config)
    failures = Counter(e for e in errors if e is not None)
    n_fail = sum(failures.values())
    if n_fail > MAX_FAILURE_FRACTION * config.replicates:
        raise TooManyReplicateFailures(
            f"{n_fail}/{config.replicates} bootstrap replicates failed"
        )
    estimates = values[[e is None for e in errors]]
    tail = (1.0 - config.level) / 2.0
    lower, upper = np.quantile(estimates, [tail, 1.0 - tail])
    return BootstrapResult(
        point=point,
        lower=float(lower),
        upper=float(upper),
        replicates=estimates,
        n_failures=n_fail,
        failures_by_error=dict(sorted(failures.items())),
    )
