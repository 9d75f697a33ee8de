"""Bootstrap percentile confidence intervals with a reproducible seeding rule.

Each replicate resamples subjects with replacement within each group and
re-runs the full analysis pipeline, including re-estimation of any
propensity or tilt model.

The stream rule: replicate i draws its subjects from
``np.random.default_rng(replicate_seed(seed, i))``, where ``replicate_seed``
mixes the index into the root seed through a fixed 64-bit hash. It draws
``integers(0, k, size=k)`` over the k trial rows, then the same over the
external rows (``_resample_rows``). So serial and parallel runs, and any
block size, give every replicate the same subjects.

The block draw reproduces that rule bit for bit for a block of replicates at
once. It builds no Generator or SeedSequence and makes no ``integers`` call
per replicate, whose set-up dominated the draw. It computes the replicate
seeds and SeedSequence's mixing of them (the words of
``SeedSequence(s).generate_state(4, np.uint64)``, which seed PCG64) in
arrays, thousands of replicates at a time, and seeds each replicate's PCG64
from its words through the ``ISeedSequence`` hook. It reads that generator's
raw 64-bit words and applies Lemire's multiply-and-reject (Lemire 2019, ACM TOMACS 29(1)), the
method ``integers`` uses, to their 32-bit halves, low half first, over the
whole block: each draw's position in its group. A group of one row draws no
word. A replicate that meets a rejected word, rare at these group sizes, is
drawn again by the stream rule itself: ``_resample_rows`` on a NumPy
Generator over its own PCG64.

A resample is a vector of frequency weights on the fixed rows: how many
times each subject was drawn (Efron & Tibshirani 1993, ch. 6). An analysis
that can refit many count vectors at once is run on blocks of them instead
of one resampled dataset per replicate. Their counts come straight from the
positions, one ``bincount`` per group, with no rows between; the positions
come from the same streams, so replicate i refits the same subjects either
way. Only a replicate run through the analysis itself has its rows gathered.
"""

from __future__ import annotations

import functools
import math
import os
from collections import Counter
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from .dataset import Dataset
from .errors import (ExtCtrlError, InvalidConfig, TooManyReplicateFailures, check_settings,
                     is_count, is_int, is_number, setting)
from .glm import REFIT

MAX_FAILURE_FRACTION = 0.2

# Entries in one block (replicates x subjects). The block draw's positions, raw
# words and rows, the count block and the b x n work arrays of a batched refit
# are made once per bootstrap and reused by every block and Newton step, so
# they hold a few hundred kB whatever n and the number of replicates. They are
# reused because allocation, not arithmetic, dominated: on a 2-vCPU host a
# fresh array of 256 kB or more cost about 6-7 ns per element, against about
# 1 ns below 128 kB. A batched replicate's last bits depend on the block size,
# so this constant is part of what fixes a report's bytes.
_BLOCK_ELEMENTS = 32768

# Replicates whose seed words are mixed at once: the mixing costs about 80 us
# a call whatever its size, and about 164 bytes per replicate while it runs.
_SEED_CHUNK = 4096

_SPLITMIX_GAMMA = 0x9E3779B97F4A7C15
_MASK64 = (1 << 64) - 1
_MASK32 = (1 << 32) - 1


def _splitmix64(z: np.ndarray) -> np.ndarray:
    # uint64 arrays wrap modulo 2**64.
    z = z + _SPLITMIX_GAMMA
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
    z = (z ^ (z >> 27)) * 0x94D049BB133111EB
    return z ^ (z >> 31)


def _replicate_seeds(root_seed: int, indices) -> np.ndarray:
    """``replicate_seed(root_seed, i)`` for each index i, as uint64."""
    root = np.uint64(int(root_seed) & _MASK64)
    return _splitmix64(root ^ _splitmix64(np.asarray(indices, dtype=np.uint64)))


def replicate_seed(root_seed: int, index: int) -> int:
    """Independent 64-bit substream seed for one replicate (NumPy integer roots too)."""
    return int(_replicate_seeds(root_seed, [index])[0])


def _hash_constants(init: int, mult: int, count: int) -> np.ndarray:
    out = [init]
    for _ in range(count):
        out.append(out[-1] * mult & _MASK32)
    return np.array(out, dtype=np.uint32)[:, None]


# SeedSequence's hash constants: the pool hash runs through 16, the output hash through 8.
_HASH_POOL = _hash_constants(0x43B0D7E5, 0x931E8875, 16)
_HASH_OUT = _hash_constants(0x8B51F9DD, 0x58F38DED, 8)
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715


def _hashmix(words: np.ndarray, first: int, constants: np.ndarray) -> np.ndarray:
    # Row r of words is hashed with SeedSequence's (first + r)-th hash constant.
    w = (words ^ constants[first:first + len(words)]) * constants[first + 1:first + len(words) + 1]
    return w ^ (w >> 16)


def _seed_state(seeds: np.ndarray) -> np.ndarray:
    """``SeedSequence(s).generate_state(4, np.uint64)`` for each uint64 seed s: b x 4.

    A seed is two 32-bit entropy words, low first. SeedSequence hashes a pool
    of four words and pads the entropy with zeros, so a seed below 2**32,
    which it reads as one word, gives the same pool.
    """
    pool = np.zeros((4, len(seeds)), dtype=np.uint32)
    pool[0], pool[1] = seeds & _MASK32, seeds >> 32
    pool = _hashmix(pool, 0, _HASH_POOL)
    # Each word is mixed into the other three, in order; only the others change.
    for src, first in zip(range(4), range(4, 16, 3)):
        others = [dst for dst in range(4) if dst != src]
        mixed = pool[others] * _MIX_L - _hashmix(pool[[src] * 3], first, _HASH_POOL) * _MIX_R
        pool[others] = mixed ^ (mixed >> 16)
    out = _hashmix(np.concatenate([pool, pool]), 0, _HASH_OUT).astype(np.uint64)
    return np.ascontiguousarray((out[0::2] | out[1::2] << 32).T)


@functools.cache
def _pcg64() -> Callable[[np.ndarray], object]:
    """PCG64 seeded with given SeedSequence words (imports ``numpy.random``)."""
    from numpy.random import PCG64
    from numpy.random.bit_generator import ISeedSequence

    class SeedWords(ISeedSequence):
        def __init__(self, words):
            self.words = words

        def generate_state(self, n_words, dtype=np.uint32):
            return self.words

    return lambda words: PCG64(SeedWords(words))


@dataclass(frozen=True)
class BootstrapConfig:
    # NumPy integers pass, bools do not (as in ScenarioConfig).
    replicates: int = setting("an integer >= 2", lambda v: is_int(v) and v >= 2, default=1000)
    level: float = setting("a number in (0, 1)", lambda v: is_number(v) and 0.0 < v < 1.0,
                           default=0.95)
    seed: int = setting("an integer", is_int, default=0)
    threads: int = setting("an integer >= 0", is_count, default=0)  # 0: EXTCTRL_THREADS, or serial

    def __post_init__(self):
        check_settings(self, "bootstrap ", InvalidConfig)


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


def _block_draw(group_rows, root_seed: int, replicates: int, size: int) -> Callable:
    """The draw of replicates 0 .. ``replicates`` - 1, at most ``size`` at a time.

    The seed words of the replicates are mixed ``_SEED_CHUNK`` at a time,
    when the draw first reaches them, and the last chunk's are kept. Returns a
    function ``draw(indices, counts=None)`` of at most ``size`` indices. Row
    j of its result is ``_resample_rows(*group_rows, rng)`` for the generator
    of replicate ``indices[j]``: a view of a rows buffer that the next call
    refills. Given a b x n float block ``counts``, it overwrites and returns
    that block instead, row j holding how many times the resample holds each
    row (``np.bincount`` of those rows), and gathers no rows.
    """
    pcg64 = _pcg64()

    @functools.lru_cache(maxsize=1)
    def chunk(c: int) -> np.ndarray:
        indices = np.arange(c * _SEED_CHUNK, min((c + 1) * _SEED_CHUNK, replicates))
        return _seed_state(_replicate_seeds(root_seed, indices))

    def words(i: int) -> np.ndarray:
        c, r = divmod(i, _SEED_CHUNK)
        return chunk(c)[r]

    sizes = [len(rows) for rows in group_rows]
    n = sum(sizes)
    draws = [k if k > 1 else 0 for k in sizes]  # a group of one row draws no word
    raw = np.empty((size, (sum(draws) + 1) // 2), dtype="<u8")
    positions = np.empty(size * max(draws), dtype=np.uint64)
    rows = None

    def draw(indices: np.ndarray, counts: Optional[np.ndarray] = None) -> np.ndarray:
        nonlocal rows
        b = len(indices)
        if counts is None and rows is None:
            rows = np.empty((size, n), dtype=np.intp)
        out = rows if counts is None else counts
        for j, i in enumerate(indices.tolist()):
            raw[j] = pcg64(words(i)).random_raw(raw.shape[1])
        halves = raw[:b].view("<u4")
        rejected = np.zeros(b, dtype=bool)
        col = h = 0
        for group, k in zip(group_rows, draws):
            if k:
                # Lemire's method, as in Generator.integers: the position is the
                # high half of the product, and the low half, which decides
                # rejection, is the uint32 product.
                part = halves[:, h:h + k]
                rejected |= (part * np.uint32(k) < (1 << 32) % k).any(axis=1)
                pos = np.multiply(part, np.uint64(k), out=positions[:b * k].reshape(b, k))
                pos >>= 32
                if counts is None:
                    # take fills a contiguous slice of rows (one group, as in a
                    # trial-only bootstrap) in place, where mode "raise" would
                    # copy it first; the draws lie in [0, k), so "clip" changes none.
                    group.take(pos.view(np.int64), out=rows[:b, col:col + k], mode="clip")
                else:  # replicate j's positions move up by j k: one bincount counts the block
                    pos += np.arange(0, b * k, k, dtype=np.uint64)[:, None]
                    counts[:b, group] = np.bincount(pos.view(np.int64).ravel(),
                                                   minlength=b * k).reshape(b, k)
                h += k
            elif counts is None:
                rows[:b, col:col + len(group)] = group
            else:
                counts[:b, group] = 1.0
            col += len(group)
        for j in np.flatnonzero(rejected):
            again = _resample_rows(*group_rows, np.random.Generator(pcg64(words(indices[j]))))
            out[j] = again if counts is None else np.bincount(again, minlength=n)
        return out[:b]

    return draw


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
    n = len(data)
    size = min(max(1, _BLOCK_ELEMENTS // n), config.replicates)
    draw = _block_draw(data.group_rows, config.seed, config.replicates, size)

    pending = np.arange(config.replicates)
    batch = getattr(analysis, "batch", None)
    if batch is not None:
        refit = []
        fit_block = batch(data)
        counts = np.empty((size, n))  # refilled in place for every block
        for start in range(0, config.replicates, size):
            block = pending[start:start + size]
            estimates, block_errors = fit_block(draw(block, counts))
            for i, value, error in zip(block.tolist(), estimates, block_errors):
                if error is REFIT:
                    refit.append(i)
                elif error is None:
                    values[i] = value
                else:
                    errors[i] = error.__name__
        pending = np.array(refit, dtype=np.intp)

    def one(rows: np.ndarray) -> tuple[float, Optional[str]]:
        sample = data.take(rows)
        try:
            return analysis(sample), None
        except ExtCtrlError as exc:
            return math.nan, type(exc).__name__

    def run(map_replicates) -> None:
        for start in range(0, len(pending), size):
            block = pending[start:start + size]
            # Results come back in index order, keeping the reduction deterministic.
            for i, (value, error) in zip(block.tolist(), map_replicates(one, draw(block))):
                values[i], errors[i] = value, error

    threads = config.threads
    if threads == 0:
        env = os.environ.get("EXTCTRL_THREADS", "")
        threads = int(env) if env.isdecimal() and int(env) > 0 else 1
    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            run(pool.map)
    else:
        run(map)
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
