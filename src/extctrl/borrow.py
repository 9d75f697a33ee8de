"""Fixed power-prior borrowing of external binary-outcome controls.

The external binomial likelihood is raised to a fixed discount a0 in [0,1]
before being combined with a Beta prior and the trial likelihood, giving a
conjugate Beta posterior; ``PowerPriorAnalysis`` is a plan's analysis of it.
Intended only when there is no marked doubt about population comparability;
a plan runs it only when its block's ``assume_comparable`` is true.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import ParameterOutOfRange, check_settings, is_count, is_number, setting


@dataclass(frozen=True)
class PowerPriorPosterior:
    a0: float
    prior_alpha: float
    prior_beta: float
    posterior_alpha: float
    posterior_beta: float
    effective_prior_n: float

    @property
    def mean(self) -> float:
        return self.posterior_alpha / (self.posterior_alpha + self.posterior_beta)

    def cdf(self, theta: float) -> float:
        if theta <= 0.0:
            return 0.0
        if theta >= 1.0:
            return 1.0
        from scipy.special import betainc  # at module level it slows start-up

        return float(betainc(self.posterior_alpha, self.posterior_beta, theta))

    def quantile(self, q: float) -> float:
        """Posterior quantile: the inverse of the regularized incomplete beta."""
        if not 0.0 < q < 1.0:
            raise ParameterOutOfRange(f"quantile level {q} outside (0,1)")
        from scipy.special import betaincinv  # at module level it slows start-up

        return float(betaincinv(self.posterior_alpha, self.posterior_beta, q))

    def credible_interval(self, level: float = 0.95) -> tuple[float, float]:
        """Equal-tailed posterior credible interval."""
        if not 0.0 < level < 1.0:
            raise ParameterOutOfRange(f"credible level {level} outside (0,1)")
        tail = (1.0 - level) / 2.0
        return self.quantile(tail), self.quantile(1.0 - tail)

    def to_dict(self, level: float = 0.95) -> dict:
        lo, hi = self.credible_interval(level)
        return {
            "a0": self.a0,
            "prior": [self.prior_alpha, self.prior_beta],
            "posterior": [self.posterior_alpha, self.posterior_beta],
            "effective_prior_n": self.effective_prior_n,
            "mean": self.mean,
            "level": level,
            "credible_interval": [lo, hi],
        }


def power_prior_posterior(
    x: int,
    n: int,
    x0: int,
    n0: int,
    a0: float,
    prior_alpha: float = 1.0,
    prior_beta: float = 1.0,
) -> PowerPriorPosterior:
    """Conjugate Beta posterior with the external likelihood discounted by a0.

    Parameters
    ----------
    x, n : int
        Trial responders and sample size, integers (not bools) with 0 <= x <= n.
    x0, n0 : int
        External responders and sample size, likewise.
    a0 : float
        Discount in [0,1]; 0 discards the external data, 1 pools fully.
    prior_alpha, prior_beta : float
        Beta prior hyperparameters, both finite and > 0.
    """
    if not (is_count(x) and is_count(n) and x <= n):
        raise ParameterOutOfRange(f"trial counts x={x}, n={n} invalid")
    if not (is_count(x0) and is_count(n0) and x0 <= n0):
        raise ParameterOutOfRange(f"external counts x0={x0}, n0={n0} invalid")
    if not 0.0 <= a0 <= 1.0:
        raise ParameterOutOfRange(f"a0={a0} outside [0,1]")
    if not (is_number(prior_alpha) and is_number(prior_beta)
            and prior_alpha > 0 and prior_beta > 0):
        raise ParameterOutOfRange("prior hyperparameters must be finite and > 0")
    return PowerPriorPosterior(
        a0=a0,
        prior_alpha=prior_alpha,
        prior_beta=prior_beta,
        posterior_alpha=prior_alpha + x + a0 * x0,
        posterior_beta=prior_beta + (n - x) + a0 * (n0 - x0),
        effective_prior_n=a0 * n0,
    )


def _floats(values) -> list:
    return [*map(float, values)]


@dataclass(frozen=True)
class PowerPriorAnalysis:
    """Power-prior borrowing as one analysis. ``run`` reads no dataset and
    gives no effect report, the ``posterior`` report block, the posteriors
    over the ``sweep`` grid (no selection rule) as a ``sensitivity`` block
    when it is set, no table and no curves. Each field is the key of the
    same name in a plan's ``power_prior`` block, with the field's default,
    and declares its check, which the constructor runs (ParameterOutOfRange);
    a number that means a float is kept as one, so ``a0=1`` reports 1.0.
    """

    x: int = setting("an integer >= 0", is_count)
    n: int = setting("an integer >= 0", is_count)
    x0: int = setting("an integer >= 0", is_count)
    n0: int = setting("an integer >= 0", is_count)
    a0: float = setting("in [0, 1]", lambda v: is_number(v) and 0 <= v <= 1, float)
    prior: Sequence[float] = setting(
        "two numbers > 0", lambda v: isinstance(v, (list, tuple)) and len(v) == 2
        and all(is_number(p) and p > 0 for p in v), _floats, default=(1.0, 1.0))
    level: float = setting("in (0, 1)", lambda v: is_number(v) and 0 < v < 1, float,
                           default=0.95)
    sweep: Optional[Sequence[float]] = setting(
        "a non-empty list of numbers in [0, 1]", lambda v: v is None or (
            isinstance(v, (list, tuple)) and len(v) > 0
            and all(is_number(a) and 0 <= a <= 1 for a in v)),
        _floats, default=None)

    def __post_init__(self):
        check_settings(self, "power_prior ")
        if self.x > self.n or self.x0 > self.n0:
            raise ParameterOutOfRange(f"power_prior responders exceed n: {self.x}/{self.n}, "
                                      f"{self.x0}/{self.n0}")

    def run(self, data=None) -> tuple:
        def posterior(a0):
            return power_prior_posterior(
                self.x, self.n, self.x0, self.n0, a0, *self.prior).to_dict(self.level)

        blocks = {"posterior": posterior(self.a0)}
        if self.sweep is not None:
            blocks["sensitivity"] = [posterior(a0) for a0 in self.sweep]
        return None, blocks, {}, None
