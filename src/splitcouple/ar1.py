"""Stable scalar AR(1) with Gaussian innovations: exact laws and rate bounds.

The chain ``X_{t+1} = gamma X_t + eps_{t+1}`` has explicit Gaussian marginals,
a closed-form minorization weight on every interval [-n, n] against the
uniform law on [-1, 1], and an explicit two-term total-variation bound whose
small-set size can be scheduled against the horizon.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache

import numpy as np
from scipy.special import ndtr

from .kernels import STD_NORMAL, SmallSetLadder, SplitKernel

LYAPUNOV_T_GRID = 10_000


@dataclass(frozen=True)
class Ar1Params:
    """Model parameters plus the exponential-moment and schedule knobs.

    ``beta`` is the coefficient of the exponential Lyapunov function
    exp(beta x^2); it must stay below (1 - gamma^2)/2 so that the stationary
    law has the corresponding moment.  ``eta`` is the slack in the
    small-set-size schedule and must stay below sqrt(2)/gamma.
    """

    gamma: float
    beta: float
    x0: float = 0.0
    eta: float = 0.1

    def __post_init__(self) -> None:
        # each refusal starts with the name of the field it refuses
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not 0.0 < self.beta < (1.0 - self.gamma**2) / 2.0:
            raise ValueError("beta must lie in (0, (1 - gamma^2)/2)")
        if not 0.0 < self.eta < math.sqrt(2.0) / self.gamma:
            raise ValueError("eta must lie in (0, sqrt(2)/gamma)")


def ar1_marginal(p: Ar1Params, t: int) -> tuple[float, float]:
    """Mean and variance of X_t: (gamma^t x0, (1 - gamma^{2t}) / (1 - gamma^2))."""
    if t < 0:
        raise ValueError("t must be nonnegative")
    g2 = p.gamma**2
    return p.gamma**t * p.x0, (1.0 - g2**t) / (1.0 - g2)


def ar1_stationary(p: Ar1Params) -> tuple[float, float]:
    """Mean and variance of the limiting law: (0, 1 / (1 - gamma^2))."""
    return 0.0, 1.0 / (1.0 - p.gamma**2)


def ar1_alpha(gamma: float, n: int) -> float:
    """Minorization weight sqrt(2/pi) exp(-(gamma n + 1)^2 / 2) on [-n, n].

    This is the infimum of the transition density against the uniform
    density 1/2 on [-1, 1], attained at x = +-n, z = -+1.  It is evaluated
    with the same floating-point operations as the kernel density at that
    corner, so grid certificates of the inequality are exact there.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = -1.0 - gamma * float(n)
    return float(2.0 * STD_NORMAL.pdf(d))


def ar1_split_kernel(gamma: float, n_max: int = 8) -> SplitKernel:
    """Split kernel for the AR(1) chain with ladder sets [-n, n], n <= n_max."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    ladder = SmallSetLadder(
        radii=tuple(float(n) for n in range(n_max + 1)),
        alphas=tuple(ar1_alpha(gamma, n) for n in range(n_max + 1)),
    )

    def density(x, z):
        return STD_NORMAL.pdf(np.asarray(z, float) - gamma * np.asarray(x, float))

    def cdf(x, z):
        return ndtr(np.asarray(z, float) - gamma * np.asarray(x, float))

    def mean(x):
        return gamma * np.asarray(x, float)

    def stdev(x):
        return np.ones_like(np.asarray(x, float))

    return SplitKernel(
        density=density, cdf=cdf, ladder=ladder, mean=mean, stdev=stdev,
        innovation=STD_NORMAL,
    )


@lru_cache(maxsize=64)
def ar1_lyapunov_constant(p: Ar1Params) -> float:
    """Supremum over time of E[exp(beta X_t^2)].

    Uses the Gaussian identity
    E[exp(b X^2)] = exp(b m^2 / (1 - 2 b s^2)) / sqrt(1 - 2 b s^2)
    on the exact marginals for t in {0, ..., LYAPUNOV_T_GRID} and at the limit.
    It is inf where the moment overflows a double.
    """
    b = p.beta
    g2 = p.gamma**2
    s2_lim = 1.0 / (1.0 - g2)
    if 2.0 * b * s2_lim >= 1.0:
        raise ValueError("2 beta s^2 must stay below 1 for the moment to exist")
    t = np.arange(LYAPUNOV_T_GRID + 1)
    m = p.gamma**t * p.x0
    s2 = (1.0 - g2**t) * s2_lim
    denom = 1.0 - 2.0 * b * s2
    with np.errstate(over="ignore"):
        vals = np.exp(b * m * m / denom) / np.sqrt(denom)
    limit = 1.0 / math.sqrt(1.0 - 2.0 * b * s2_lim)
    return float(max(vals.max(), limit))


def ar1_bound_terms(p: Ar1Params, t: int, n: int) -> tuple[float, float]:
    """The two summands of the total-variation bound at horizon t, set size n."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = ar1_lyapunov_constant(p)
    term1 = 4.0 * c * math.exp(-p.beta * n * n)
    a = ar1_alpha(p.gamma, n)
    term2 = 2.0 * math.exp(t * math.log1p(-a))
    return term1, term2


def ar1_bound_curve(p: Ar1Params, t: int, n: int) -> float:
    """Total-variation bound 4 c exp(-beta n^2) + 2 (1 - alpha_n)^t.

    The first term pays for ever leaving [-n, n] (via the exponential moment
    and a Markov bound), the second for never regenerating in t attempts.
    The bound may exceed 2 (it is then vacuous but still valid).
    """
    term1, term2 = ar1_bound_terms(p, t, n)
    return term1 + term2


def ar1_n_schedule(p: Ar1Params, t: int) -> int:
    """Scheduled set size ceil((sqrt(2)/gamma - eta) sqrt(log t))."""
    if t < 2:
        raise ValueError("t must be at least 2")
    return int(math.ceil((math.sqrt(2.0) / p.gamma - p.eta) * math.sqrt(math.log(t))))


def ar1_rate_fit(p: Ar1Params, t_grid) -> float:
    """Least-squares decay exponent of the scheduled bound on a log-log grid.

    Fits log(bound(t, n(t))) against log t and returns minus the slope.  The
    grid needs at least 5 points spanning at least two decades.
    """
    t_arr = np.asarray(sorted(int(t) for t in t_grid))
    if t_arr.size < 5:
        raise ValueError("need at least 5 grid points")
    if t_arr[-1] < 100 * t_arr[0]:
        raise ValueError("grid must span at least two decades")
    log_b = [math.log(ar1_bound_curve(p, int(t), ar1_n_schedule(p, int(t)))) for t in t_arr]
    slope = np.polyfit(np.log(t_arr), log_b, 1)[0]
    return float(-slope)
