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

from .kernels import SmallSetLadder, SplitKernel, normal_pdf

LYAPUNOV_T_GRID = 10_000


@dataclass(frozen=True)
class Ar1Params:
    """The chain: its coefficient ``gamma`` and its start ``x0``."""

    gamma: float
    x0: float = 0.0

    def __post_init__(self) -> None:
        # each refusal starts with the name of the field it refuses
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")


@dataclass(frozen=True)
class Ar1BoundParams:
    """A chain and the two-term bound's knobs: ``beta`` of the Lyapunov function
    exp(beta x^2), below (1 - gamma^2)/2 so that the stationary law has that
    moment, and ``eta``, the small-set schedule's slack, below sqrt(2)/gamma."""

    chain: Ar1Params
    beta: float
    eta: float

    def __post_init__(self) -> None:
        s2 = ar1_stationary(self.chain)[1]  # 2 beta s2 rounds to 1 just below the bound
        if not 0.0 < self.beta < (1.0 - self.chain.gamma**2) / 2.0 or 2.0 * self.beta * s2 >= 1.0:
            raise ValueError("beta must lie in (0, (1 - gamma^2)/2)")
        if not 0.0 < self.eta < math.sqrt(2.0) / self.chain.gamma:
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
    with the same floating-point operations as the kernel's normal density,
    ``normal_pdf(z - gamma x)``, at that corner, so grid certificates of the
    inequality are exact there.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    d = -1.0 - gamma * float(n)
    return float(2.0 * normal_pdf(d))


def ar1_split_kernel(gamma: float, n_max: int) -> SplitKernel:
    """Split kernel for the AR(1) chain with ladder sets [-n, n], n <= n_max."""
    if not 0.0 < gamma < 1.0:
        raise ValueError("gamma must lie in (0, 1)")
    ladder = SmallSetLadder(alphas=tuple(ar1_alpha(gamma, n) for n in range(n_max + 1)))

    def cdf(x, z):
        return ndtr(np.asarray(z, float) - gamma * np.asarray(x, float))

    def mean(x):
        return gamma * np.asarray(x, float)

    def stdev(x):
        return np.ones_like(np.asarray(x, float))

    return SplitKernel(cdf=cdf, ladder=ladder, mean=mean, stdev=stdev)


@lru_cache(maxsize=64)
def ar1_lyapunov_constant(b: Ar1BoundParams) -> float:
    """Supremum over time of E[exp(beta X_t^2)].

    Uses the Gaussian identity
    E[exp(b X^2)] = exp(b m^2 / (1 - 2 b s^2)) / sqrt(1 - 2 b s^2)
    on the exact marginals for t in {0, ..., LYAPUNOV_T_GRID} and at the limit.
    It is inf where the moment overflows a double.
    """
    p, beta = b.chain, b.beta
    g2 = p.gamma**2
    s2_lim = 1.0 / (1.0 - g2)  # Ar1BoundParams holds 2 beta s2_lim < 1
    t = np.arange(LYAPUNOV_T_GRID + 1)
    m = p.gamma**t * p.x0
    s2 = (1.0 - g2**t) * s2_lim
    denom = 1.0 - 2.0 * beta * s2
    with np.errstate(over="ignore"):
        vals = np.exp(beta * m * m / denom) / np.sqrt(denom)
    limit = 1.0 / math.sqrt(1.0 - 2.0 * beta * s2_lim)
    return float(max(vals.max(), limit))


def ar1_bound_terms(b: Ar1BoundParams, t: int, n: int) -> tuple[float, float]:
    """The two summands of the total-variation bound at horizon t, set size n."""
    if t < 1:
        raise ValueError("t must be at least 1")
    if n < 0:
        raise ValueError("n must be nonnegative")
    c = ar1_lyapunov_constant(b)
    term1 = 4.0 * c * math.exp(-b.beta * n * n)
    a = ar1_alpha(b.chain.gamma, n)
    term2 = 2.0 * math.exp(t * math.log1p(-a))
    return term1, term2


def ar1_n_schedule(b: Ar1BoundParams, t: int) -> int:
    """Scheduled set size ceil((sqrt(2)/gamma - eta) sqrt(log t))."""
    if t < 2:
        raise ValueError("t must be at least 2")
    return int(math.ceil((math.sqrt(2.0) / b.chain.gamma - b.eta) * math.sqrt(math.log(t))))

