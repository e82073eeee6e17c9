"""Reference computations the tests compare the package against.

None of these is reached by a run of the package; each is the plain,
independent form of something a test checks.
"""

import math

import numpy as np

from splitcouple.ar1 import Ar1Params
from splitcouple.fracvol import VolatilityKernel
from splitcouple.metrics import PathWindow


def ar1_simulate_batch(
    p: Ar1Params, t: int, rng: np.random.Generator, replicas: int
) -> np.ndarray:
    """Plain forward simulation of X_t over independent replicas."""
    x = np.full(replicas, float(p.x0))
    for _ in range(t):
        x = p.gamma * x + rng.standard_normal(replicas)
    return x


def constant_window(level: float, half_width: float, step: float = 1.0 / 64.0) -> PathWindow:
    """Flat window at the given level."""
    npts = int(round(2.0 * half_width / step)) + 1
    return PathWindow(np.full(npts, float(level)), half_width)


def k2_integral(kernel: VolatilityKernel, t: float, burn_in: float) -> float:
    """Analytic integral of K^2 over [0, t] (kernel cut at its memory)."""
    mem = kernel.resolved_memory(burn_in)
    t_eff = min(t, mem)
    if t_eff <= 0.0:
        return 0.0
    if kernel.kind == "exponential":
        return kernel.scale**2 * (1.0 - math.exp(-2.0 * kernel.lam * t_eff)) / (2.0 * kernel.lam)
    return kernel.scale**2 * t_eff ** (2.0 * kernel.h)


def direct_valid_sum(x: np.ndarray, taps) -> np.ndarray:
    """The valid convolution of each row of ``x`` with ``taps``, summed in
    long double."""
    taps = np.asarray(taps, float)
    xl, rev = x.astype(np.longdouble), taps[::-1].astype(np.longdouble)
    n_out = x.shape[1] - taps.size + 1
    return np.stack([(xl[:, j : j + taps.size] * rev).sum(axis=1) for j in range(n_out)], 1)
