"""Reference computations the tests compare the package against, and the
shipped configs they run.

None of these is reached by a run of the package; each is the plain,
independent form of something a test checks.
"""

import math
import os

import numpy as np

from splitcouple.ar1 import Ar1Params
from splitcouple.errors import CertificationError
from splitcouple.fracvol import VolatilityKernel
from splitcouple.kernels import _NEWTON_MAX_ITER, _NEWTON_TOL
from splitcouple.metrics import PathWindow

_CONFIG_DIR = os.path.join(os.path.dirname(__file__), "..", "configs")
SHIPPED_CONFIGS = sorted(os.path.join(_CONFIG_DIR, name) for name in os.listdir(_CONFIG_DIR))


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
        return (1.0 - math.exp(-2.0 * kernel.lam * t_eff)) / (2.0 * kernel.lam)
    return t_eff ** (2.0 * kernel.h)


def direct_valid_sum(x: np.ndarray, taps) -> np.ndarray:
    """The valid convolution of each row of ``x`` with ``taps``, summed in
    long double."""
    taps = np.asarray(taps, float)
    xl, rev = x.astype(np.longdouble), taps[::-1].astype(np.longdouble)
    n_out = x.shape[1] - taps.size + 1
    return np.stack([(xl[:, j : j + taps.size] * rev).sum(axis=1) for j in range(n_out)], 1)


# The residual CDF inversion as written before its arrays were updated in
# place: the same per-element arithmetic, compacted with boolean gathers on
# every iteration and one quantile call per piece.
def newton_middle_reference(law, m, s, a, t):
    """Solve law.cdf((z - m) / s) - a (z + 1) / 2 = t for z in [-1, 1].

    The left side increases on [-1, 1] where the minorization holds and
    brackets t there.  The start solves the equation with z frozen at 0 in
    the linear term.  Newton steps that leave the bracket or fail to halve
    the previous step are replaced by bisection steps.  Each element stops
    on its own, so a value is independent of what else shares the batch.
    """
    out = np.empty_like(t)
    idx = np.arange(t.size)
    lo = np.full_like(t, -1.0)
    hi = np.ones_like(t)
    z = np.clip(m + s * law.ppf(t + 0.5 * a), -1.0, 1.0)
    step = np.full_like(t, 2.0)
    for _ in range(_NEWTON_MAX_ITER):
        w = (z - m) / s
        h = law.cdf(w) - 0.5 * a * (z + 1.0) - t
        slope = law.pdf(w) / s - 0.5 * a
        lo = np.where(h < 0.0, z, lo)
        hi = np.where(h > 0.0, z, hi)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = z - h / slope
        take = (lo <= newton) & (newton <= hi) & (np.abs(2.0 * h) <= np.abs(step * slope))
        step = np.where(take, newton - z, 0.5 * (hi - lo))
        z = np.where(h == 0.0, z, np.where(take, newton, 0.5 * (lo + hi)))
        done = (h == 0.0) | (np.abs(step) <= _NEWTON_TOL)
        out[idx[done]] = z[done]
        if done.all():
            return out
        keep = ~done
        idx, m, s, a, t = idx[keep], m[keep], s[keep], a[keep], t[keep]
        lo, hi, z, step = lo[keep], hi[keep], z[keep], step[keep]
    raise CertificationError(
        f"residual CDF inversion on [-1, 1] did not converge in {_NEWTON_MAX_ITER} "
        f"Newton steps for {idx.size} elements"
    )


def closed_form_inverse_reference(law, m, s, u, a):
    """Invert the residual CDF of a location-scale kernel, piece by piece."""
    out = np.empty(u.shape)
    off = a == 0.0
    out[off] = m[off] + s[off] * law.ppf(u[off])
    on = ~off
    if on.any():
        m, s, u, a = m[on], s[on], u[on], a[on]
        f_lo = law.cdf((-1.0 - m) / s)  # kernel mass below -1
        sf_hi = law.cdf((m - 1.0) / s)  # kernel mass above 1, by symmetry
        if np.any(1.0 - sf_hi - a < f_lo):
            raise CertificationError(
                "the residual law is not a distribution: alpha exceeds the kernel's "
                "mass on [-1, 1] (minorization violated?)"
            )
        t = u * (1.0 - a)  # residual mass below z, before dividing by 1 - a
        tail = (1.0 - u) * (1.0 - a)  # residual mass above z
        below = t <= f_lo
        above = ~below & (tail <= sf_hi)
        middle = ~(below | above)
        z = np.empty(u.shape)
        z[below] = m[below] + s[below] * law.ppf(t[below])
        z[above] = m[above] - s[above] * law.ppf(tail[above])
        z[middle] = newton_middle_reference(law, m[middle], s[middle], a[middle], t[middle])
        out[on] = z
    if not np.all(np.isfinite(out)):
        raise CertificationError("residual CDF inversion produced a non-finite value")
    return out
