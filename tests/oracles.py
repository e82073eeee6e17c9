"""Reference computations the tests compare the package against, the
computations only tests and acceptance criteria call, and the shipped configs
they run.

None of these is reached by a run of the package: each is the plain,
independent form of something a test checks, or a certificate, rate fit or
distance that a criterion evaluates outside any run.
"""

import math
import os
from dataclasses import dataclass

import numpy as np

from splitcouple import logvol
from splitcouple.ar1 import Ar1BoundParams, Ar1Params, ar1_bound_terms, ar1_n_schedule
from splitcouple.errors import CertificationError
from splitcouple.fracvol import VolatilityKernel
from splitcouple.kernels import _NEWTON_MAX_ITER, _NEWTON_TOL, SplitKernel, normal_pdf
from splitcouple.logvol import LogvolParams, ma_env_values
from splitcouple.streams import replica_blocks

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


_MAX_PATH_STEP = 1.0 / 64.0


@dataclass(frozen=True)
class PathWindow:
    """Values of a trajectory on a uniform grid over [-half_width, half_width].

    The interval supremum in the path metric is taken over grid points only;
    the grid step must not exceed 1/64 so each unit interval holds at least
    64 sample points.
    """

    values: np.ndarray
    half_width: float

    def __post_init__(self) -> None:
        vals = np.asarray(self.values, float)
        object.__setattr__(self, "values", vals)
        if vals.ndim != 1 or vals.size < 2:
            raise ValueError("values must be a 1-d array with at least 2 points")
        if not np.all(np.isfinite(vals)):
            raise ValueError("values must be finite")
        if self.half_width <= 0.0:
            raise ValueError("half_width must be positive")
        if self.step > _MAX_PATH_STEP + 1e-12:
            raise ValueError(f"grid step {self.step} exceeds 1/64")

    @property
    def step(self) -> float:
        return 2.0 * self.half_width / (self.values.size - 1)

    @property
    def grid(self) -> np.ndarray:
        return np.linspace(-self.half_width, self.half_width, self.values.size)


def constant_window(level: float, half_width: float, step: float = 1.0 / 64.0) -> PathWindow:
    """Flat window at the given level."""
    npts = int(round(2.0 * half_width / step)) + 1
    return PathWindow(np.full(npts, float(level)), half_width)



def path_metric_d(f: PathWindow, g: PathWindow) -> float:
    """Weighted sum over unit intervals of the clamped sup distance.

    Computes ``sum_i 2^{-|i|} min(1, sup_{[i, i+1]} |f - g|)`` over the
    integer intervals contained in the shared window.
    """
    if f.values.size != g.values.size or f.half_width != g.half_width:
        raise ValueError("windows must share their grid")
    diff = np.abs(f.values - g.values)
    grid = f.grid
    total = 0.0
    i_lo = int(np.ceil(-f.half_width - 1e-12))
    i_hi = int(np.floor(f.half_width + 1e-12))
    for i in range(i_lo, i_hi):
        sel = (grid >= i - 1e-12) & (grid <= i + 1.0 + 1e-12)
        if not sel.any():
            continue
        total += 2.0 ** (-abs(i)) * min(1.0, float(diff[sel].max()))
    return total


def _pairwise_path_d(windows1, windows2) -> np.ndarray:
    """Matrix of path distances between two equal-grid window collections."""
    n1, n2 = len(windows1), len(windows2)
    out = np.empty((n1, n2))
    for i, w in enumerate(windows1):
        for j, v in enumerate(windows2):
            out[i, j] = path_metric_d(w, v)
    return out


def bounded_wasserstein(samples1, samples2, max_pairs: int = 512) -> float:
    """Average matched cost of the exact assignment between two sample sets.

    Each sample is a tuple ``(state, vol_window, corr_window)``; the pairwise
    cost is ``min(1, |x1 - x2|) + d(v1, v2) + d(r1, r2)`` with ``d`` the path
    metric.  The assignment problem is solved exactly (cubic time), and the
    average matched cost upper-bounds the transport distance between the two
    empirical laws.
    """
    if len(samples1) != len(samples2):
        raise ValueError("sample sets must have equal size")
    n = len(samples1)
    if n == 0:
        raise ValueError("sample sets must be nonempty")
    if n > max_pairs:
        raise ValueError(f"sample size {n} exceeds max_pairs={max_pairs}")
    x1 = np.array([float(s[0]) for s in samples1])
    x2 = np.array([float(s[0]) for s in samples2])
    cost = np.minimum(1.0, np.abs(x1[:, None] - x2[None, :]))
    cost = cost + _pairwise_path_d([s[1] for s in samples1], [s[1] for s in samples2])
    cost = cost + _pairwise_path_d([s[2] for s in samples1], [s[2] for s in samples2])
    from scipy.optimize import linear_sum_assignment
    rows, cols = linear_sum_assignment(cost)
    return float(cost[rows, cols].mean())


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


def normal_density(kernel: SplitKernel, x, z):
    """Conditional density at ``z`` of a kernel's normal law given ``x``."""
    s = kernel.stdev(x)
    return normal_pdf((z - kernel.mean(x)) / s) / s


def validate_minorization(
    kernel: SplitKernel, n: int, x_grid: np.ndarray, z_grid: np.ndarray
) -> float:
    """Smallest slack of ``q(x, z) >= alpha_n / 2`` over the given grids.

    Nonnegative return certifies the minorization on the grid; a negative
    value is a result, not an error.
    """
    n = kernel.ladder.check_index(n)
    x_grid = np.asarray(x_grid, float)
    z_grid = np.asarray(z_grid, float)
    if x_grid.size == 0 or z_grid.size == 0:
        raise ValueError("grids must be nonempty")
    b = float(n)
    if np.any(np.abs(x_grid) > b):
        raise ValueError(f"x_grid must lie inside the small set [-{b}, {b}]")
    if np.any(np.abs(z_grid) > 1.0):
        raise ValueError("z_grid must lie inside [-1, 1]")
    q = normal_density(kernel, x_grid[:, None], z_grid[None, :])
    return float(np.min(q) - 0.5 * kernel.ladder.alphas[n])


def ar1_bound_curve(b: Ar1BoundParams, t: int, n: int) -> float:
    """Total-variation bound 4 c exp(-beta n^2) + 2 (1 - alpha_n)^t.

    The first term pays for ever leaving [-n, n] (via the exponential moment
    and a Markov bound), the second for never regenerating in t attempts.
    The bound may exceed 2 (it is then vacuous but still valid).
    """
    term1, term2 = ar1_bound_terms(b, t, n)
    return term1 + term2


def ar1_rate_fit(b: Ar1BoundParams, t_grid) -> float:
    """Least-squares decay exponent of the scheduled bound on a log-log grid.

    Fits log(bound(t, n(t))) against log t and returns minus the slope.  The
    grid needs at least 5 points spanning at least two decades.
    """
    t_arr = np.asarray(sorted(int(t) for t in t_grid))
    if t_arr.size < 5:
        raise ValueError("need at least 5 grid points")
    if t_arr[-1] < 100 * t_arr[0]:
        raise ValueError("grid must span at least two decades")
    log_b = [math.log(ar1_bound_curve(b, int(t), ar1_n_schedule(b, int(t)))) for t in t_arr]
    slope = np.polyfit(np.log(t_arr), log_b, 1)[0]
    return float(-slope)


def ma_env_paths(
    p: LogvolParams, horizon: int, replicas: int, master_seed: int
) -> np.ndarray:
    """Batch of stationary environment windows, one replica stream per row.

    Each replica's stream draws its raw normals first, so windows are
    reproducible regardless of what an experiment draws afterwards.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    layout = [(np.random.Generator.standard_normal, (p.lag + horizon + 2,))]
    _, _, (eta,) = next(replica_blocks(master_seed, range(replicas), replicas, layout))
    return ma_env_values(p, eta)


def logvol_certify_minorization(p: LogvolParams, n: int) -> float:
    """Grid slack of ``q(x, env, w) >= alpha_n / 2`` over the n-th sets.

    Grids of 21 points span (x, z, eta) in [-n, n]^3 and 201 points span
    targets w in [-1, 1]; endpoints are on the grid, so the binding corners
    are evaluated exactly.  The reach is looked up on the module, so a test
    can replace it.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    root = math.sqrt(1.0 - p.rho * p.rho)
    g = np.linspace(-n, n, 21)
    xg, zg, hg = g[:, None, None, None], g[None, :, None, None], g[None, None, :, None]
    wg = np.linspace(-1.0, 1.0, 201)[None, None, None, :]
    s = root * np.exp(zg)
    arg = (wg - p.gamma * xg - p.rho * np.exp(zg) * hg) / s
    q = normal_pdf(arg) / s
    half_alpha = float(normal_pdf(logvol.logvol_dn(p, n))) / (root * math.exp(n))
    return float(q.min() - half_alpha)


def csv_text(table: np.recarray) -> str:
    """The CSV text of a record table, formatted whole in one ``%`` a line and
    one join: the form ``harness.emit_csv`` took before it wrote in batches."""
    formats = {"b": "%s", "i": "%d", "u": "%d", "f": "%.17g", "O": "%d"}
    names = table.dtype.names
    fmt = ",".join(formats[table.dtype[name].kind] for name in names)
    cols = [
        np.where(table[name], "true", "false").tolist() if table.dtype[name].kind == "b"
        else table[name].tolist()
        for name in names
    ]
    lines = [",".join(names), *(fmt % row for row in zip(*cols))]
    return "\n".join(lines) + "\n"
