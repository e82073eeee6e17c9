"""Discrete-time log-volatility chain driven by a moving-average environment.

The state follows
``X_{t+1} = gamma X_t + rho e^{Z_t} eta_{t+1} + sqrt(1-rho^2) e^{Z_t} eps_{t+1}``
where ``Z_t = sum_k a_k eta_{t-k}`` is a causal Gaussian moving average
(truncated at a finite lag) and the environment seen by the chain at time t
is the pair ``(Z_t, eta_{t+1})``.  Conditionally on the environment the step
is a location-scale family in the innovation ``eps``, which yields explicit
small-set minorization constants and a uniform second-moment bound.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass, field

import numpy as np
from scipy.special import ndtr

from .coupling import BlockSchedule, block_schedule
from .kernels import STD_NORMAL, InnovationLaw, SmallSetLadder, SplitKernel
from .streams import ma_plan, ma_plan_row_bytes, replica_blocks, stream_state_bytes

DEFAULT_MA_LAG = 512
_BLOCK_ROWS = 1024  # replicas drawn, convolved and stepped together
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def geometric_ma(ratio: float, lag: int = DEFAULT_MA_LAG) -> tuple[float, ...]:
    """Coefficients a_k = ratio^k, k = 0..lag."""
    if not 0.0 <= ratio < 1.0:
        raise ValueError("ratio must lie in [0, 1)")
    return tuple(ratio**k for k in range(lag + 1))


def fractional_ma(h: float, lag: int = DEFAULT_MA_LAG) -> tuple[float, ...]:
    """Power-law coefficients a_k = (k + 1)^(h - 3/2), k = 0..lag."""
    if not 0.0 < h < 1.0:
        raise ValueError("h must lie in (0, 1)")
    return tuple((k + 1.0) ** (h - 1.5) for k in range(lag + 1))


@dataclass(frozen=True)
class LogvolParams:
    gamma: float
    rho: float
    ma_coeffs: tuple[float, ...]
    eps: InnovationLaw = STD_NORMAL
    x0: float = 0.0

    def __post_init__(self) -> None:
        # each refusal starts with the name of the field it refuses
        if not 0.0 < self.gamma < 1.0:
            raise ValueError("gamma must lie in (0, 1)")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        if len(self.ma_coeffs) == 0:
            raise ValueError("ma_coeffs must be nonempty")
        if not all(math.isfinite(a) for a in self.ma_coeffs):
            raise ValueError("ma_coeffs must be finite")
        if not 2.0 * self.env_variance < _LOG_FLOAT_MAX:
            raise ValueError("ma_coeffs too large: exp(2 * env_variance) overflows")

    @property
    def lag(self) -> int:
        return len(self.ma_coeffs) - 1

    @property
    def ma_rate(self) -> float | None:
        """Decay a lag step, ``-log r``, when ``ma_coeffs`` are exactly
        ``geometric_ma(r, lag)`` with ``0 < r < 1`` and ``lag >= 1``, so that
        the moving average can run as a recursive scan; None for any other
        coefficients (one tap, ``r = 0``, fractional or hand-written)."""
        a = tuple(self.ma_coeffs)
        if len(a) > 1 and 0.0 < a[1] < 1.0 and a == geometric_ma(a[1], self.lag):
            return -math.log(a[1])
        return None

    @property
    def env_variance(self) -> float:
        """Variance of the truncated moving average Z_t."""
        return float(sum(a * a for a in self.ma_coeffs))


def _scale_root(rho: float) -> float:
    return math.sqrt(1.0 - rho * rho)


def ma_env_values(p: LogvolParams, eta: np.ndarray) -> np.ndarray:
    """Environment rows (Z_t, eta_{t+1}) from raw normals eta_{-lag..h+1}.

    ``eta`` has shape (replicas, lag + horizon + 2); the result has shape
    (replicas, horizon + 1, 2) covering t = 0..horizon.  The moving average is
    computed in blocks of ``_BLOCK_ROWS`` (1,024) rows through one reused
    plan that ``streams.ma_plan`` picks: for a geometric MA
    (``LogvolParams.ma_rate``) a recursive scan, for any other a transform.
    Beside ``eta`` and the result, that block (``block_working_bytes`` with
    ``draws=False``) is the working memory, whatever the replica count.
    """
    a = np.asarray(p.ma_coeffs, float)
    if eta.ndim != 2 or eta.shape[1] < a.size + 1:
        raise ValueError("eta must cover lag + horizon + 2 draws per replica")
    horizon = eta.shape[1] - a.size - 1
    out = np.empty((eta.shape[0], horizon + 1, 2))
    plan = ma_plan(a, min(len(eta), _BLOCK_ROWS), eta.shape[1], p.ma_rate)
    for lo in range(0, len(eta), _BLOCK_ROWS):
        blk = eta[lo : lo + _BLOCK_ROWS]
        out[lo : lo + len(blk), :, 0] = plan(blk)[:, : horizon + 1]  # Z_t
    out[:, :, 1] = eta[:, a.size : a.size + horizon + 1]
    return out


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


def logvol_dn(p: LogvolParams, n: int) -> float:
    """Reach of the innovation needed to land in [-1, 1] from the n-th sets.

    Rearranging the recursion for eps and maximizing over states in [-n, n],
    |eta| <= n and e^Z in [e^-n, e^n] gives
    ``d(n) = ((1 + gamma n) e^n + |rho| n) / sqrt(1 - rho^2)``.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    return ((1.0 + p.gamma * n) * math.exp(n) + abs(p.rho) * n) / _scale_root(p.rho)


def logvol_alpha(p: LogvolParams, n: int) -> float:
    """Minorization weight 2 f(d(n)) / (sqrt(1 - rho^2) e^n) on the n-th sets.

    The transition density at a target w is f(eps*) divided by the local
    scale sqrt(1 - rho^2) e^Z; bounding the scale by its supremum over the
    environment set gives a provably valid constant for symmetric unimodal f.
    """
    if not p.eps.symmetric_unimodal:
        raise ValueError("minorization weight needs a symmetric unimodal innovation density")
    d = logvol_dn(p, n)
    f = float(p.eps.pdf(np.asarray(d)))
    return min(2.0 * f / (_scale_root(p.rho) * math.exp(n)), 1.0)


def logvol_certify_minorization(p: LogvolParams, n: int) -> float:
    """Grid slack of ``q(x, env, w) >= alpha_n / 2`` over the n-th sets.

    Grids of 21 points span (x, z, eta) in [-n, n]^3 and 201 points span
    targets w in [-1, 1]; endpoints are on the grid, so the binding corners
    are evaluated exactly.
    """
    if n < 0:
        raise ValueError("n must be nonnegative")
    root = _scale_root(p.rho)
    g = np.linspace(-n, n, 21)
    xg, zg, hg = g[:, None, None, None], g[None, :, None, None], g[None, None, :, None]
    wg = np.linspace(-1.0, 1.0, 201)[None, None, None, :]
    s = root * np.exp(zg)
    arg = (wg - p.gamma * xg - p.rho * np.exp(zg) * hg) / s
    q = p.eps.pdf(arg) / s
    half_alpha = float(p.eps.pdf(np.asarray(logvol_dn(p, n)))) / (root * math.exp(n))
    return float(q.min() - half_alpha)


def logvol_moment_bound(p: LogvolParams) -> float:
    """Time-uniform bound on E[X_t^2].

    ``K = E[e^{2 Z_0}] (rho^2 + (1 - rho^2) E[eps^2]) / (1 - gamma^2) + x0^2``
    with the log-normal moment taken at the truncated MA variance.
    """
    e2z = math.exp(2.0 * p.env_variance)
    mix = p.rho**2 + (1.0 - p.rho**2) * p.eps.second_moment
    return e2z * mix / (1.0 - p.gamma**2) + p.x0**2


def logvol_tail(p: LogvolParams, n: int) -> float:
    """Schedule input: state tail K/n^2 plus exact Gaussian environment tails."""
    if n < 1:
        raise ValueError("n must be at least 1")
    k_bound = logvol_moment_bound(p)
    sigma_z = math.sqrt(p.env_variance)
    z_tail = 0.0 if sigma_z == 0.0 else 2.0 * float(ndtr(-n / sigma_z))
    eta_tail = 2.0 * float(ndtr(-float(n)))
    return min(k_bound / (n * n) + z_tail + eta_tail, 1.0)


def logvol_schedule(p: LogvolParams, m_max: int) -> BlockSchedule:
    """Block schedule of the chain from its tails and minorization weights."""
    return block_schedule(lambda n: logvol_tail(p, n), lambda n: logvol_alpha(p, n), m_max, n_min=1)


def logvol_kernel(p: LogvolParams, z, eta_next, n_max: int = 2,
                  ladder: SmallSetLadder | None = None) -> SplitKernel:
    """Split kernel of the chain with the environment frozen at (z, eta_next).

    ``z`` and ``eta_next`` may be scalars or arrays aligned with the state
    vectors the kernel will be applied to; the kernel carries them as its
    ``env``, so its small sets are the joint boxes [-n, n]^3 on which the
    ladder weights hold.  ``ladder`` is ``logvol_ladder(p, n_max)``, built
    here when not given.
    """
    z = np.asarray(z, float)
    eta_next = np.asarray(eta_next, float)
    root = _scale_root(p.rho)
    shift = p.rho * np.exp(z) * eta_next
    scale = root * np.exp(z)
    if ladder is None:
        ladder = logvol_ladder(p, n_max)

    def density(x, w):
        arg = (np.asarray(w, float) - p.gamma * np.asarray(x, float) - shift) / scale
        return p.eps.pdf(arg) / scale

    def cdf(x, w):
        arg = (np.asarray(w, float) - p.gamma * np.asarray(x, float) - shift) / scale
        return p.eps.cdf(arg)

    def mean(x):
        return p.gamma * np.asarray(x, float) + shift

    def stdev(x):
        return np.broadcast_to(scale, np.asarray(x, float).shape).astype(float)

    return SplitKernel(
        density=density, cdf=cdf, ladder=ladder, mean=mean, stdev=stdev, innovation=p.eps,
        env=(z, eta_next),
    )


def logvol_ladder(p: LogvolParams, n_max: int) -> SmallSetLadder:
    return SmallSetLadder(
        radii=tuple(float(n) for n in range(n_max + 1)),
        alphas=tuple(logvol_alpha(p, n) for n in range(n_max + 1)),
    )


@dataclass(frozen=True)
class LogvolMcreModel:
    """Environment-dependent split kernel adapter for the coupling engine."""

    params: LogvolParams
    n_max: int = 2
    ladder: SmallSetLadder = field(init=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "ladder", logvol_ladder(self.params, self.n_max))

    def kernel(self, env_values: np.ndarray) -> SplitKernel:
        env_values = np.asarray(env_values, float)
        return logvol_kernel(self.params, env_values[..., 0], env_values[..., 1],
                             ladder=self.ladder)


def block_working_bytes(lag: int, rate: float | None, horizon: int, replicas: int,
                        draws: bool = True) -> int:
    """Bytes a block of ``min(replicas, _BLOCK_ROWS)`` rows holds over ``horizon``
    steps of an MA of ``lag`` and ``LogvolParams.ma_rate`` ``rate``: its plan
    (``streams.ma_plan_row_bytes``); with ``draws``, the normals and innovations
    ``simulate_logvol_batch`` draws into it; the stream states
    (``streams.stream_state_bytes``); and 256 KiB for numpy's iteration buffers."""
    n_env = lag + horizon + 2
    per_row = ma_plan_row_bytes(lag + 1, n_env, rate)
    if draws:
        per_row += 8 * (n_env + horizon)
    return min(replicas, _BLOCK_ROWS) * per_row + stream_state_bytes(replicas) + 2**18


def simulate_logvol_batch(
    p: LogvolParams,
    horizon: int,
    replicas: int,
    master_seed: int,
    checkpoints: tuple[int, ...],
) -> dict[int, np.ndarray]:
    """Forward-simulate the chain; returns X_t samples at each checkpoint.

    Replica stream layout: raw environment normals first, then the horizon's
    innovations.  Replicas are drawn, convolved and stepped in blocks of
    ``_BLOCK_ROWS`` (1,024) in buffers allocated once.  The moving average
    runs through the plan ``streams.ma_plan`` picks (see ``ma_env_values``),
    so memory is one block's draws and plan (``block_working_bytes``) plus
    8 bytes per replica and checkpoint, whatever the replica count.  Every
    operation is per replica, so the blocking changes no bit of the result.
    """
    if horizon < 1:
        raise ValueError("horizon must be at least 1")
    bad = [t for t in checkpoints if not 0 <= t <= horizon]
    if bad:
        raise ValueError(f"checkpoints outside [0, horizon]: {bad}")
    n_env = p.lag + horizon + 2
    layout = [(np.random.Generator.standard_normal, (n_env,)), (p.eps.sample, (horizon,))]
    plan = ma_plan(p.ma_coeffs, min(replicas, _BLOCK_ROWS), n_env, p.ma_rate)
    root = _scale_root(p.rho)
    out = {t: np.empty(replicas) for t in sorted(set(checkpoints))}
    blocks = replica_blocks(master_seed, range(replicas), _BLOCK_ROWS, layout)
    for lo, hi, (blk_eta, blk_eps) in blocks:
        z = plan(blk_eta)  # Z_t in column t
        x = np.full(hi - lo, p.x0)
        if 0 in out:
            out[0][lo:hi] = x
        for t in range(horizon):
            vol = np.exp(z[:, t])
            x = p.gamma * x + vol * (p.rho * blk_eta[:, p.lag + 1 + t] + root * blk_eps[:, t])
            if t + 1 in out:
                out[t + 1][lo:hi] = x
    return out
