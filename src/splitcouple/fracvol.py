"""Euler simulation of a log-price SDE with stationary log-Gaussian volatility.

The log-price solves
``dL = (zeta(L) - V^2/2) dt + rho V dB + sqrt(1 - rho^2) V dW``
with ``V = exp(J)`` and ``J`` a moving average of the increments of the same
Brownian motion B against a square-integrable kernel.  Stationarity of the
volatility is approximated by a finite-history convolution over a burn-in
window, through the plan ``streams.ma_plan`` picks: a blocked recursive scan
for an exponential kernel, whose taps are geometric (``VolatilityKernel.rate``),
and an FFT for a fractional one.  Dissipativity of the drift is certified on
a grid.  The left-point Euler step splits into the state's drift
``zeta(L) dt`` and a part that does not depend on the state,
``q = V (rho dB + sqrt(1 - rho^2) dW) - V^2/2 dt``,
which is computed once per replica and step, before any state is stepped.
Each chunk's ``q`` is built by ``_WORKERS`` threads, each drawing and
convolving its own contiguous range of the chunk's replicas into its own
columns; numpy's draws, transforms, scans and ufuncs release the GIL, so the
workers share the machine's CPUs, and every operation is per replica, so
the split cannot change a bit.  The Euler loop then runs on one thread.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import RunError
from .streams import ConvPlan, ScanPlan, ma_plan, ma_plan_row_bytes, replica_blocks

RESOURCE_CAP = 2_000_000_000  # replica-steps per ensemble call
_DEFAULT_CHUNK = 1024  # most replicas stepped together (memory: ensemble_working_bytes)
_WORKERS = 2  # threads that build a chunk's q, each over its own replica range
_BLOCK_ROWS = 16  # replicas one worker draws and convolves together
_DISS_GRID_HALFWIDTH = 50.0  # the drift's declared constants are certified on [-50, 50]


@dataclass(frozen=True)
class VolatilityKernel:
    """Convolution kernel for the log-volatility moving average.

    ``exponential`` kernels decay as exp(-lam u); ``fractional`` kernels are
    sqrt(2 h) u^(h - 1/2) cut off at a finite memory (an uncut power kernel
    is not square integrable over the half line): the full burn-in window
    for exponential kernels, a tenth of it for fractional ones.
    """

    kind: str
    lam: float = 0.0
    h: float = 0.0
    scale: float = 1.0

    def __post_init__(self) -> None:
        if self.kind not in ("exponential", "fractional"):
            raise ValueError("kind must be 'exponential' or 'fractional'")
        if self.kind == "exponential" and self.lam <= 0.0:
            raise ValueError("exponential kernel needs lam > 0")
        if self.kind == "fractional" and not 0.0 < self.h < 1.0:
            raise ValueError("fractional kernel needs h in (0, 1)")
        if self.scale < 0.0:
            raise ValueError("scale must be nonnegative (zero disables the volatility)")

    def rate(self, dt: float) -> float | None:
        """Decay a ``dt`` step of an exponential kernel's taps (the scan's); None if fractional."""
        return self.lam * dt if self.kind == "exponential" else None

    def resolved_memory(self, burn_in: float) -> float:
        return burn_in if self.kind == "exponential" else burn_in / 10.0

    def memory_scale(self, burn_in: float) -> float:
        """Characteristic time after which the kernel's energy is spent."""
        if self.kind == "exponential":
            return 1.0 / self.lam
        return 0.99 ** (1.0 / (2.0 * self.h)) * self.resolved_memory(burn_in)

    def values(self, u: np.ndarray, burn_in: float) -> np.ndarray:
        u = np.asarray(u, float)
        mem = self.resolved_memory(burn_in)
        if self.kind == "exponential":
            out = self.scale * np.exp(-self.lam * u)
        else:
            out = np.zeros_like(u)
            pos = u > 0.0
            out[pos] = self.scale * math.sqrt(2.0 * self.h) * u[pos] ** (self.h - 0.5)
        return np.where(u <= mem, out, 0.0)


@dataclass(frozen=True)
class DriftSpec:
    """Drift callable with its declared growth, dissipativity and Lipschitz constants.

    ``growth_k`` must satisfy zeta(x)^2 <= growth_k (x^2 + 1); ``diss_alpha``
    and ``diss_beta`` must satisfy x zeta(x) <= -diss_alpha x^2 + diss_beta;
    ``lipschitz`` must satisfy |zeta(x) - zeta(y)| <= lipschitz |x - y|, and
    bounds the Euler step size ``config`` accepts.  Every declaration is
    grid-certified when the parameters are built.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    growth_k: float
    diss_alpha: float
    diss_beta: float
    lipschitz: float

    def __post_init__(self) -> None:
        # zeta^2 <= growth_k (x^2 + 1) is certified on the grid, so both sides must stay finite
        if not math.isfinite(self.growth_k * (_DISS_GRID_HALFWIDTH**2 + 1.0)):
            raise ValueError(f"{self.name}: the growth constant overflows on the grid "
                             f"[-{_DISS_GRID_HALFWIDTH:g}, {_DISS_GRID_HALFWIDTH:g}]")


def linear_drift(kappa: float = 1.0) -> DriftSpec:
    if kappa <= 0.0:
        raise ValueError("kappa must be positive")
    return DriftSpec(
        name=f"linear({kappa:g})",
        fn=lambda x: -kappa * np.asarray(x, float),
        growth_k=kappa**2,
        diss_alpha=kappa,
        diss_beta=1e-6,
        lipschitz=kappa,
    )


def saturating_drift(kappa: float = 1.0, a: float = 1.0) -> DriftSpec:
    if kappa <= 0.0 or a < 0.0:
        raise ValueError("need kappa > 0 and a >= 0")
    return DriftSpec(
        name=f"saturating({kappa:g},{a:g})",
        fn=lambda x: -kappa * np.asarray(x, float) + a * np.sin(np.asarray(x, float)),
        growth_k=2.0 * max(kappa**2, a**2),
        diss_alpha=kappa / 2.0,
        diss_beta=a**2 / (2.0 * kappa) if a > 0.0 else 1e-6,
        lipschitz=kappa + a,
    )


def dissipativity_check(zeta, alpha: float, beta: float, grid) -> float:
    """Grid slack of x zeta(x) <= -alpha x^2 + beta; nonnegative certifies."""
    x = np.asarray(grid, float)
    if x.size == 0:
        raise ValueError("grid must be nonempty")
    return float(np.min(-alpha * x * x + beta - x * zeta(x)))


@dataclass(frozen=True)
class SdeParams:
    zeta: DriftSpec
    kernel: VolatilityKernel
    rho: float = 0.0
    dt: float = 1.0 / 256.0
    horizon: float = 20.0
    burn_in: float = 10.0

    def __post_init__(self) -> None:
        # each refusal starts with the name of the field it refuses
        if not self.dt > 0.0:
            raise ValueError(f"dt must be positive, got {self.dt:g}")
        if not self.horizon >= self.dt:
            raise ValueError(f"horizon {self.horizon:g} is shorter than one step dt = {self.dt:g}")
        if not self.burn_in > 0.0:
            raise ValueError(f"burn_in must be positive, got {self.burn_in:g}")
        if not -1.0 < self.rho < 1.0:
            raise ValueError("rho must lie in (-1, 1)")
        scale_time = self.kernel.memory_scale(self.burn_in)
        if self.burn_in < 10.0 * scale_time - 1e-9:
            raise ValueError(
                f"burn_in {self.burn_in} shorter than 10x kernel memory scale {scale_time}"
            )
        grid = np.linspace(-_DISS_GRID_HALFWIDTH, _DISS_GRID_HALFWIDTH, 2001)
        margin = dissipativity_check(
            self.zeta.fn, self.zeta.diss_alpha, self.zeta.diss_beta, grid
        )
        if margin < 0.0:
            raise ValueError(f"zeta fails its declared dissipativity on the grid "
                             f"(margin {margin:.3e})")
        values = self.zeta.fn(grid)
        growth = np.max(values**2 - self.zeta.growth_k * (grid**2 + 1.0))
        if growth > 0.0:
            raise ValueError("zeta fails its declared growth constant on the grid")
        # a difference quotient of a linear drift rounds off its slope by ~1e-13
        slope = np.max(np.abs(np.diff(values)) / np.diff(grid))
        if slope > self.zeta.lipschitz * (1.0 + 1e-9):
            raise ValueError("zeta fails its declared Lipschitz constant on the grid")

    def step_of(self, t: float) -> int:
        """The Euler grid step nearest time ``t``: the one rule that snaps a time to the grid."""
        return int(round(t / self.dt))

    @property
    def horizon_steps(self) -> int:
        return self.step_of(self.horizon)

    @property
    def burn_steps(self) -> int:
        return self.step_of(self.burn_in)


def _kernel_taps(kernel: VolatilityKernel, dt: float, burn_in: float) -> np.ndarray:
    m = int(round(burn_in / dt))
    return kernel.values(dt * np.arange(1, m + 1), burn_in)


def discrete_log_vol_variance(p: SdeParams) -> float:
    """Exact variance of the discrete moving average J (Ito isometry)."""
    taps = _kernel_taps(p.kernel, p.dt, p.burn_in)
    return float(np.sum(taps * taps) * p.dt)


def _volatility_paths(plan: ConvPlan | ScanPlan, db: np.ndarray) -> np.ndarray:
    """Volatility exp(J) of each row of Brownian increments, in ``plan``'s
    buffer until its next call: J at a grid point after the burn-in window is
    the left-point convolution of the kernel taps with the window's increments,
    so a row of ``n`` increments gives ``n - burn_steps + 1`` values."""
    j = plan(db)
    return np.exp(j, out=j)


def euler_step(p: SdeParams, L, q):
    """One explicit Euler step ``L + zeta(L) dt + q``, in place for an array
    ``L``; ``q`` is the step's state-free part (see the module docstring)."""
    drift = p.zeta.fn(L)
    drift *= p.dt
    L += drift
    L += q
    return L


def _chunk_sizes(replicas: int) -> tuple[int, int]:
    """Replicas in the largest chunk ``_chunk_cuts`` makes of ``replicas``, and
    rows in a worker's block."""
    chunk = -(-replicas // -(-replicas // _DEFAULT_CHUNK))
    return chunk, min(-(-chunk // _WORKERS), _BLOCK_ROWS)


def _chunk_cuts(replicas: int) -> list[int]:
    """Bounds of the fewest chunks of at most ``_DEFAULT_CHUNK`` replicas, whose
    sizes differ by at most one: 2,000 replicas step as two chunks of 1,000."""
    n = -(-replicas // _DEFAULT_CHUNK)
    return [replicas * c // n for c in range(n + 1)]


def ensemble_working_bytes(p: SdeParams, replicas: int) -> int:
    """Bytes ``simulate_ensemble`` holds beside its samples: a chunk's q series (a float a
    replica-step); per worker a block's draws and plan (``streams.ma_plan_row_bytes``) and
    four rows more for the plan's spectrum or weights and the transform's scratch."""
    h, n_inc = p.horizon_steps, p.burn_steps + p.horizon_steps
    chunk, rows = _chunk_sizes(replicas)
    per_row = 8 * (n_inc + h) + ma_plan_row_bytes(p.burn_steps, n_inc, p.kernel.rate(p.dt))
    return 8 * h * chunk + _WORKERS * (rows + 4) * per_row


def _fill_noise(p: SdeParams, seed: int, plan: ConvPlan | ScanPlan, layout: list,
                q: np.ndarray, lo: int, replicas: range) -> None:
    """Write the state-free part of every step of ``replicas`` into their
    columns of the chunk series ``q``, whose first column is replica ``lo``.

    Blocks of ``_BLOCK_ROWS`` replicas are drawn and convolved row-major and
    ``q`` is built in the block's own rows, each operation over contiguous
    rows; one transposed copy then writes it in ``q``'s time-major
    (steps, rows) order.
    """
    h_steps, b_steps = p.horizon_steps, p.burn_steps
    sqrt_dt = math.sqrt(p.dt)
    for a, z, (blk_db, blk_dw) in replica_blocks(seed, replicas, _BLOCK_ROWS, layout):
        blk_db *= sqrt_dt  # in place and elementwise: bit-identical to scaling each draw
        vol = _volatility_paths(plan, blk_db)[:, :h_steps]
        noise = blk_db[:, b_steps:]  # becomes V (rho dB + sqrt(1 - rho^2) dW)
        noise *= p.rho
        blk_dw *= sqrt_dt * math.sqrt(1.0 - p.rho * p.rho)
        noise += blk_dw
        noise *= vol
        np.square(vol, out=vol)  # becomes V^2/2 dt
        vol *= p.dt / 2.0
        noise -= vol  # becomes q
        q[:, a - lo : z - lo] = noise.T


def simulate_ensemble(
    p: SdeParams,
    l0_list,
    replicas: int,
    steps,
    seed: int,
) -> np.ndarray:
    """Replica paths from each initial state, recorded after each of ``steps``,
    increasing grid steps in ``[0, horizon_steps]``: an array of shape
    ``(states, len(steps), replicas)``.

    Replica ``k`` owns stream ``k`` of ``seed``: the volatility/price
    increments dB, then the orthogonal increments dW.  Each replica's history
    is drawn and convolved once into the state-free part ``q`` of every step,
    which drives every initial state and sharpens ensemble comparisons.
    Replicas are stepped in the fewest chunks of at most ``_DEFAULT_CHUNK``,
    whose sizes differ by at most one, and the q series is sized to the
    largest: 10,000 replicas step as ten chunks of 1,000.  Each chunk's range
    is cut into ``_WORKERS`` contiguous parts, and one thread per part draws and
    convolves it ``_BLOCK_ROWS`` replicas at a time, through its own plan,
    into its own columns of ``q``; then the chunk is stepped.  These sizes
    bound memory (``ensemble_working_bytes``), and every operation is per
    replica, so they cannot change the results.  A worker's exception is
    raised here, after every worker has stopped.
    """
    l0 = np.array([float(v) for v in l0_list])[:, None]
    if l0.size == 0 or replicas < 1:
        raise ValueError("need at least one initial state and one replica")
    h_steps = p.horizon_steps
    n_inc = p.burn_steps + h_steps
    if replicas * n_inc > RESOURCE_CAP:
        raise RunError(
            f"ensemble needs {replicas * n_inc:.3g} replica-steps, "
            f"over the cap {RESOURCE_CAP:.3g}"
        )
    steps = np.asarray(steps)
    if (steps.ndim != 1 or steps.size == 0 or steps.dtype.kind not in "iu"
            or np.any(steps[1:] <= steps[:-1]) or steps[0] < 0 or steps[-1] > h_steps):
        raise ValueError(f"steps must be increasing grid steps in [0, {h_steps}], "
                         f"got {steps.tolist()}")
    col = {int(s): j for j, s in enumerate(steps)}  # step -> its column of the samples
    out = np.empty((l0.size, steps.size, replicas))

    # Buffers are allocated once and refilled for every chunk, so no pass
    # maps and faults in fresh memory: the chunk's time-major q series and
    # each worker's scan or transform buffers.
    chunk, plan_rows = _chunk_sizes(replicas)
    series = np.empty(h_steps * chunk)
    taps = _kernel_taps(p.kernel, p.dt, p.burn_in)
    plans = [ma_plan(taps, plan_rows, n_inc, p.kernel.rate(p.dt)) for _ in range(_WORKERS)]
    layout = [(np.random.Generator.standard_normal, (n,)) for n in (n_inc, h_steps)]

    chunk_cuts = _chunk_cuts(replicas)
    with ThreadPoolExecutor(_WORKERS) as pool:
        for lo, hi in zip(chunk_cuts, chunk_cuts[1:]):
            rows = hi - lo
            q = series[: h_steps * rows].reshape(h_steps, rows)
            cuts = [lo + rows * w // _WORKERS for w in range(_WORKERS + 1)]
            jobs = [
                pool.submit(_fill_noise, p, seed, plan, layout, q, lo, range(a, z))
                for plan, a, z in zip(plans, cuts, cuts[1:])
            ]
            for job in jobs:
                job.result()
            # The states step together; each step's row of q broadcasts over them.
            l = np.repeat(l0, rows, axis=1)
            if 0 in col:
                out[:, col[0], lo:hi] = l
            for step in range(h_steps):
                l = euler_step(p, l, q[step])
                if step + 1 in col:
                    out[:, col[step + 1], lo:hi] = l
    return out


@dataclass(frozen=True)
class IncrementConstants:
    growth_k: float
    l_tilde: float
    ev2: float
    ev4: float


def increment_constants(p: SdeParams, l_tilde: float) -> IncrementConstants:
    """Bound constants from the drift declaration and the log-normal moments."""
    s2 = discrete_log_vol_variance(p)
    return IncrementConstants(
        growth_k=p.zeta.growth_k,
        l_tilde=float(l_tilde),
        ev2=math.exp(2.0 * s2),
        ev4=math.exp(8.0 * s2),
    )


@dataclass(frozen=True)
class IncrementCheck:
    passed: bool
    empirical: float
    bound: float
    se: float


def increment_moment_check(
    samples_t: np.ndarray, samples_th: np.ndarray, h: float, constants: IncrementConstants
) -> IncrementCheck:
    """Second-moment test of the increment over a lag h against
    ``6 h^2 (K L~ + K + E[V^4]/4) + 6 h E[V^2]`` plus four standard errors.

    Both sample vectors must come from the same paths.
    """
    a = np.asarray(samples_t, float)
    b = np.asarray(samples_th, float)
    if a.shape != b.shape or a.ndim != 1 or a.size == 0:
        raise ValueError("need paired nonempty sample vectors")
    if h < 0.0:
        raise ValueError("h must be nonnegative")
    sq = (b - a) ** 2
    emp = float(sq.mean())
    se = float(sq.std(ddof=1) / math.sqrt(sq.size)) if sq.size > 1 else 0.0
    k = constants.growth_k
    bound = 6.0 * h * h * (k * constants.l_tilde + k + constants.ev4 / 4.0)
    bound += 6.0 * h * constants.ev2
    return IncrementCheck(passed=emp <= bound + 4.0 * se, empirical=emp, bound=bound, se=se)
