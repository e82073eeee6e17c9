"""Backward-composition couplings, coupling bounds, and block schedules.

Orbits of different depths share one table of uniform pairs: entry ``i`` of
a sequence drives the step at backward time ``-i``, so the depth-t and
depth-s compositions consume identical randomness on their common suffix
and coalesce exactly when the split mapping's regeneration branch fires
while both orbits sit inside the active small set.  That set is the kernel's
own (``SplitKernel.in_small_set``): in a random environment the kernel is
frozen at each step's environment values, so the set is joint.  One engine,
``_coupled_batch``, steps every coupling.  It takes its kernel as a function
``kernel_at(env_rows) -> SplitKernel`` of the step's environment rows: a
constant one for a plain chain (``coupled_pair_batch``), or the model's
frozen kernel in a random environment (``mcre_coupled_chains_batch``).  It
returns a numpy record array with one record per replica: ``coupled``,
``couple_step`` (-1 for never), ``codes`` (0/1/2 = A/B/C per recorded step)
and ``final`` (the two final states).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import ScheduleError
from .kernels import SplitKernel, split_apply_batch

_LN2 = math.log(2.0)
_N_CAP = 2**20  # a schedule's ladder index search stops past this
_THREE_SIGMA_TAIL = 0.00135  # the one-sided normal tail at 3 sigma, Phi(-3)


@dataclass(frozen=True)
class BlockSchedule:
    """Ladder indices and block lengths guaranteeing per-block failure 2^-m.

    Block m (1-based) runs the split mapping at ladder index ``n_of_m[m-1]``
    for ``N_of_m[m-1]`` steps; ``M_of_m[m]`` is the cumulative boundary with
    ``M_of_m[0] = 0``.
    """

    n_of_m: tuple[int, ...]
    N_of_m: tuple[int, ...]
    M_of_m: tuple[int, ...]
    alphas: tuple[float, ...]
    tails: tuple[float, ...]

    def __post_init__(self) -> None:
        m_max = len(self.n_of_m)
        if not (len(self.N_of_m) == len(self.alphas) == len(self.tails) == m_max):
            raise ValueError("schedule fields must have one entry per block")
        if len(self.M_of_m) != m_max + 1 or self.M_of_m[0] != 0:
            raise ValueError("M_of_m must start at 0 and have m_max+1 entries")
        for m in range(1, m_max + 1):
            if self.M_of_m[m] != self.M_of_m[m - 1] + self.N_of_m[m - 1]:
                raise ValueError("M_of_m must accumulate the block lengths")
            target = -m * _LN2
            a = self.alphas[m - 1]
            if self.tails[m - 1] > 2.0 ** -m:
                raise ValueError(f"block {m}: tail exceeds 2^-{m}")
            if a < 1.0 and self.N_of_m[m - 1] * math.log1p(-a) > target * (1.0 - 1e-12):
                raise ValueError(f"block {m}: (1-alpha)^N exceeds 2^-{m}")


def _as_uniform_table(u_seq, need: int) -> np.ndarray:
    u = np.asarray(u_seq, float)
    if u.ndim != 3 or u.shape[2] != 2:
        raise ValueError("uniform sequence must have shape (replicas, steps, 2)")
    if u.shape[1] < need:
        raise ValueError(f"uniform sequence too short: {u.shape[1]} < {need}")
    return u


def coupling_lower_bound(alpha: float, s: int, eps: float) -> float:
    """Analytic lower bound (1 - 2 eps)(1 - (1 - alpha)^s) on coalescence.

    ``eps`` must upper-bound the worst-case probability of leaving the small
    set; it is supplied by the caller (e.g. from a Markov/Chebyshev tail
    bound) so the bound stays one-sided.
    """
    if not 0.0 < alpha <= 1.0:
        raise ValueError("alpha must lie in (0, 1]")
    if not 0.0 <= eps <= 0.5:
        raise ValueError("eps must lie in [0, 1/2]")
    if s < 1:
        raise ValueError("s must be at least 1")
    return max((1.0 - 2.0 * eps) * (1.0 - (1.0 - alpha) ** s), 0.0)


def tv_upper_from_coupling(coupled) -> tuple[float, float]:
    """Total-variation upper bound 2 P(no coalescence) with a 3-sigma half width.

    ``coupled`` holds one bool per replica.  The half width is twice the
    larger of the Wald width 3 se on the failure fraction and the exact
    one-sided Clopper-Pearson bound at zero failures, ``1 - 0.00135^(1/n)``:
    Wald's width is 0 when every replica couples, where the exact one stays
    positive (6.6e-4 at 10,000 replicas).
    """
    coupled = np.asarray(coupled, bool)
    if coupled.size == 0:
        raise ValueError("need at least one replica")
    reps = coupled.size
    fails = reps - int(np.count_nonzero(coupled))
    frac = fails / reps
    se = math.sqrt(frac * (1.0 - frac) / reps)
    return 2.0 * frac, max(2.0 * 3.0 * se, 2.0 * (1.0 - _THREE_SIGMA_TAIL ** (1.0 / reps)))


def _smallest_n(tail: Callable[[int], float], target: float) -> int:
    """The smallest n >= 1 with ``tail(n) <= target``: doubling, then bisection."""
    lo, hi = 0, 1  # tail(lo) > target throughout, once lo >= 1
    while tail(hi) > target:
        lo, hi = hi, 2 * hi
        if hi > _N_CAP:
            raise ScheduleError(f"tail never reaches {target} below n = {_N_CAP}")
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if tail(mid) <= target:
            hi = mid
        else:
            lo = mid
    return hi


def _smallest_block_length(alpha: float, m: int) -> int:
    if alpha >= 1.0:
        return 1
    rate = -math.log1p(-alpha)
    if rate <= 0.0:
        raise ScheduleError(f"alpha = {alpha} too small to define a block length")
    raw = m * _LN2 / rate
    if not math.isfinite(raw):
        raise ScheduleError(f"block length for alpha = {alpha} overflows")
    n_steps = int(math.ceil(raw))
    if n_steps < 2**52:  # adjust ceil rounding only where float arithmetic is exact enough
        while n_steps > 1 and (n_steps - 1) * rate >= m * _LN2:
            n_steps -= 1
        while n_steps * rate < m * _LN2:
            n_steps += 1
    return max(n_steps, 1)


def block_schedule(
    tail: Callable[[int], float], alpha: Callable[[int], float], m_max: int
) -> BlockSchedule:
    """Derive the block schedule from a tail bound and minorization weights.

    For each block m, ``n_of_m`` is the smallest index n >= 1 with
    ``tail(n) <= 2^-m`` (a ``ScheduleError`` past n = 2^20) and ``N_of_m``
    the smallest length with ``(1 - alpha(n))^N <= 2^-m``.  ``tail`` must be
    nonincreasing with limit 0 and ``alpha`` must return values in (0, 1].
    """
    if m_max < 0:
        raise ValueError("m_max must be nonnegative")
    n_list: list[int] = []
    len_list: list[int] = []
    m_bounds = [0]
    a_list: list[float] = []
    t_list: list[float] = []
    for m in range(1, m_max + 1):
        target = 2.0 ** -m
        n = _smallest_n(tail, target)
        a = float(alpha(n))
        if not 0.0 < a <= 1.0:
            raise ScheduleError(
                f"alpha({n}) = {a!r} is outside (0, 1]; no finite block length exists"
            )
        n_steps = _smallest_block_length(a, m)
        n_list.append(n)
        len_list.append(n_steps)
        m_bounds.append(m_bounds[-1] + n_steps)
        a_list.append(a)
        t_list.append(float(tail(n)))
    return BlockSchedule(
        n_of_m=tuple(n_list),
        N_of_m=tuple(len_list),
        M_of_m=tuple(m_bounds),
        alphas=tuple(a_list),
        tails=tuple(t_list),
    )


def _coupling_records(codes: np.ndarray, v: np.ndarray, w: np.ndarray) -> np.recarray:
    """One record per replica from its event codes and final states.

    ``codes`` holds one entry per recorded step, in chronological order
    (deepest shared step first): 0 = A, orbits equal; 1 = B, unequal but
    both in the active small set (and the environment in its small set);
    2 = C, otherwise.  ``couple_step`` is the position of the first A, or -1
    if the orbits never coalesced.
    """
    met = codes == 0
    if np.any(met[:, :-1] & ~met[:, 1:]):
        raise ValueError("coalescence must be absorbing: A followed by non-A")
    coupled = met[:, -1]
    return np.rec.fromarrays(
        [coupled, np.where(coupled, met.argmax(axis=1), -1), codes, np.stack([v, w], axis=1)],
        dtype=[("coupled", bool), ("couple_step", np.int64),
               ("codes", np.int8, codes.shape[1:]), ("final", float, (2,))],
    )


def _coupled_batch(
    kernel_at: Callable[[np.ndarray], SplitKernel], env_batch: np.ndarray, x_v0: float,
    x_w0: float, depth_w: int, t: int, u_table: np.ndarray, ladder_index: Sequence[int],
) -> np.recarray:
    """The coupling engine: step two orbits on shared uniforms and classify.

    The v orbit runs all t forward steps; the w orbit joins for the last
    ``depth_w`` of them.  The step consuming the uniform at backward index
    j uses ladder index ``ladder_index[j]``, checked where the kernel uses
    it.  ``env_batch`` has shape (replicas, t+1, components); row ``k-1``
    enters forward step k, whose kernel is ``kernel_at`` of the step's
    (elements, components) rows, and the final row tags the terminal event.
    """
    if t < 1:
        raise ValueError("t must be at least 1")
    u = _as_uniform_table(u_table, t)
    reps = u.shape[0]
    env_batch = np.asarray(env_batch, float)
    if env_batch.ndim != 3 or env_batch.shape[0] != reps or env_batch.shape[1] < t + 1:
        raise ValueError("environment batch must cover (replicas, t+1, components)")

    v = np.full(reps, float(x_v0))
    w = np.full(reps, float(x_w0))
    codes = np.zeros((reps, depth_w + 1), np.int8)  # A unless classified B or C
    for k in range(1, t + 2):
        jprime = t - k  # backward index of the uniform consumed by this step; -1 ends
        n = ladder_index[max(jprime, 0)]
        env_row = env_batch[:, k - 1]
        if jprime >= depth_w:
            v = split_apply_batch(kernel_at(env_row), n, v, u[:, jprime, 0], u[:, jprime, 1])
            continue
        # A coalesced w equals v and would take v's step bit for bit (each
        # element is inverted on its own), so w is stepped where it differs.
        live = np.flatnonzero(v != w)
        rows = np.concatenate([np.arange(reps), live])  # replica of each element
        vw = np.concatenate([v, w[live]])
        # take() gathers from the strided column about 3x faster than env_row[rows].
        kernel = kernel_at(env_row.take(rows, axis=0))
        in_set = kernel.in_small_set(vw, n)  # of every v, then of each live w
        codes[live, depth_w - 1 - jprime] = np.where(in_set[live] & in_set[reps:], 1, 2)
        if jprime < 0:
            break
        u1, u2 = u[:, jprime, 0], u[:, jprime, 1]
        out = split_apply_batch(kernel, n, vw, u1[rows], u2[rows], in_set=in_set)
        v = out[:reps]
        w = v.copy()
        w[live] = out[reps:]
    return _coupling_records(codes, v, w)


def engine_step_bytes(replicas: int) -> int:
    """Bytes a step of ``_coupled_batch`` holds beside its tables: about 40
    arrays of its up to ``2 * replicas`` elements (each replica's v, and w
    where it differs), for the gathered uniforms and environment rows, the
    frozen kernel and the inversion's pieces and Newton iterates."""
    return 40 * 8 * 2 * replicas


def coupled_pair_batch(
    kernel: SplitKernel, n: int, x0: float, s: int, t: int, u_table: np.ndarray
) -> np.recarray:
    """Couple the depth-t and depth-s backward orbits, one replica per row of
    ``u_table``.

    Steps are classified chronologically from the deepest shared index down
    to the present; once the orbits coalesce they stay equal bit-for-bit,
    because every later step applies the identical deterministic map.
    ``s == t`` runs one orbit: ``final[:, 0]`` is the depth-t backward
    composition, distributed as the forward t-step law from ``x0``.
    """
    if not 1 <= s <= t:
        raise ValueError("need 1 <= s <= t")
    reps = _as_uniform_table(u_table, t).shape[0]
    return _coupled_batch(
        lambda env: kernel, np.empty((reps, t + 1, 0)), x0, x0, s, t, u_table, [n] * t
    )


def _schedule_ladder_index(schedule: BlockSchedule, t: int) -> list[int]:
    """Ladder index of the block of each of the first t backward uniform indices."""
    if t > schedule.M_of_m[-1]:
        raise ValueError(f"t = {t} runs past the schedule's end, {schedule.M_of_m[-1]}")
    index = [n for n, length in zip(schedule.n_of_m, schedule.N_of_m)
             for _ in range(min(length, t))]
    return index[:t]


def mcre_coupled_chains_batch(
    kernel_at: Callable[[np.ndarray], SplitKernel], env_batch: np.ndarray,
    x0_pair: tuple[float, float], schedule: BlockSchedule, t: int, u_table: np.ndarray,
) -> np.recarray:
    """Couple two depth-t chains from distinct starts, one replica per row of
    ``env_batch`` (its (t+1, components) environment window) and ``u_table``.

    Each step uses the ladder index of its block and the kernel
    ``kernel_at(env_rows)`` frozen at its environment, whose small set is
    joint in state and environment.  The environment row consumed by a step
    is the same row whose small-set membership licenses the preceding B tag;
    this pairing is what makes the regeneration branch fire with the full
    block weight.
    """
    return _coupled_batch(
        kernel_at, env_batch, x0_pair[0], x0_pair[1], t, t, u_table,
        _schedule_ladder_index(schedule, t),
    )
