"""Minorized transition kernels and their split random-mapping realization.

A one-step kernel ``Q(x, .)`` that dominates ``alpha_n * nu`` on each small
set ``X_n = [-n, n]`` (with ``nu`` uniform on [-1, 1]) can be written as
a deterministic map of a pair of uniforms: with probability ``alpha_n`` the
map regenerates from ``nu`` and is constant in ``x`` on the small set,
otherwise it inverts the residual law ``(Q - alpha_n * nu) / (1 - alpha_n)``.
Off the small set the full conditional CDF is inverted and the first uniform
is ignored.  All branches are driven by the same ``(u1, u2)`` pair, so two
states sharing the pair coalesce exactly when the regeneration branch fires.

A kernel frozen at an environment value carries it, and its minorization
holds only while the environment lies in the small set too:
``SplitKernel.in_small_set``, the state and every environment component
within n, is the one membership rule, and ``split_apply_batch``'s default.

Every kernel is a location-scale family of the standard normal law, with
CDF ``Phi``: the residual CDF is ``Phi / (1 - alpha_n)`` below ``z = -1``
and ``(Phi - alpha_n) / (1 - alpha_n)`` above ``z = 1``.  Both tails invert
in closed form through the normal quantile, and only the piece on [-1, 1]
is solved iteratively, by a safeguarded Newton iteration.

Each model's ladder weights come from its closed form; the grid
certificates that check them are test oracles (``tests/oracles.py``), which
no run reaches.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from scipy.special import ndtr, ndtri

from .errors import CertificationError

_NEWTON_MAX_ITER = 200
# A Newton step this small ends an element's iteration; a bisection step ends
# it once the bracket is twice this wide.
_NEWTON_TOL = 2.0**-46

_INV_SQRT_2PI = 1.0 / math.sqrt(2.0 * math.pi)


def normal_pdf(x):
    """Standard normal density."""
    return np.exp(-0.5 * np.asarray(x, float) ** 2) * _INV_SQRT_2PI


@dataclass(frozen=True)
class SmallSetLadder:
    """Minorization weights of the growing small sets [-n, n], n = 0, 1, ...

    ``alphas[n]``, in (0, 1] and nonincreasing in n, is the weight on the
    n-th set.  The shared minorizing measure is the uniform law on [-1, 1].
    """

    alphas: tuple[float, ...]

    def __post_init__(self) -> None:
        if not self.alphas:
            raise ValueError("ladder needs nonempty alphas")
        a = np.asarray(self.alphas, float)
        if np.any(a <= 0.0) or np.any(a > 1.0):
            raise ValueError("alphas must lie in (0, 1]")
        if np.any(np.diff(a) > 0.0):
            raise ValueError("alphas must be nonincreasing")

    @property
    def radii(self) -> tuple[float, ...]:
        """Half-width n of each set [-n, n]."""
        return tuple(float(n) for n in range(len(self.alphas)))

    def check_index(self, n: int) -> int:
        n = int(n)
        if not 0 <= n < len(self.alphas):
            raise ValueError(f"ladder index {n} outside 0..{len(self.alphas) - 1}")
        return n


@dataclass(frozen=True)
class SplitKernel:
    """One-step transition law packaged with its small-set ladder.

    ``mean`` and ``stdev`` map a state array ``x`` to the exact location and
    scale of the normal law of the next state, so CDF inversions are
    closed-form except on [-1, 1].  ``cdf`` maps broadcastable arrays
    ``(x, z)`` to that law's CDF at ``z``, ``ndtr((z - mean(x)) / stdev(x))``;
    the inversion reads ``mean`` and ``stdev``, never ``cdf``.

    ``env`` holds the environment components the kernel was frozen at, each a
    scalar or an array aligned with the states (none for a kernel without an
    environment); ``in_small_set`` tests them with the state.
    """

    cdf: Callable[[np.ndarray, np.ndarray], np.ndarray]
    ladder: SmallSetLadder
    mean: Callable[[np.ndarray], np.ndarray]
    stdev: Callable[[np.ndarray], np.ndarray]
    env: tuple[np.ndarray, ...] = ()

    def in_small_set(self, x, n: int) -> np.ndarray:
        """Whether ``|x| <= n`` and every environment component is within n."""
        b = float(self.ladder.check_index(n))
        inside = np.abs(x) <= b
        for component in self.env:
            inside = inside & (np.abs(component) <= b)
        return inside


def _newton_middle(m, s, a, t, z):
    """Solve ndtr((z - m) / s) - a (z + 1) / 2 = t for z in [-1, 1].

    The left side increases on [-1, 1] where the minorization holds and
    brackets t there.  The start ``z`` solves the equation with z frozen at 0
    in the linear term, clipped to [-1, 1].  Newton steps that leave the
    bracket or fail to halve the previous step are replaced by bisection
    steps.  Each element stops on its own, so a value is independent of what
    else shares the batch; finished elements leave it only on iterations
    where some stopped.
    """
    out = np.empty_like(t)
    idx = np.arange(t.size)
    half_a = 0.5 * a  # 0.5 * a * (z + 1.0) multiplies left first: the same bits
    lo = np.full_like(t, -1.0)
    hi = np.ones_like(t)
    step = np.full_like(t, 2.0)
    for _ in range(_NEWTON_MAX_ITER):
        w = (z - m) / s
        h = ndtr(w) - half_a * (z + 1.0) - t
        slope = normal_pdf(w) / s - half_a
        np.putmask(lo, h < 0.0, z)
        np.putmask(hi, h > 0.0, z)
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            newton = z - h / slope
        take = (lo <= newton) & (newton <= hi) & (np.abs(2.0 * h) <= np.abs(step * slope))
        step = 0.5 * (hi - lo)
        np.putmask(step, take, newton - z)
        zero = h == 0.0
        z_next = 0.5 * (lo + hi)
        np.putmask(z_next, take, newton)
        np.putmask(z_next, zero, z)
        z = z_next
        done = zero | (np.abs(step) <= _NEWTON_TOL)
        if not done.any():
            continue
        fin = np.flatnonzero(done)
        out[idx[fin]] = z[fin]
        if fin.size == z.size:
            return out
        keep = np.flatnonzero(~done)
        idx, m, s, half_a, t = idx[keep], m[keep], s[keep], half_a[keep], t[keep]
        lo, hi, z, step = lo[keep], hi[keep], z[keep], step[keep]
    raise CertificationError(
        f"residual CDF inversion on [-1, 1] did not converge in {_NEWTON_MAX_ITER} "
        f"Newton steps for {idx.size} elements"
    )


def _closed_form_inverse(m, s, u, a):
    """Invert the residual CDF of a location-scale kernel, piece by piece.

    One pass sorts every element into a piece, and one quantile call serves
    all of them: the lower tail at ``t``, the upper tail at ``tail`` and the
    middle piece at its Newton start.  An element with ``a == 0`` inverts the
    full conditional law; its ``t`` is ``u`` itself, so it takes the lower
    tail's formula whatever its mass below -1.
    """
    f_lo = ndtr((-1.0 - m) / s)  # kernel mass below -1
    sf_hi = ndtr((m - 1.0) / s)  # kernel mass above 1, by symmetry
    off = a == 0.0
    if np.any((1.0 - sf_hi - a < f_lo) & ~off):
        raise CertificationError(
            "the residual law is not a distribution: alpha exceeds the kernel's "
            "mass on [-1, 1] (minorization violated?)"
        )
    rest = 1.0 - a
    t = u * rest  # residual mass below z, before dividing by 1 - a
    tail = (1.0 - u) * rest  # residual mass above z
    below = off | (t <= f_lo)
    above = ~below & (tail <= sf_hi)
    middle = ~(below | above)
    q = np.where(above, tail, t)
    np.putmask(q, middle, t + 0.5 * a)  # the Newton start's quantile argument
    sp = s * ndtri(q)
    out = m + sp
    np.putmask(out, above, m - sp)
    mid = np.flatnonzero(middle)
    if mid.size:
        start = np.clip(out[mid], -1.0, 1.0)
        out[mid] = _newton_middle(m[mid], s[mid], a[mid], t[mid], start)
    if not np.all(np.isfinite(out)):
        raise CertificationError("residual CDF inversion produced a non-finite value")
    return out


def _split_inverse(kernel: SplitKernel, x, u, a_eff):
    """Invert z -> (cdf(x,z) - a*nuCDF(z)) / (1-a) at u, elementwise in x."""
    x = np.asarray(x, float)
    u = np.asarray(u, float)
    if not ((u > 0.0) & (u < 1.0)).all():  # NaN fails both comparisons
        raise ValueError("u must lie strictly inside (0, 1) for CDF inversion")
    a = np.asarray(a_eff, float)
    # a == 1 rows never reach this branch in split_apply_batch; make them inert.
    a = np.where(a >= 1.0, 0.0, a)
    # Location and scale come from the full state array: a kernel may close
    # over per-element arrays aligned with it.
    m = np.asarray(kernel.mean(x), float)
    s = np.asarray(kernel.stdev(x), float)
    m, s, u, a = np.broadcast_arrays(m, s, u, a)
    return _closed_form_inverse(m, s, u, a)


def split_apply_batch(
    kernel: SplitKernel,
    n: int,
    x: np.ndarray,
    u1: np.ndarray,
    u2: np.ndarray,
    in_set: np.ndarray | None = None,
) -> np.ndarray:
    """Apply the split mapping elementwise over states sharing a ladder index.

    ``in_set`` defaults to the kernel's joint membership of state and
    environment, ``kernel.in_small_set(x, n)``, so that regeneration only
    fires where the minorization holds; a caller holding it may pass it.
    """
    n = kernel.ladder.check_index(n)
    x = np.asarray(x, float)
    u1 = np.asarray(u1, float)
    u2 = np.asarray(u2, float)
    # NaN fails both comparisons, so it is refused with the out-of-range values
    if not (((u1 >= 0.0) & (u1 <= 1.0)).all() and ((u2 >= 0.0) & (u2 <= 1.0)).all()):
        raise ValueError("uniform pair components must lie in [0, 1]")
    a = kernel.ladder.alphas[n]
    if in_set is None:
        in_set = kernel.in_small_set(x, n)
    else:
        in_set = np.asarray(in_set, bool)
    regen = in_set & (u1 <= a)
    if regen.all():
        return 2.0 * u2 - 1.0
    # Regenerating elements return 2 u2 - 1 below.  The inversion sees them
    # as off-set elements at a harmless interior value, which keeps them
    # cheap and leaves u2 constrained only by the branch that uses it.
    a_eff = np.where(in_set & ~regen, a, 0.0)
    z = _split_inverse(kernel, x, np.where(regen, 0.5, u2), a_eff)
    return np.where(regen, 2.0 * u2 - 1.0, z)

