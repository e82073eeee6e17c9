"""Deterministic randomness streams for replicated experiments, and the one convolution.

One 64-bit master seed governs an experiment.  Replica ``k`` draws from a
stream derived as ``SeedSequence(master_seed, spawn_key=(k,))``, so any
replica can be regenerated in isolation and replicas can be drawn in blocks
of any size without changing results.  ``replica_blocks`` is the one place
that reads these streams; each experiment's per-replica layout, in draw
order, is:

- ``ar1-couple``: ``t`` uniform pairs;
- ``logvol-sim``: ``lag + h + 2`` normals, then ``h`` innovations;
- ``logvol-couple``: ``lag + t + 2`` normals, then ``t`` uniform pairs;
- ``sde-sim``: ``burn + h`` normals, then ``h`` normals, both scaled by
  ``sqrt(dt)``.

Here ``h`` is the simulated horizon in steps, ``t`` the coupled horizon and
``lag`` the moving-average lag.

The module needs numpy alone: ``ConvPlan`` picks its transform length with
``_fast_len`` rather than ``scipy.fft.next_fast_len``, whose import loads
``scipy.special``, so the SDE path imports no scipy.
"""

from __future__ import annotations

from collections.abc import Iterator

import numpy as np
# numpy loads these on first use; load them with the package, so that set-up
# pays for them and a run does not
import numpy.fft
import numpy.random


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Generator for one replica, independent of how other replicas are run."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(replica),))
    return np.random.default_rng(ss)


def replica_blocks(master_seed: int, replicas: range, rows: int, layout: list) -> Iterator:
    """Yield ``(lo, hi, draws)`` for each block of at most ``rows`` replicas
    of the contiguous range ``replicas``.

    ``layout`` is a list of ``(draw, shape)`` pairs, such as
    ``(np.random.Generator.standard_normal, (n,))``; replica ``k`` calls
    ``draw(replica_rng(master_seed, k), shape)`` for each pair in order, and
    ``draws[j][k - lo]`` holds the ``j``-th result.  The draws fill buffers
    allocated once per call, so each block's views are overwritten by the
    next block: read or copy them before advancing.
    """
    bufs = [np.empty((min(rows, len(replicas)), *shape)) for _, shape in layout]
    for lo in range(replicas.start, replicas.stop, rows):
        hi = min(lo + rows, replicas.stop)
        for row, k in enumerate(range(lo, hi)):
            rng = replica_rng(master_seed, k)
            for (draw, shape), buf in zip(layout, bufs):
                buf[row] = draw(rng, shape)
        yield lo, hi, tuple(buf[: hi - lo] for buf in bufs)


def replica_uniform_pairs(master_seed: int, replicas: range, steps: int) -> np.ndarray:
    """Shared-randomness table of uniform pairs, shape (len(replicas), steps, 2).

    Row ``i`` is exactly what ``replica_rng(master_seed, replicas[i]).random((steps, 2))``
    returns, so a chunk of replicas or a partial rerun reproduces its rows.
    """
    if not replicas:
        return np.empty((0, steps, 2))
    layout = [(np.random.Generator.random, (steps, 2))]
    _, _, (u,) = next(replica_blocks(master_seed, replicas, len(replicas), layout))
    return u


def _fast_len(n: int) -> int:
    """Smallest ``2^a 3^b 5^c >= n``: the real-transform length that
    ``scipy.fft.next_fast_len(n, True)`` returns, for ``n >= 1``."""
    best = 1 << (n - 1).bit_length()  # the power of two at or above n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            # p35 times the smallest power of two that lifts it to n or more
            best = min(best, p35 << (-(-n // p35) - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


class ConvPlan:
    """The "valid" part of each row of a (k <= rows, n_in) array convolved with
    ``taps``, bit for bit as ``scipy.signal.fftconvolve(x, taps[None, :],
    mode="valid", axes=1)``: pocketfft at its transform length (``_fast_len``),
    into buffers the next call reuses, or for one tap the plain product (a new
    array) it returns.
    """

    def __init__(self, taps, rows: int, n_in: int):
        self.taps = np.asarray(taps, float)
        self.n = _fast_len(n_in + self.taps.size - 1)
        self.valid = slice(self.taps.size - 1, n_in)
        if self.taps.size > 1:
            self.taps_hat = np.fft.rfft(self.taps, self.n)
            self.spec = np.empty((rows, self.n // 2 + 1), complex)
            self.full = np.empty((rows, self.n))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.taps.size == 1:
            return x * self.taps[0]
        spec, full = self.spec[: len(x)], self.full[: len(x)]
        np.fft.rfft(x, self.n, axis=1, out=spec)
        np.multiply(spec, self.taps_hat, out=spec)
        np.fft.irfft(spec, self.n, axis=1, out=full)
        return full[:, self.valid]
