"""Deterministic randomness streams for replicated experiments, and the
moving averages.

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

``replica_rng`` defines a replica's stream; building it costs about 27 us,
most of it in ``SeedSequence``.  ``replica_blocks`` therefore works out the
PCG64 state of many replicas at once (``_pcg64_states``, numpy's stable
seeding algorithm run on uint32 arrays) and sets it on one reused
generator per block, after checking the block's first replica against
``replica_rng``.  Each draw fills its replica's row of the block buffer in
place (``out=``).  The draws are the same bits either way.

Every moving average is built by ``ma_plan``, the one place that picks its
convolution: ``ScanPlan`` (a blocked recursion) for geometric taps, which
are the SDE's exponential kernel and a ``geometric(r, lag)`` log-volatility
environment, and ``ConvPlan`` (an FFT, bit for bit as
``scipy.signal.fftconvolve``) for any other; ``ma_plan_row_bytes`` is what a
row of either holds.  The module needs numpy alone: ``ConvPlan`` picks its
transform length with ``_fast_len`` rather than ``scipy.fft.next_fast_len``,
whose import loads ``scipy.special``, so the SDE path imports no scipy.
"""

from __future__ import annotations

import math
from collections.abc import Iterator

import numpy as np
# numpy loads these on first use; load them with the package, so that set-up
# pays for them and a run does not
import numpy.fft
import numpy.random

from .errors import RunError


def replica_rng(master_seed: int, replica: int) -> np.random.Generator:
    """Generator for one replica, independent of how other replicas are run."""
    ss = np.random.SeedSequence(entropy=int(master_seed), spawn_key=(int(replica),))
    return np.random.default_rng(ss)


# numpy's SeedSequence and PCG64 seeding constants (numpy/random/bit_generator.pyx,
# pcg64.h); the algorithm is part of numpy's stream-compatibility policy.
_MASK32 = 0xFFFFFFFF
_MASK128 = (1 << 128) - 1
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875  # mix_entropy's hash
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED  # generate_state's hash
_MIX_L, _MIX_R = 0xCA01F9DD, 0x4973F715
_POOL = 4  # SeedSequence's pool size in uint32 words
_PCG_MULT = 0x2360ED051FC65DA44385DF649FCCF645
_STATE_SLICE = 1024  # replicas whose states are worked out together, bounding the scratch


def _hashmix(value, hc):
    """SeedSequence's ``hashmix`` of a uint32 word (a Python int or a uint32
    array) under hash constant ``hc``: the hashed word and the next constant."""
    value = value ^ hc
    hc = hc * _MULT_A & _MASK32
    value = value * hc & _MASK32
    return value ^ value >> 16, hc


def _mix(x, y):
    r = ((_MIX_L * x & _MASK32) - (_MIX_R * y & _MASK32)) & _MASK32
    return r ^ r >> 16


def _uint32_words(n: int) -> list[int]:
    """The little-endian uint32 words of a non-negative integer (``[0]`` for 0)."""
    if n < 0:
        raise ValueError(f"seed must be a non-negative integer, got {n}")
    words = [n & _MASK32]
    while n := n >> 32:
        words.append(n & _MASK32)
    return words


def _pcg64_states(master_seed: int, replicas: range) -> Iterator[tuple[int, int]]:
    """The PCG64 ``(state, inc)`` of ``replica_rng(master_seed, k)`` for each
    ``k`` of the contiguous ``replicas``, each in ``[0, 2^32)``, in order.

    The run entropy is the seed's words, zero-padded to the pool size, and the
    replica index is one word after it, so everything but the last word's
    mixing and the output hash is the same for every replica and runs on
    Python ints; those two run on uint32 arrays over the replicas.  The four
    uint64 output words seed PCG64 as ``pcg64_set_seed`` does.
    """
    ks = np.arange(replicas.start, replicas.stop)
    if ks.size and (ks[0] < 0 or ks[-1] > _MASK32):
        raise ValueError("replica indices must lie in [0, 2^32)")
    entropy = _uint32_words(int(master_seed))
    entropy += [0] * (_POOL - len(entropy))
    entropy.append(ks.astype(np.uint32))
    hc = _INIT_A
    pool = []
    for word in entropy[:_POOL]:
        word, hc = _hashmix(word, hc)
        pool.append(word)
    for src in range(_POOL):
        for dst in range(_POOL):
            if src != dst:
                word, hc = _hashmix(pool[src], hc)
                pool[dst] = _mix(pool[dst], word)
    for word in entropy[_POOL:]:
        for dst in range(_POOL):
            hashed, hc = _hashmix(word, hc)
            pool[dst] = _mix(pool[dst], hashed)
    hc = _INIT_B
    out = []
    for i in range(2 * _POOL):  # generate_state(4, uint64): eight words
        word = pool[i % _POOL] ^ hc
        hc = hc * _MULT_B & _MASK32
        word = word * hc & _MASK32
        out.append(word ^ word >> 16)
    low, high = np.array(out[0::2], np.uint64), np.array(out[1::2], np.uint64)
    for words in (low | high << 32).T:  # low word first
        s0, s1, i0, i1 = words.tolist()
        inc = ((i0 << 64 | i1) << 1 | 1) & _MASK128
        yield ((inc + (s0 << 64 | s1)) * _PCG_MULT + inc) & _MASK128, inc


def replica_blocks(master_seed: int, replicas: range, rows: int, layout: list) -> Iterator:
    """Yield ``(lo, hi, draws)`` for each block of at most ``rows`` replicas
    of the contiguous range ``replicas``.

    ``layout`` is a list of ``(draw, shape)`` pairs, such as
    ``(np.random.Generator.standard_normal, (n,))``; replica ``k`` calls
    ``draw(replica_rng(master_seed, k), out=row)`` for each pair in order,
    where ``row``, of ``shape``, is ``draws[j][k - lo]`` for the ``j``-th
    pair.  A draw fills ``out`` with the bits that ``draw(rng, shape)``
    would return, as numpy's ``standard_normal`` and ``random`` do, so no
    replica allocates.  The rows belong to buffers allocated once per call,
    so each block's views are overwritten by the next block: read or copy
    them before advancing.

    Each block builds one generator, ``replica_rng(master_seed, lo)``, and
    checks it against the worked-out state of replica ``lo`` (a ``RunError``
    if they differ); every replica of the block then draws from that
    generator with its own state set.  States are worked out ``_STATE_SLICE``
    replicas at a time.
    """
    bufs = [np.empty((min(rows, len(replicas)), *shape)) for _, shape in layout]
    slices = (range(lo, min(lo + _STATE_SLICE, replicas.stop))
              for lo in range(replicas.start, replicas.stop, _STATE_SLICE))
    states = (state for part in slices for state in _pcg64_states(master_seed, part))
    state = {"bit_generator": "PCG64", "state": None, "has_uint32": 0, "uinteger": 0}
    for lo in range(replicas.start, replicas.stop, rows):
        hi = min(lo + rows, replicas.stop)
        rng = replica_rng(master_seed, lo)
        for row, (pcg_state, inc) in zip(range(hi - lo), states):
            state["state"] = {"state": pcg_state, "inc": inc}
            if row == 0 and state != rng.bit_generator.state:
                raise RunError(f"worked-out stream state of replica {lo} differs "
                               "from its SeedSequence's")
            rng.bit_generator.state = state
            for (draw, _), buf in zip(layout, bufs):
                draw(rng, out=buf[row])
        yield lo, hi, tuple(buf[: hi - lo] for buf in bufs)


def stream_state_bytes(replicas: int) -> int:
    """Bytes ``replica_blocks`` holds beside its buffers: its generator (about 8 KiB) and
    the worked-out states of up to ``_STATE_SLICE`` replicas (about 200 bytes each)."""
    return 2**14 + 256 * min(replicas, _STATE_SLICE)


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
        spec_cols, self.n = _conv_shape(self.taps.size, n_in)
        self.valid = slice(self.taps.size - 1, n_in)
        if self.taps.size > 1:
            self.taps_hat = np.fft.rfft(self.taps, self.n)
            self.spec = np.empty((rows, spec_cols), complex)
            self.full = np.empty((rows, self.n))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        if self.taps.size == 1:
            return x * self.taps[0]
        spec, full = self.spec[: len(x)], self.full[: len(x)]
        np.fft.rfft(x, self.n, axis=1, out=spec)
        np.multiply(spec, self.taps_hat, out=spec)
        np.fft.irfft(spec, self.n, axis=1, out=full)
        return full[:, self.valid]


def _conv_shape(n_taps: int, n_in: int) -> tuple[int, int]:
    """Row columns of ``ConvPlan``'s complex spectrum and real output (its transform length)."""
    n = _fast_len(n_in + n_taps - 1)
    return n // 2 + 1, n


_SCAN_BLOCK = 256  # the most steps one block of ScanPlan's scan spans


def _scan_shape(n_taps: int, n_in: int, rate: float, m: int) -> tuple[int, tuple[int, int, int]]:
    """``ScanPlan``'s block length, and the columns a row of its output, work
    and block-start buffers take (one start a block) for ``m`` nonzero taps."""
    block = min(_SCAN_BLOCK, max(1, int(1.0 / rate)))
    n_blocks = -(-(n_in - n_taps) // block)
    return block, ((n_blocks + 1) * block, max(m, n_blocks * block), n_blocks)


class ScanPlan:
    """The "valid" part of each row of a (k <= rows, n_in) array convolved with
    geometric ``taps`` (``taps[i] = taps[0] exp(-rate i)`` up to the last
    nonzero tap, zeros after it, as a kernel cut at its memory leaves them),
    as ``ConvPlan`` returns it, by a blocked recursive scan into buffers the
    next call reuses.

    With ``m`` nonzero taps ``t_i``, ``a = exp(-rate)`` and ``x`` the input
    past the leading columns that only zero taps reach, ``J_0 = sum_i t_i
    x[m - 1 - i]`` (a per-row product and ``np.add.reduce``) and
    ``J_j = a J_{j-1} + t_0 x[j + m - 1] - a t_{m-1} x[j - 1]``.  The
    recursion runs in blocks of ``T = min(256, max(1, floor(1 / rate)))``
    steps: inside a block the driving terms are weighted by ``a^(T-1-p)``
    and summed by ``cumsum``, a loop over blocks carries ``a^T J`` from one
    block to the next on (rows,) vectors, and one broadcast add and one
    multiply by ``a^(p+1-T)`` (at most e) finish it.  Every operation is
    elementwise or a reduction along a row, so a row's result does not
    depend on the other rows.  It agrees with a direct sum to about 1e-14
    where the FFT reaches about 1e-15, at about a third of the FFT's cost.
    """

    def __init__(self, taps, rate: float, rows: int, n_in: int):
        taps = np.asarray(taps, float)
        nonzero = np.flatnonzero(taps)
        self.m = m = int(nonzero[-1]) + 1 if nonzero.size else 0
        self.skip = taps.size - m
        self.n_out = n_in - taps.size + 1
        steps = self.n_out - 1
        a = math.exp(-rate)
        block, (out_cols, work_cols, n_blocks) = _scan_shape(taps.size, n_in, rate, m)
        self.block, self.n_blocks = block, n_blocks
        # J_0 ends a first block and J_1, J_2, ... fill the blocks after it,
        # so each row's scan is a (n_blocks, block) view at a block's offset
        self.out = np.empty((rows, out_cols))
        if m == 0:
            return
        self.rev_taps = taps[m - 1 :: -1].copy()
        weight = np.tile(a ** np.arange(block - 1, -1, -1.0), n_blocks)[:steps]
        self.w_in = taps[0] * weight  # the entering input's weighted tap
        self.w_out = a * taps[m - 1] * weight  # the leaving input's
        self.finish = a ** np.arange(1.0 - block, 1.0)
        self.a_block = a**block
        self.work = np.empty(rows * work_cols)
        self.starts = np.empty((rows, n_blocks))

    def __call__(self, x: np.ndarray) -> np.ndarray:
        k, m, steps, block = len(x), self.m, self.n_out - 1, self.block
        out = self.out[:k]
        first = block - 1  # J_0's column
        valid = out[:, first : first + self.n_out]
        if m == 0:
            valid[:] = 0.0
            return valid
        x = x[:, self.skip :]
        prod = self.work[: k * m].reshape(k, m)
        np.multiply(x[:, :m], self.rev_taps, out=prod)
        np.add.reduce(prod, axis=1, out=out[:, first])
        drive = self.work[: k * self.n_blocks * block].reshape(k, self.n_blocks * block)
        np.multiply(x[:, m:], self.w_in, out=drive[:, :steps])
        leaving = out[:, block : block + steps]  # scratch until the scan writes J there
        np.multiply(x[:, :steps], self.w_out, out=leaving)
        np.subtract(drive[:, :steps], leaving, out=drive[:, :steps])
        drive[:, steps:] = 0.0
        scan = out.reshape(k, self.n_blocks + 1, block)[:, 1:]
        np.cumsum(drive.reshape(scan.shape), axis=2, out=scan)
        starts = self.starts[:k]
        j = out[:, first]
        for b in range(self.n_blocks):
            np.multiply(j, self.a_block, out=starts[:, b])
            j = starts[:, b] + scan[:, b, -1]
        scan += starts[:, :, None]
        scan *= self.finish
        return valid


def ma_plan(taps, rows: int, n_in: int, rate: float | None) -> ConvPlan | ScanPlan:
    """The plan that convolves (k <= rows, n_in) arrays with ``taps``: a
    ``ScanPlan`` when the caller knows the taps geometric with decay ``rate``
    a step, a ``ConvPlan`` for any other (``rate`` None)."""
    if rate is None:
        return ConvPlan(taps, rows, n_in)
    return ScanPlan(taps, rate, rows, n_in)


def ma_plan_row_bytes(n_taps: int, n_in: int, rate: float | None) -> int:
    """Bytes a row of ``ma_plan(taps, rows, n_in, rate)`` holds for ``n_taps`` taps, by the
    shapes its plan allocates (a scan's taps all nonzero), or one tap's product."""
    if rate is not None:
        return 8 * sum(_scan_shape(n_taps, n_in, rate, n_taps)[1])
    spec_cols, full_cols = _conv_shape(n_taps, n_in)
    return 16 * spec_cols + 8 * full_cols if n_taps > 1 else 8 * n_in
