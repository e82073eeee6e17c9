import bisect
import math
import re

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st
from scipy.stats import ks_2samp

from oracles import ar1_simulate_batch
from splitcouple.ar1 import Ar1Params, ar1_alpha, ar1_marginal, ar1_split_kernel
from splitcouple.coupling import (
    BlockSchedule,
    _coupling_records,
    _schedule_ladder_index,
    block_schedule,
    coupled_pair_batch,
    coupling_lower_bound,
    mcre_coupled_chains_batch,
    tv_upper_from_coupling,
)
from splitcouple.errors import ScheduleError
from splitcouple.kernels import split_apply_batch
from splitcouple.logvol import LogvolParams, logvol_kernel, logvol_ladder, logvol_schedule
from splitcouple.streams import replica_uniform_pairs

GAMMA = 0.5


def _events(codes) -> str:
    """Event string of one record's codes: 0/1/2 as A/B/C."""
    return "".join("ABC"[c] for c in codes)


def _check_record_agreement(res) -> None:
    """couple_step is the first A (or -1), coupled says whether there is one,
    and coupled orbits end in the same state."""
    for r in res:
        ev = _events(r.codes)
        assert r.couple_step == ev.find("A")
        assert r.coupled == (r.couple_step >= 0)
        assert (r.final[0] == r.final[1]) == r.coupled


@pytest.fixture(scope="module")
def kernel():
    return ar1_split_kernel(GAMMA, n_max=6)


def _const(kernel):
    """The AR(1) kernel as a function of the environment that ignores it; the
    kernel carries no environment, so its small set is the state's."""
    return lambda env_rows: kernel


def _backward_orbit(kernel, n, x0, u, t):
    """The depth-t backward composition: the coupling's one orbit at s = t."""
    return coupled_pair_batch(kernel, n, x0, t, t, u).final[:, 0]


def test_backward_orbit_depth_zero_and_one(kernel):
    # Depth zero is the identity, which the engine does not run.
    u = np.array([[[0.3, 0.8], [0.6, 0.1]]])  # one replica, two steps
    with pytest.raises(ValueError, match="1 <= s <= t"):
        _backward_orbit(kernel, 2, 1.5, u, 0)
    one = _backward_orbit(kernel, 2, 1.5, u, 1)
    assert one[0] == split_apply_batch(kernel, 2, np.array([1.5]), np.array([0.3]),
                                      np.array([0.8]))[0]


def test_backward_orbit_needs_enough_uniforms(kernel):
    with pytest.raises(ValueError, match="too short"):
        _backward_orbit(kernel, 2, 0.0, np.zeros((1, 3, 2)) + 0.5, 4)


def test_backward_orbit_marginal_moments(kernel):
    t, reps = 20, 100_000
    u = replica_uniform_pairs(321, range(reps), t)
    out = _backward_orbit(kernel, 3, 1.0, u, t)
    mean, var = ar1_marginal(Ar1Params(GAMMA, x0=1.0), t)
    se_mean = np.sqrt(var / reps)
    se_var = var * np.sqrt(2.0 / reps)
    assert abs(out.mean() - mean) < 4 * se_mean
    assert abs(out.var() - var) < 4 * se_var


def test_backward_orbit_matches_forward_law(kernel):
    t, reps = 12, 100_000
    u = replica_uniform_pairs(99, range(reps), t)
    backward = _backward_orbit(kernel, 3, 1.0, u, t)
    forward = ar1_simulate_batch(
        Ar1Params(GAMMA, x0=1.0), t, np.random.default_rng(1234), reps
    )
    assert ks_2samp(backward, forward).pvalue >= 0.01


def test_coupled_pair_degenerate_equal_depths(kernel):
    u = np.random.default_rng(0).random((5, 2))
    pair = coupled_pair_batch(kernel, 2, 0.5, 5, 5, u[None])[0]
    assert _events(pair.codes)[0] == "A"
    assert pair.couple_step == 0
    assert pair.final[0] == pair.final[1]


def test_coupled_pair_refuses_a_table_without_a_replica_axis(kernel):
    # one replica's (steps, 2) table is refused, not read as a batch of one
    u = np.random.default_rng(0).random((5, 2))
    with pytest.raises(ValueError, match=r"shape \(replicas, steps, 2\)$"):
        coupled_pair_batch(kernel, 2, 0.5, 5, 5, u)


def test_coupled_pair_regeneration_forces_coalescence(kernel):
    # u1 = 0 on the last shared step: if the orbits sit in the set, they meet
    rng = np.random.default_rng(8)
    u = rng.random((6, 2))
    u[:, 0] = np.minimum(u[:, 0], 0.9)  # keep brackets sane
    u[0] = (0.0, 0.7)  # backward index 0 is the final step
    pair = coupled_pair_batch(kernel, 4, 0.5, 3, 6, u[None])[0]
    events = _events(pair.codes)
    if events[-2] in "AB":  # in the set (or already met) before the last step
        assert events[-1] == "A"
        assert pair.final[0] == pair.final[1] == 2.0 * 0.7 - 1.0


def test_traces_absorbing_pattern(kernel):
    u = replica_uniform_pairs(17, range(300), 40)
    pairs = coupled_pair_batch(kernel, 3, 1.0, 20, 40, u)
    assert pairs.codes.shape == (300, 21)
    for r in pairs:
        assert re.fullmatch(r"[BC]*A*", _events(r.codes))
        assert len(r.codes) == 21
        if r.coupled:
            assert r.final[0] == r.final[1]
        else:
            assert r.final[0] != r.final[1]
    _check_record_agreement(pairs)


def test_coupling_trace_validation():
    # The engine's absorbing check rejects an A followed by a non-A.
    with pytest.raises(ValueError, match="absorbing"):
        _coupling_records(np.array([[1, 0, 2]], np.int8), np.zeros(1), np.zeros(1))
    # couple_step and coupled are derived from the codes, so they agree.
    rec = _coupling_records(np.array([[1, 1, 0], [1, 2, 1]], np.int8),
                            np.array([0.5, 0.0]), np.array([0.5, 1.0]))
    assert rec.couple_step.tolist() == [2, -1]
    assert rec.coupled.tolist() == [True, False]
    assert rec.final.tolist() == [[0.5, 0.5], [0.0, 1.0]]


def test_coupling_lower_bound_values():
    assert coupling_lower_bound(1.0, 1, 0.0) == 1.0
    assert coupling_lower_bound(0.5, 2, 0.0) == 0.75
    assert coupling_lower_bound(0.3, 7, 0.5) == 0.0
    with pytest.raises(ValueError):
        coupling_lower_bound(0.0, 1, 0.0)
    with pytest.raises(ValueError):
        coupling_lower_bound(0.5, 0, 0.0)
    with pytest.raises(ValueError):
        coupling_lower_bound(0.5, 1, 0.7)


def test_empirical_coupling_beats_lower_bound(kernel):
    s, t, reps = 50, 100, 4000
    u = replica_uniform_pairs(2718, range(reps), t)
    pairs = coupled_pair_batch(kernel, 3, 1.0, s, t, u)
    frac = np.mean(pairs.coupled)
    se = np.sqrt(frac * (1 - frac) / reps)
    eps_hat = (4.0 / 3.0) / 9.0  # Chebyshev with the exact second-moment supremum
    assert frac >= coupling_lower_bound(ar1_alpha(GAMMA, 3), s, eps_hat) - 3 * se


def test_tv_upper_from_coupling_edges():
    # Wald's width is 0 at zero failures; the exact one-sided bound at the
    # 3-sigma level, 1 - 0.00135^(1/n) on the failure probability, is not
    exact = 2.0 * (1.0 - 0.00135 ** (1.0 / 10))
    all_coupled = np.ones(10, bool)
    assert tv_upper_from_coupling(all_coupled) == (0.0, exact)
    none_coupled = np.zeros(10, bool)
    assert tv_upper_from_coupling(none_coupled) == (2.0, exact)
    # where Wald's width is the larger it stands, bit for bit
    half = np.arange(100) < 50
    assert tv_upper_from_coupling(half) == (1.0, 2.0 * 3.0 * math.sqrt(0.25 / 100))
    assert tv_upper_from_coupling(np.ones(10_000, bool))[1] == pytest.approx(2 * 6.6e-4, rel=2e-3)
    with pytest.raises(ValueError):
        tv_upper_from_coupling(np.zeros(0, bool))


def test_block_schedule_synthetic_example():
    sched = block_schedule(lambda n: 4.0 / n**2, lambda n: 0.5, 3)
    assert sched.n_of_m == (3, 4, 6)  # ceil(2 * 2^(m/2))
    assert sched.N_of_m == (1, 2, 3)
    assert sched.M_of_m == (0, 1, 3, 6)
    assert sched.M_of_m[-1] == 6


def test_block_schedule_certain_regeneration():
    sched = block_schedule(lambda n: 4.0 / n**2, lambda n: 1.0, 3)
    assert sched.N_of_m == (1, 1, 1)


def test_block_schedule_empty():
    sched = block_schedule(lambda n: 4.0 / n**2, lambda n: 0.5, 0)
    assert sched.n_of_m == ()
    assert sched.M_of_m == (0,)


def test_block_schedule_errors():
    with pytest.raises(ScheduleError):
        block_schedule(lambda n: 0.3, lambda n: 0.5, 2)  # no n <= 2^20 reaches 1/2
    with pytest.raises(ScheduleError):
        block_schedule(lambda n: 4.0 / n**2, lambda n: 0.0, 1)


@settings(max_examples=60, deadline=None)
@given(
    c=st.floats(0.01, 100.0),
    r=st.floats(0.05, 0.95),
    a0=st.floats(0.01, 1.0),
    decay=st.sampled_from([0.0, 0.01, 0.1]),
    m_max=st.integers(1, 6),
    n_min=st.integers(0, 4),
)
@example(c=1.0, r=0.5, a0=1.0, decay=0.0, m_max=1, n_min=0)  # tail(n_min) > 2^-m >= tail(n_min + 1)
def test_block_schedule_matches_brute_force_scan(c, r, a0, decay, m_max, n_min):
    # Geometric tails and constant (decay 0) or decreasing weights in (0, 1];
    # each entry must be the first index a plain scan reaches.  The schedule
    # searches from n = 1, so a scan from n_min shifts its inputs by n_min - 1.
    def tail(n):
        return min(1.0, c * r**n)

    def alpha(n):
        return a0 / (1.0 + decay * n)

    shift = n_min - 1
    sched = block_schedule(lambda n: tail(n + shift), lambda n: alpha(n + shift), m_max)
    for m in range(1, m_max + 1):
        n = n_min
        while tail(n) > 2.0**-m:
            n += 1
        assert sched.n_of_m[m - 1] + shift == n
        assert sched.alphas[m - 1] == alpha(n)
        rate = math.inf if alpha(n) == 1.0 else -math.log1p(-alpha(n))
        big_n = 1
        while big_n * rate < m * math.log(2.0):
            big_n += 1
        assert sched.N_of_m[m - 1] == big_n


def test_block_schedule_invariants_enforced():
    with pytest.raises(ValueError):
        BlockSchedule(n_of_m=(3,), N_of_m=(1,), M_of_m=(0, 2), alphas=(0.5,), tails=(0.4,))
    with pytest.raises(ValueError):
        # one step at alpha 0.1 leaves more than half the mass uncoupled
        BlockSchedule(n_of_m=(3,), N_of_m=(1,), M_of_m=(0, 1), alphas=(0.1,), tails=(0.4,))
    with pytest.raises(ValueError):
        BlockSchedule(n_of_m=(3,), N_of_m=(1,), M_of_m=(0, 1), alphas=(0.5,), tails=(0.6,))


def _ladder_index_by_search(sched, t):
    """Ladder index of each backward uniform index, found by searching the
    block boundaries: the uniform at index j lies in the block m with
    M_of_m[m-1] <= j < M_of_m[m]."""
    return [sched.n_of_m[bisect.bisect_right(sched.M_of_m, j) - 1] for j in range(t)]


def test_schedule_ladder_index():
    sched = block_schedule(lambda n: 4.0 / n**2, lambda n: 0.5, 3)
    assert sched.n_of_m == (3, 4, 6) and sched.M_of_m == (0, 1, 3, 6)
    assert _schedule_ladder_index(sched, 6) == [3, 4, 4, 6, 6, 6]
    for t in range(7):  # a t inside a block cuts that block short
        assert _schedule_ladder_index(sched, t) == _ladder_index_by_search(sched, t)
    with pytest.raises(ValueError):
        _schedule_ladder_index(sched, 7)


def test_mcre_constant_env_reduces_to_coupled_pair(kernel):
    # Each chain of the MCRE coupling, under an environment its kernel
    # ignores and one ladder index, is the plain depth-t backward orbit from
    # its own start; where the orbits meet, the plain pair from that start meets.
    a1 = kernel.ladder.alphas[1]
    sched = BlockSchedule(
        n_of_m=(1, 1), N_of_m=(5, 10), M_of_m=(0, 5, 15),
        alphas=(a1, a1), tails=(0.4, 0.2),
    )
    t, reps = 12, 50
    u = np.random.default_rng(42).random((reps, t, 2))
    env = np.zeros((reps, t + 1, 1))
    mcre = mcre_coupled_chains_batch(_const(kernel), env, (1.0, -1.0), sched, t, u)
    for col, x0 in enumerate((1.0, -1.0)):
        plain = coupled_pair_batch(kernel, 1, x0, t, t, u)
        assert np.array_equal(mcre.final[:, col], plain.final[:, 0])
    assert 0 < np.count_nonzero(mcre.coupled) < reps


def test_mcre_regeneration_on_b_step(kernel):
    # both chains in the set with u1 = 0 on the final step: next event is A
    a4 = kernel.ladder.alphas[4]
    sched = BlockSchedule(
        n_of_m=(4,), N_of_m=(80,), M_of_m=(0, 80), alphas=(a4,), tails=(0.4,),
    )
    u = np.full((1, 3, 2), 0.5)
    u[0, 0] = (0.0, 0.25)
    env = np.zeros((1, 4, 1))
    chain = mcre_coupled_chains_batch(_const(kernel), env, (1.0, -1.0), sched, 3, u)[0]
    assert _events(chain.codes)[-2] == "B"
    assert _events(chain.codes)[-1] == "A"
    assert tuple(chain.final) == (-0.5, -0.5)


def test_mcre_two_chains_couple_by_third_boundary(kernel):
    sched = block_schedule(lambda n: min(1.0, (4.0 / 3.0) / n**2),
                           lambda n: ar1_alpha(GAMMA, n), 3)
    t = sched.M_of_m[-1]
    reps = 400
    u = replica_uniform_pairs(1000, range(reps), t)
    env = np.zeros((reps, t + 1, 1))
    chains = mcre_coupled_chains_batch(_const(kernel), env, (1.0, -1.0), sched, t, u)
    frac = np.mean(chains.coupled)
    assert frac >= 0.5  # block failure mass gives at least 1/2 in theory
    for r in chains[:40]:
        assert re.fullmatch(r"[BC]*A*", _events(r.codes))
    _check_record_agreement(chains)


def test_mcre_preconditions(kernel):
    # t past the schedule's last boundary, and an environment window short of t+1 rows
    sched = BlockSchedule(
        n_of_m=(1,), N_of_m=(5,), M_of_m=(0, 5),
        alphas=(kernel.ladder.alphas[1],), tails=(0.4,),
    )
    u = np.zeros((1, 8, 2)) + 0.5
    with pytest.raises(ValueError, match="past the schedule"):
        mcre_coupled_chains_batch(_const(kernel), np.zeros((1, 9, 1)), (0.0, 1.0), sched, 8, u)
    with pytest.raises(ValueError, match="environment"):
        mcre_coupled_chains_batch(_const(kernel), np.zeros((1, 3, 1)), (0.0, 1.0), sched, 5, u)


def test_environment_window_validation(kernel):
    # An environment batch is a (replicas, steps, components) array; fewer axes are rejected.
    sched = BlockSchedule(
        n_of_m=(1,), N_of_m=(5,), M_of_m=(0, 5),
        alphas=(kernel.ladder.alphas[1],), tails=(0.4,),
    )
    u = np.zeros((1, 5, 2)) + 0.5
    for env in (np.zeros(6), np.zeros((1, 6)), np.zeros((6, 1))):
        with pytest.raises(ValueError, match="environment"):
            mcre_coupled_chains_batch(_const(kernel), env, (0.0, 1.0), sched, 5, u)


@pytest.mark.parametrize("s", [1, 3])
def test_engine_refuses_a_ladder_index_past_the_kernel_s_ladder(s):
    # Ladder indices 0..2: index 3 is refused whether the step moves v alone
    # (s < t) or classifies both orbits first (s = t), and from a schedule.
    kernel = ar1_split_kernel(GAMMA, n_max=2)
    u = np.full((2, 3, 2), 0.5)
    with pytest.raises(ValueError, match=r"^ladder index 3 outside 0\.\.2$"):
        coupled_pair_batch(kernel, 3, 1.0, s, 3, u)
    sched = BlockSchedule(n_of_m=(3,), N_of_m=(3,), M_of_m=(0, 3), alphas=(0.5,), tails=(0.4,))
    with pytest.raises(ValueError, match=r"^ladder index 3 outside 0\.\.2$"):
        mcre_coupled_chains_batch(_const(kernel), np.zeros((2, 4, 0)), (1.0, -1.0), sched, s, u)


@settings(max_examples=30, deadline=None)
@given(
    reps=st.integers(2, 12),
    s=st.integers(1, 8),
    extra=st.integers(0, 8),
    seed=st.integers(0, 2**32 - 1),
    data=st.data(),
)
def test_row_ranges_concatenate_to_whole_table(kernel, reps, s, extra, seed, data):
    # Replica chunks are independent: coupling any two row ranges of the
    # uniform table and concatenating equals coupling the whole table.
    t = s + extra
    u = np.random.default_rng(seed).random((reps, t, 2))
    k = data.draw(st.integers(1, reps - 1), label="split row")
    whole = coupled_pair_batch(kernel, 2, 1.0, s, t, u)
    parts = np.concatenate(
        [coupled_pair_batch(kernel, 2, 1.0, s, t, u[:k]),
         coupled_pair_batch(kernel, 2, 1.0, s, t, u[k:])]
    ).view(np.recarray)
    for name in whole.dtype.names:
        assert np.array_equal(parts[name], whole[name])
    _check_record_agreement(whole)


def _stepped_in_full(kernel_at, env, x_v0, x_w0, depth_w, t, u, ladder_index):
    """Reference engine: both orbits take every shared step, coalesced or not.

    Returns the codes, couple_step and final states the engine should record.
    Membership is written out here, the state and every environment component
    within the radius, apart from the kernel rule the engine reads.
    """
    ladder = kernel_at(env[:, 0]).ladder
    reps = u.shape[0]
    v, w = np.full(reps, float(x_v0)), np.full(reps, float(x_w0))
    codes = np.empty((reps, depth_w + 1), np.int8)

    def env_ok(env_row, n):
        return np.all(np.abs(env_row) <= ladder.radii[n], axis=-1)

    def classify(col, n, env_row, v, w):
        r = ladder.radii[n]
        both = (np.abs(v) <= r) & (np.abs(w) <= r) & env_ok(env_row, n)
        codes[:, col] = np.where(v == w, 0, np.where(both, 1, 2))

    for k in range(1, t + 1):
        j = t - k
        n = ladder_index[j]
        env_row = env[:, k - 1]
        ok = env_ok(env_row, n)
        radius = ladder.radii[n]

        def step(x):
            return split_apply_batch(kernel_at(env_row), n, x, u[:, j, 0], u[:, j, 1],
                                     in_set=(np.abs(x) <= radius) & ok)

        if j < depth_w:
            classify(depth_w - 1 - j, n, env_row, v, w)
            w = step(w)
        v = step(v)
    classify(depth_w, ladder_index[0], env[:, t], v, w)
    met = codes == 0
    return codes, np.where(met[:, -1], met.argmax(axis=1), -1), np.stack([v, w], axis=1)


def _assert_records_equal(res, want) -> None:
    codes, couple_step, final = want
    assert np.array_equal(res.codes, codes)
    assert np.array_equal(res.couple_step, couple_step)
    assert np.array_equal(res.final, final)


@settings(max_examples=40, deadline=None)
@given(
    reps=st.integers(1, 6),
    n=st.integers(0, 6),
    s=st.integers(1, 40),
    extra=st.integers(0, 20),
    x0=st.floats(-4.0, 4.0),
    seed=st.integers(0, 2**32 - 1),
)
def test_coupled_pair_batch_matches_stepping_both_orbits_in_full(kernel, reps, n, s, extra,
                                                                 x0, seed):
    # The engine steps w only where it differs from v; a coalesced w must
    # still end every step equal to v, bit for bit.
    t = s + extra
    u = np.random.default_rng(seed).random((reps, t, 2))
    want = _stepped_in_full(_const(kernel), np.zeros((reps, t + 1, 0)),
                            x0, x0, s, t, u, [n] * t)
    _assert_records_equal(coupled_pair_batch(kernel, n, x0, s, t, u), want)


_MCRE_PARAMS = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=(0.1,))


@settings(max_examples=30, deadline=None)
@given(
    reps=st.integers(1, 6),
    t=st.integers(1, 90),
    x0_pair=st.tuples(st.floats(-3.0, 3.0), st.floats(-3.0, 3.0)),
    env_scale=st.floats(0.1, 1.5),
    seed=st.integers(0, 2**32 - 1),
)
def test_mcre_chains_batch_matches_stepping_both_orbits_in_full(reps, t, x0_pair, env_scale,
                                                                seed):
    # A per-element environment: the live pairs must meet their own rows.
    # Orbits merge in floating point after about 55 contracting steps.
    rng = np.random.default_rng(seed)
    sched = logvol_schedule(_MCRE_PARAMS, 1)
    ladder = logvol_ladder(_MCRE_PARAMS, max(sched.n_of_m))

    def kernel_at(rows):
        return logvol_kernel(_MCRE_PARAMS, rows[:, 0], rows[:, 1], ladder=ladder)

    env = env_scale * rng.standard_normal((reps, t + 1, 2))
    u = rng.random((reps, t, 2))
    want = _stepped_in_full(kernel_at, env, *x0_pair, t, t, u, _ladder_index_by_search(sched, t))
    _assert_records_equal(mcre_coupled_chains_batch(kernel_at, env, x0_pair, sched, t, u), want)
