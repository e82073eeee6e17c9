import dataclasses
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.stats import ks_2samp

from oracles import SHIPPED_CONFIGS, direct_valid_sum, logvol_certify_minorization, ma_env_paths
from splitcouple import logvol
from splitcouple.ar1 import ar1_alpha
from splitcouple.config import load_config, load_config_text
from splitcouple.harness import run
from splitcouple.kernels import split_apply_batch
from splitcouple.logvol import (
    LogvolParams,
    block_working_bytes,
    fractional_ma,
    geometric_ma,
    logvol_alpha,
    logvol_dn,
    logvol_kernel,
    logvol_ladder,
    logvol_moment_bound,
    logvol_tail,
    ma_env_values,
    simulate_logvol_batch,
)
from splitcouple.streams import ConvPlan, ScanPlan, ma_plan, replica_rng

P_STD = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=geometric_ma(0.5))
P_RHO0 = LogvolParams(gamma=0.5, rho=0.0, ma_coeffs=geometric_ma(0.5))


def test_params_invariants():
    with pytest.raises(ValueError):
        LogvolParams(gamma=0.0, rho=0.3, ma_coeffs=(1.0,))
    with pytest.raises(ValueError):
        LogvolParams(gamma=0.5, rho=1.0, ma_coeffs=(1.0,))
    with pytest.raises(ValueError):
        LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=())


def test_ma_families():
    g = geometric_ma(0.5, lag=512)
    assert len(g) == 513
    assert sum(a * a for a in g) == pytest.approx(4.0 / 3.0, rel=1e-12)
    f = fractional_ma(0.1, lag=8)
    assert f[0] == 1.0
    assert f[3] == pytest.approx(4.0 ** (0.1 - 1.5), rel=1e-14)
    with pytest.raises(ValueError):
        geometric_ma(1.0)
    with pytest.raises(ValueError):
        fractional_ma(1.5)


def test_env_degenerate_families():
    # a = (1,): Z_t equals the driving noise exactly
    p = LogvolParams(gamma=0.5, rho=0.0, ma_coeffs=(1.0,))
    env = ma_env_paths(p, 30, 500, 7)
    assert env.shape == (500, 31, 2)
    assert abs(env[:, 10, 0].var() - 1.0) < 4 * math.sqrt(2.0 / 500)
    # all-zero coefficients: volatility is identically one
    p0 = LogvolParams(gamma=0.5, rho=0.0, ma_coeffs=(0.0,))
    env0 = ma_env_paths(p0, 10, 20, 7)
    assert np.all(env0[:, :, 0] == 0.0)


def test_env_variance_matches_truncated_sum():
    reps = 20_000
    env = ma_env_paths(P_STD, 10, reps, 11)
    var = P_STD.env_variance
    se = var * math.sqrt(2.0 / reps)
    assert abs(env[:, 5, 0].var() - var) < 4 * se


def test_env_stationarity_across_time():
    reps = 8000
    env = ma_env_paths(P_STD, 100, reps, 13)
    var = P_STD.env_variance
    for t in (0, 50, 100):
        z = env[:, t, 0]
        assert abs(z.mean()) < 4 * math.sqrt(var / reps)
        assert abs(z.var() - var) < 4 * var * math.sqrt(2.0 / reps)


def test_env_path_single_matches_batch_row():
    window = ma_env_paths(P_STD, 20, 1, 99)[0]
    batch = ma_env_paths(P_STD, 20, 3, 99)
    assert window.shape == (21, 2)
    assert np.array_equal(window, batch[0])


def _replica_draws(p, horizon, seed, replica):
    """One replica's own stream, in logvol-sim's layout: ``lag + horizon + 2``
    environment normals, then ``horizon`` innovations."""
    rng = replica_rng(seed, replica)
    eta = rng.standard_normal(p.lag + horizon + 2)
    return eta, rng.standard_normal(horizon)


def test_logvol_step_degeneracies():
    horizon, seed, replica = 6, 21, 2
    # rho = 0 and Z = 0 reduce the chain to the AR(1) step, bit for bit
    p = LogvolParams(gamma=0.5, rho=0.0, ma_coeffs=(0.0,), x0=2.0)
    got = simulate_logvol_batch(p, horizon, range(3), seed, tuple(range(1, horizon + 1)))
    _, eps = _replica_draws(p, horizon, seed, replica)
    x = p.x0
    for t in range(horizon):
        x = p.gamma * x + eps[t]
        assert got[t + 1][replica] == x
    # Z = 0 from x0 = 0: one step is rho eta_1 + sqrt(1 - rho^2) eps_1
    p = LogvolParams(gamma=0.5, rho=0.6, ma_coeffs=(0.0,))
    got = simulate_logvol_batch(p, 1, range(3), seed, (1,))
    eta, eps = _replica_draws(p, 1, seed, replica)
    assert got[1][replica] == pytest.approx(0.6 * eta[p.lag + 1] + 0.8 * eps[0], rel=1e-15)


def test_logvol_expansion_closed_form():
    # simulate_logvol_batch's X_t against the unrolled weighted sum over one
    # replica's own draws, with Z_s = sum_k a_k eta_{s-k}
    p = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=geometric_ma(0.5, lag=16), x0=0.7)
    horizon, seed, replica = 5, 3, 4
    got = simulate_logvol_batch(p, horizon, range(6), seed, (horizon,))[horizon][replica]
    eta, eps = _replica_draws(p, horizon, seed, replica)
    z = [sum(a * eta[s + p.lag - k] for k, a in enumerate(p.ma_coeffs)) for s in range(horizon)]
    root = math.sqrt(1 - p.rho**2)
    closed = p.gamma**horizon * p.x0 + sum(
        p.gamma ** (horizon - 1 - s) * math.exp(z[s]) * (p.rho * eta[p.lag + 1 + s] + root * eps[s])
        for s in range(horizon)
    )
    assert got == pytest.approx(closed, rel=1e-13)


def test_dn_values():
    p = LogvolParams(gamma=0.5, rho=0.0, ma_coeffs=(0.5,))
    assert logvol_dn(p, 1) == pytest.approx(1.5 * math.e, rel=1e-14)
    assert logvol_dn(p, 0) == 1.0
    stretched = LogvolParams(gamma=0.5, rho=0.999999, ma_coeffs=(0.5,))
    assert logvol_dn(stretched, 1) > 1e3
    with pytest.raises(ValueError):
        logvol_dn(p, -1)


def test_alpha_values_and_monotonicity():
    # at n = 0 with rho = 0 the weight matches the AR(1) one (any gamma there)
    assert logvol_alpha(P_RHO0, 0) == pytest.approx(ar1_alpha(0.9, 0), rel=1e-12)
    assert logvol_alpha(P_RHO0, 0) == pytest.approx(0.48394144903828673, rel=1e-12)
    alphas = [logvol_alpha(P_STD, n) for n in range(3)]
    assert alphas[0] > alphas[1] > alphas[2] > 0.0


@pytest.mark.parametrize("n", [0, 1, 2])
def test_certification_margins(n):
    assert logvol_certify_minorization(P_STD, n) >= 0.0


def test_certification_catches_an_understated_reach(monkeypatch):
    # a reach d(n) 10% short claims the floor f(0.9 d(n)) / scale, above the
    # density the kernel reaches at the far corners, and the grid certificate
    # says so at every n
    reach = logvol.logvol_dn
    monkeypatch.setattr(logvol, "logvol_dn", lambda p, n: 0.9 * reach(p, n))
    for n in range(3):
        assert logvol_certify_minorization(P_STD, n) < 0.0, n


def test_moment_bound_values():
    p_flat = LogvolParams(gamma=0.5, rho=0.0, ma_coeffs=(0.0,))
    assert logvol_moment_bound(p_flat) == pytest.approx(4.0 / 3.0, rel=1e-14)
    p_half = LogvolParams(gamma=0.5, rho=0.0, ma_coeffs=(0.5,))
    assert logvol_moment_bound(p_half) == pytest.approx(math.exp(0.5) / 0.75, rel=1e-14)


def test_moment_bound_dominates_monte_carlo():
    k_bound = logvol_moment_bound(P_STD)
    samples = simulate_logvol_batch(P_STD, 100, range(4000), 17, (100,))
    sq = samples[100] ** 2
    se = sq.std(ddof=1) / math.sqrt(sq.size)
    assert sq.mean() <= k_bound + 4 * se


def test_cross_terms_cancel():
    # distinct summands of the unrolled recursion are uncorrelated
    reps = 30_000
    rng = np.random.default_rng(23)
    p = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=geometric_ma(0.5, lag=32))
    env = ma_env_paths(p, 6, reps, 29)
    eps = rng.standard_normal((reps, 6))
    root = math.sqrt(1 - p.rho**2)
    terms = [
        np.exp(env[:, s, 0]) * (p.rho * env[:, s, 1] + root * eps[:, s])
        for s in (1, 4)
    ]
    cov = np.mean(terms[0] * terms[1]) - terms[0].mean() * terms[1].mean()
    se = np.std(terms[0] * terms[1], ddof=1) / math.sqrt(reps)
    assert abs(cov) < 4 * se


def test_tail_properties():
    tails = [logvol_tail(P_STD, n) for n in range(1, 40)]
    assert all(b <= a for a, b in zip(tails, tails[1:]))
    assert logvol_tail(P_STD, 10**6) < 1e-10
    # moderate bound with small sets: the cap at 1 binds
    p_big = LogvolParams(gamma=0.8, rho=0.0, ma_coeffs=(0.5,))
    assert logvol_moment_bound(p_big) > 4.0
    assert logvol_tail(p_big, 2) == 1.0
    with pytest.raises(ValueError):
        logvol_tail(P_STD, 0)


@pytest.mark.xfail(strict=True, raises=AssertionError,
                   reason="the schedule's state tail adds logvol.x0^2, not the square of the "
                          "chains' starts logvol.x0_pair (ROADMAP item 9)")
def test_logvol_couple_schedule_tail_is_taken_at_the_chains_starts():
    cfg = load_config([path for path in SHIPPED_CONFIGS if path.endswith("logvol-couple.cfg")][0])
    at_starts = dataclasses.replace(cfg.model, x0=max(abs(x) for x in cfg.options["x0_pair"]))
    for n in range(1, 33):  # the tails sit at their cap of 1 up to n = 4
        assert logvol_tail(cfg.model, n) == logvol_tail(at_starts, n), n


def test_frozen_kernel_law():
    z0, eta0, x0 = 0.4, -0.8, 1.0
    kern = logvol_kernel(P_STD, z0, eta0, logvol_ladder(P_STD, 2))
    rng = np.random.default_rng(0)
    n = 60_000
    draws = split_apply_batch(kern, 2, np.full(n, x0), rng.random(n), rng.random(n))
    m = 0.5 * x0 + 0.3 * math.exp(z0) * eta0
    s = math.sqrt(1 - 0.09) * math.exp(z0)
    direct = m + s * rng.standard_normal(n)
    assert ks_2samp(draws, direct).pvalue >= 0.01


def test_mcre_kernel_of_environment_rows():
    # The kernel the MCRE run builds from a step's (elements, 2) environment
    # rows: each element's small set and mean read its own (z, eta).
    env = np.array([[0.5, -1.5], [2.5, 0.0], [0.0, 0.0]])
    kern = logvol_kernel(P_STD, env[:, 0], env[:, 1], ladder=logvol_ladder(P_STD, 2))
    np.testing.assert_array_equal(
        kern.in_small_set(np.zeros(3), 2), np.array([True, False, True])
    )
    means = kern.mean(np.array([1.0, 1.0, 1.0]))
    expected = 0.5 + 0.3 * np.exp(env[:, 0]) * env[:, 1]
    np.testing.assert_allclose(means, expected, rtol=1e-14)


def _counted(fn, calls):
    def counted(*args, **kwargs):
        calls.append(args)
        return fn(*args, **kwargs)
    return counted


def test_mcre_model_kernels_share_the_model_s_ladder(monkeypatch):
    ladder = logvol_ladder(P_STD, 2)
    assert logvol_kernel(P_STD, np.array([0.5, 2.5]), np.array([-1.5, 0.0]),
                         ladder=ladder).ladder is ladder
    # a whole MCRE run builds the ladder once, not once a kernel
    ladders, kernels = [], []
    monkeypatch.setattr(logvol, "logvol_ladder", _counted(logvol.logvol_ladder, ladders))
    monkeypatch.setattr(logvol, "logvol_kernel", _counted(logvol.logvol_kernel, kernels))
    report = run(load_config_text(
        "experiment = logvol-couple\nseed = 801\nreplicas = 100\nlogvol.ma = 0.1\n"
        "logvol.m_max = 1\nlogvol.target_block = 1\nlogvol.step_cap = 50\n"))
    assert report.results["simulated_steps"] == 50
    assert len(kernels) >= 50 and len(ladders) == 1


@pytest.mark.parametrize("lag", [1, 64, 512])
@pytest.mark.parametrize("ratio", [0.05, 0.5, 0.95, 0.999])
def test_geometric_ma_runs_as_a_scan_within_1e_13_of_a_long_double_sum(ratio, lag):
    # Scan blocks span 1 step at ratio 0.05 and 0.5, 19 at 0.95 and 256 at
    # 0.999, so 300 steps cover a partial block after whole ones.
    p = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=geometric_ma(ratio, lag))
    assert p.ma_rate == -math.log(ratio)
    horizon = 300
    eta = replica_rng(3, lag).standard_normal((6, lag + horizon + 2))
    assert isinstance(ma_plan(p.ma_coeffs, 6, eta.shape[1], p.ma_rate), ScanPlan)
    z = ma_env_values(p, eta)[:, :, 0]
    ref = direct_valid_sum(eta, p.ma_coeffs)[:, : horizon + 1]
    assert np.max(np.abs(z - ref)) <= 1e-13 * np.max(np.abs(ref))


_GEOM = geometric_ma(0.5, 8)


@pytest.mark.parametrize("coeffs", [
    fractional_ma(0.1, 64),
    (0.7,),  # one tap
    geometric_ma(0.0, 8),  # r = 0: one nonzero tap among zeros
    _GEOM[:4] + (np.nextafter(_GEOM[4], 1.0),) + _GEOM[5:],  # a_4 one ulp off
    tuple(2.0 * a for a in _GEOM),  # geometric, but a_0 != 1
], ids=["fractional", "one-tap", "ratio-0", "perturbed", "scaled"])
def test_other_moving_averages_keep_the_transform_bit_for_bit(coeffs):
    p = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=coeffs)
    assert p.ma_rate is None
    horizon = 12
    eta = replica_rng(5, len(coeffs)).standard_normal((7, p.lag + horizon + 2))
    want = ConvPlan(p.ma_coeffs, 7, eta.shape[1])(eta)[:, : horizon + 1]
    assert np.array_equal(ma_env_values(p, eta)[:, :, 0], want)


def test_simulate_batch_checkpoints_and_reproducibility():
    out_a = simulate_logvol_batch(P_STD, 20, range(5), 101, (0, 10, 20))
    out_b = simulate_logvol_batch(P_STD, 20, range(3), 101, (0, 10, 20))
    out_c = simulate_logvol_batch(P_STD, 20, range(3, 5), 101, (0, 10, 20))
    assert np.all(out_a[0] == P_STD.x0)
    for t in (10, 20):
        assert np.array_equal(out_a[t][:3], out_b[t])
        assert np.array_equal(out_a[t][3:], out_c[t])
    with pytest.raises(ValueError):
        simulate_logvol_batch(P_STD, 10, range(5), 101, (11,))


def _whole_ensemble(p, horizon, replicas, seed, checkpoints):
    """Every replica drawn, convolved and stepped at once, as before blocking,
    through the plan the module picks for ``p``'s moving average."""
    n_env = p.lag + horizon + 2
    eta = np.empty((replicas, n_env))
    eps = np.empty((replicas, horizon))
    for k in range(replicas):
        rng = replica_rng(seed, k)
        eta[k] = rng.standard_normal(n_env)
        eps[k] = rng.standard_normal(horizon)
    z = ma_plan(p.ma_coeffs, replicas, n_env, p.ma_rate)(eta)
    env = np.stack([z[:, : horizon + 1], eta[:, p.lag + 1 :]], axis=-1)
    root = math.sqrt(1.0 - p.rho**2)
    x = np.full(replicas, p.x0)
    out = {0: x.copy()} if 0 in checkpoints else {}
    for t in range(horizon):
        x = p.gamma * x + np.exp(env[:, t, 0]) * (p.rho * env[:, t, 1] + root * eps[:, t])
        if t + 1 in checkpoints:
            out[t + 1] = x.copy()
    return eta, env, out


@settings(max_examples=60, deadline=None)
@given(
    coeffs=st.sampled_from([(0.7,), geometric_ma(0.5, 6), geometric_ma(0.95, 6)]),
    replicas=st.integers(1, 15),
    horizon=st.integers(1, 8),
    data=st.data(),
)
def test_blocking_is_invisible_bit_for_bit(coeffs, replicas, horizon, data):
    # With 4-replica blocks, 1-15 replicas cover fewer than one block, exact
    # multiples and a partial last block after whole ones.
    checkpoints = tuple(
        data.draw(st.lists(st.integers(0, horizon), min_size=1, max_size=4), label="checkpoints")
    )
    p = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=coeffs, x0=0.25)
    eta, env_ref, sim_ref = _whole_ensemble(p, horizon, replicas, 31, checkpoints)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(logvol, "_BLOCK_ROWS", 4)
        sim = simulate_logvol_batch(p, horizon, range(replicas), 31, checkpoints)
        env = ma_env_values(p, eta)
    assert np.array_equal(env, env_ref)
    assert list(sim) == sorted(sim_ref)
    for t, x in sim_ref.items():
        assert np.array_equal(sim[t], x)


def test_simulate_batch_memory_is_per_block():
    # The shipped lag: on a whole-ensemble path the traced peak grows by
    # about 21 KiB per replica; blocked, only the checkpoint outputs grow.
    def peak(replicas):
        tracemalloc.start()
        try:
            simulate_logvol_batch(P_STD, 10, range(replicas), 5, (5, 10))
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    block = logvol._BLOCK_ROWS
    growth = peak(6 * block) - peak(2 * block)
    extra_outputs = 2 * (4 * block) * 8  # two checkpoints, four more blocks of doubles
    assert growth <= extra_outputs + 64 * 1024


@pytest.mark.parametrize("coeffs", [geometric_ma(0.5, 512), fractional_ma(0.1, 512), (0.1,)],
                         ids=["geometric", "fractional", "one-tap"])
def test_environment_memory_is_the_block_it_states(coeffs):
    # Beside eta and its result, ma_env_values holds one block, the size the
    # logvol-couple memory estimate counts for it; 1,500 rows span two blocks.
    p = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=coeffs)
    eta = replica_rng(3, 0).standard_normal((1500, p.lag + 100 + 2))
    tracemalloc.start()
    try:
        env = ma_env_values(p, eta)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - env.nbytes <= block_working_bytes(p.lag, p.ma_rate, 100, len(eta), draws=False)
