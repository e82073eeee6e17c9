import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from oracles import k2_integral
from splitcouple import fracvol
from splitcouple.errors import RunError
from splitcouple.fracvol import (
    _kernel_taps,
    _volatility_paths,
    SdeParams,
    VolatilityKernel,
    dissipativity_check,
    discrete_log_vol_variance,
    euler_step,
    increment_moment_check,
    linear_drift,
    saturating_drift,
    simulate_ensemble,
)
from splitcouple.metrics import tv_empirical, tv_empirical_se
from splitcouple.streams import ConvPlan, ScanPlan, replica_rng

EXP_KERNEL = VolatilityKernel(kind="exponential", lam=1.0)
FRAC_KERNEL = VolatilityKernel(kind="fractional", h=0.1)


def _params(**kw):
    defaults = dict(zeta=linear_drift(1.0), kernel=EXP_KERNEL, rho=0.3, dt=1.0 / 256.0,
                    horizon=20.0, burn_in=10.0)
    defaults.update(kw)
    return SdeParams(**defaults)


def test_kernel_validation():
    with pytest.raises(ValueError):
        VolatilityKernel(kind="weird")
    with pytest.raises(ValueError):
        VolatilityKernel(kind="exponential", lam=0.0)
    with pytest.raises(ValueError):
        VolatilityKernel(kind="fractional", h=1.5)


def test_kernel_square_integral_saturates():
    # exponential: the energy past the burn-in window, which the cut kernel
    # drops, is the uncut tail exp(-2 lam burn) / (2 lam): negligible beside
    # the window's energy
    burn, lam = 10.0, EXP_KERNEL.lam
    full = k2_integral(EXP_KERNEL, burn, burn)
    tail = math.exp(-2.0 * lam * burn) / (2.0 * lam)
    assert tail / full < 1e-3
    assert full == pytest.approx((1 - math.exp(-20.0)) / 2.0, rel=1e-12)
    # fractional: the kernel is cut at its memory, so the integral is constant
    mem = FRAC_KERNEL.resolved_memory(burn)
    assert mem == pytest.approx(1.0)
    v1 = k2_integral(FRAC_KERNEL, burn, burn)
    v2 = k2_integral(FRAC_KERNEL, 2 * burn, burn)
    assert v1 == v2 == pytest.approx(mem**0.2, rel=1e-12)


def test_memory_scale_supports_burn_in_invariant():
    assert EXP_KERNEL.memory_scale(10.0) == 1.0
    frac_scale = FRAC_KERNEL.memory_scale(10.0)
    assert 10.0 >= 10.0 * frac_scale  # burn_in of 10 passes the validation
    with pytest.raises(ValueError):
        _params(burn_in=0.5)  # shorter than 10x the exponential memory scale


def _one_path(kernel, db, dt, burn_in):
    plan = ConvPlan(_kernel_taps(kernel, dt, burn_in), 1, db.size)
    return _volatility_paths(plan, db[None, :])[0]


def test_volatility_path_zero_kernel():
    # lam dt = 1e5 > 745: every tap underflows to 0, so J = 0 and V = 1
    flat = VolatilityKernel(kind="exponential", lam=1e6)
    v = _one_path(flat, np.ones(300), dt=0.1, burn_in=10.0)
    assert np.all(v == 1.0)


def test_volatility_paths_shape_and_sign():
    # one value per grid point after the burn-in window, endpoint included
    dt, burn = 1.0 / 64.0, 10.0
    n_inc = int(burn / dt) + 128
    db = replica_rng(1, 0).standard_normal(n_inc) * math.sqrt(dt)
    v = _one_path(EXP_KERNEL, db, dt, burn)
    assert v.shape == (129,)
    assert np.all(v > 0.0)


@pytest.mark.parametrize("kernel", [EXP_KERNEL, FRAC_KERNEL])
def test_volatility_paths_match_fftconvolve(kernel):
    # The reused buffers reproduce scipy's fftconvolve bit for bit, for a
    # full block and for a partial one refilled after it.
    dt, burn = 1.0 / 64.0, 10.0
    n_inc = int(burn / dt) + 200
    db = replica_rng(3, 0).standard_normal((37, n_inc)) * math.sqrt(dt)
    taps = _kernel_taps(kernel, dt, burn)
    want = np.exp(fftconvolve(db, taps[None, :], mode="valid", axes=1))
    plan = ConvPlan(taps, 32, n_inc)
    for lo, hi in ((0, 32), (32, 37)):
        assert np.array_equal(_volatility_paths(plan, db[lo:hi]), want[lo:hi])


@pytest.mark.parametrize("kernel, dt", [
    (FRAC_KERNEL, 1.0 / 64.0),  # cut at 1 = burn_in / 10: 64 of 640 taps are nonzero
    (FRAC_KERNEL, 1.0 / 256.0),  # perfbench's sde-frac: 256 of 2,560
    (EXP_KERNEL, 1.0 / 256.0),  # the shipped sde-sim: every tap is reached
    (EXP_KERNEL, 0.35),  # the last tap, at 10.15 > burn_in, is cut to 0
    (VolatilityKernel("exponential", lam=1e6), 1.0 / 64.0),  # every tap underflows to 0
], ids=["fractional-64", "fractional-256", "exponential-256", "exponential-cut", "underflow"])
def test_the_ensemble_convolves_only_the_taps_its_kernel_reaches(monkeypatch, kernel, dt):
    # The plan is built on the taps up to the last nonzero one (at least one)
    # and fed the increments they touch.  A transform of fewer taps rounds
    # differently from the full one; a scan over the same nonzero taps skips
    # the zero tail itself, so it keeps every bit.
    plans, vols = [], []
    real_plan, real_paths = fracvol.ma_plan, fracvol._volatility_paths

    def spy_plan(taps, rows, n_in, rate):
        plans.append((taps.copy(), n_in))
        return real_plan(taps, rows, n_in, rate)

    def spy_paths(plan, db):
        out = real_paths(plan, db)
        vols.append(out.copy())
        return out

    monkeypatch.setattr(fracvol, "ma_plan", spy_plan)
    monkeypatch.setattr(fracvol, "_volatility_paths", spy_paths)
    p = _params(kernel=kernel, dt=dt, horizon=20 * dt)
    simulate_ensemble(p, [-1.0, 1.0], range(3), [20], seed=9)  # the three replicas are one block
    (reach_taps, n_in), = plans
    taps = _kernel_taps(kernel, dt, p.burn_in)
    reach, b, n_inc = reach_taps.size, p.burn_steps, p.burn_steps + p.horizon_steps
    assert np.array_equal(reach_taps, taps[:reach]) and not np.any(taps[reach:])
    assert n_in == p.horizon_steps + reach
    db = np.stack([replica_rng(9, k).standard_normal(n_inc) for k in range(3)]) * math.sqrt(dt)
    if kernel.kind == "fractional":
        assert reach == b // 10 and np.all(reach_taps != 0.0)
        window = fftconvolve(db[:, b - reach :], reach_taps[None, :], mode="valid", axes=1)
        assert np.array_equal(vols[0], np.exp(window))
        full = fftconvolve(db, taps[None, :], mode="valid", axes=1)
        assert np.max(np.abs(window - full)) <= 1e-14
    else:
        assert reach == max(1, np.count_nonzero(taps))
        full = real_paths(ScanPlan(taps, kernel.rate(dt), 3, n_inc), db)
        assert np.array_equal(vols[0], full)


@pytest.mark.parametrize("kernel,analytic", [
    (EXP_KERNEL, (1 - math.exp(-20.0)) / 2.0),
    (FRAC_KERNEL, 1.0),  # memory 1 at burn_in 10, integral mem^{2h}
])
def test_volatility_variance_matches_isometry(kernel, analytic):
    dt, burn = 1.0 / 128.0, 10.0
    p = _params(kernel=kernel, dt=dt, horizon=1.0, burn_in=burn)
    discrete = discrete_log_vol_variance(p)
    reps, block = 8000, 500
    n_inc = p.burn_steps + p.horizon_steps
    # One batched convolution per block of replicas.
    plan = ConvPlan(_kernel_taps(kernel, dt, burn), block, n_inc)
    j_end = np.empty(reps)
    for lo in range(0, reps, block):
        db = np.stack([replica_rng(5, r).standard_normal(n_inc) * math.sqrt(dt)
                       for r in range(lo, lo + block)])
        j_end[lo:lo + block] = [math.log(v) for v in _volatility_paths(plan, db)[:, -1]]
    se = discrete * math.sqrt(2.0 / reps)
    assert abs(j_end.var() - discrete) < 4 * se
    # discretization budget: left-point sum vs the continuum integral
    budget = dt if kernel.kind == "exponential" else dt ** (2 * kernel.h)
    assert abs(discrete - analytic) <= budget


DRIFTS = [linear_drift(2.0), saturating_drift(2.0, 0.5)]


def test_euler_step_arithmetic():
    # The step writes the drift into its buffers by the allocating form's
    # operations in the same order, so it equals L + zeta(L) dt + q bit for
    # bit; states step in place, and each replica's q broadcasts over them.
    allocating = [lambda x: -2.0 * x, lambda x: -2.0 * x + 0.5 * np.sin(x)]
    rng = np.random.default_rng(5)
    for zeta, zeta_of in zip(DRIFTS, allocating):
        p = _params(zeta=zeta, dt=0.01)
        L = rng.standard_normal((2, 64)) * 10.0 ** rng.integers(-3, 4, (2, 64))
        L[:, :4] = [[0.0, -0.0, 1e3, -1e3], [-0.0, 0.0, -1e3, 1e3]]
        q = rng.standard_normal(64)
        want = L + zeta_of(L) * p.dt + q
        assert euler_step(p, L, q, np.empty_like(L), np.empty_like(L)) is L
        assert np.array_equal(L.view(np.int64), want.view(np.int64))


@pytest.mark.parametrize("zeta", DRIFTS, ids=["linear", "saturating"])
def test_euler_steps_allocate_nothing(zeta):
    # 1,000 steps of a (2, 250) chunk's states: a step that allocated its
    # drift, or added q by a ufunc that broadcasts it (which buffers), would
    # hold an array of the states' shape, 4,000 B; the traced peak must stay
    # under one 2,000-B row of q
    p = _params(zeta=zeta, dt=0.01)
    rng = np.random.default_rng(8)
    L = rng.standard_normal((2, 250))
    q = rng.standard_normal((1000, 250)) * 1e-3
    drift, scratch = np.empty_like(L), np.empty_like(L)
    tracemalloc.start()
    try:
        for q_row in q:
            L = euler_step(p, L, q_row, drift, scratch)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < q[0].nbytes


def test_euler_matches_exact_ou():
    # constant unit volatility, zero correlation: the exact law is OU
    dt = 1.0 / 256.0
    p = _params(dt=dt, horizon=2.0, rho=0.0)
    reps, steps = 20_000, int(2.0 / dt)
    rng = np.random.default_rng(31)
    l = np.full(reps, 1.5)
    v = np.ones(reps)
    for _ in range(steps):
        dw = rng.standard_normal(reps) * math.sqrt(dt)
        l = l + (p.zeta.values(l) - 0.5) * dt + v * dw
    t = 2.0
    mean_exact = 1.5 * math.exp(-t) - 0.5 * (1 - math.exp(-t))  # drift shifted by -V^2/2
    var_exact = (1 - math.exp(-2 * t)) / 2.0
    budget = 3.0 * dt
    assert abs(l.mean() - mean_exact) <= budget + 4 * math.sqrt(var_exact / reps)
    assert abs(l.var() - var_exact) <= budget + 4 * var_exact * math.sqrt(2.0 / reps)


def test_dissipativity_check_values():
    grid = np.linspace(-50, 50, 2001)
    assert dissipativity_check(lambda x: -x, 1.0, 0.0, grid) == 0.0
    assert dissipativity_check(lambda x: -x + np.sin(x), 0.5, 0.5, grid) >= 0.0
    assert dissipativity_check(lambda x: x, 1.0, 10.0, grid) < 0.0


def test_params_validation():
    # each refusal starts with the field it refuses, which config keys it by
    with pytest.raises(ValueError, match="^rho "):
        _params(rho=1.0)
    with pytest.raises(ValueError, match="^dt "):
        _params(dt=-0.1)
    with pytest.raises(ValueError, match="^horizon "):
        _params(horizon=0.001)
    with pytest.raises(ValueError, match="^burn_in "):
        _params(burn_in=0.5)
    bad_drift = saturating_drift(1.0, 1.0)
    object.__setattr__(bad_drift, "diss_alpha", 5.0)  # impossible declaration
    with pytest.raises(ValueError, match="^zeta .*dissipativity"):
        _params(zeta=bad_drift)
    steep = saturating_drift(1.0, 1.0)
    object.__setattr__(steep, "lipschitz", 1.5)  # the slope -1 + cos x reaches -2
    with pytest.raises(ValueError, match="^zeta .*Lipschitz"):
        _params(zeta=steep)
    # a linear drift's difference quotients round off its slope, and still certify
    for drift in (linear_drift(600.0), linear_drift(1e150), saturating_drift(400.0, 200.0)):
        _params(zeta=drift)


def test_simulate_ensemble_share_noise_determinism():
    p = _params(dt=1.0 / 64.0, horizon=2.0)
    res1 = simulate_ensemble(p, [0.5, 0.5], range(200), [64, 128], seed=9)
    # identical starts with shared noise produce identical samples
    assert np.array_equal(res1[0], res1[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracvol, "_DEFAULT_CHUNK", 37)  # six chunks of 33 or 34
        res2 = simulate_ensemble(p, [0.5, 0.5], range(200), [64, 128], seed=9)
    assert np.array_equal(res1, res2)


def test_shared_noise_pair_equals_single_starts():
    # stepping both starts over one draw of the noise is exactly the same
    # arithmetic as running each start on its own
    p = _params(dt=1.0 / 64.0, horizon=2.0)
    steps = [0, 32, 128]
    pair = simulate_ensemble(p, [-2.0, 2.0], range(150), steps, seed=4)
    singles = [simulate_ensemble(p, [l0], range(150), steps, seed=4)[0] for l0 in (-2.0, 2.0)]
    assert np.array_equal(pair, np.stack(singles))


@pytest.mark.parametrize("kappa,kernel", [(1.0, EXP_KERNEL), (2.5, FRAC_KERNEL)])
def test_linear_drift_ensembles_are_exact_translates(kappa, kernel):
    # With linear drift the Euler step is affine in the state, so on shared
    # noise two starts a, b differ after k steps by exactly (1 - kappa dt)^k (a - b).
    # A wrong checkpoint step, a drift off by a factor, or noise that differs
    # between the starts breaks this by far more than rounding, which stays
    # within a few ulps of the largest states (13 ulps of 2 here).
    p = _params(zeta=linear_drift(kappa), kernel=kernel, dt=1.0 / 64.0, horizon=4.0)
    a, b = -2.0, 2.0
    steps = [0, 32, 64, 128, 256]
    res = simulate_ensemble(p, [a, b], range(64), steps, seed=11)
    for i, k in enumerate(steps):
        gap = res[0, i] - res[1, i]
        assert np.max(np.abs(gap - (1.0 - kappa * p.dt) ** k * (a - b))) <= 32 * np.spacing(b)


def test_ensemble_matches_scalar_reference_path():
    # One replica recomputed from its own stream with a direct left-point sum
    # for J and the scalar left-point Euler step written out term by term:
    # this names a noise layout, volatility timing or state-free-part fault
    # that the translate identity cannot see.
    p = _params(kernel=FRAC_KERNEL, dt=1.0 / 64.0, horizon=2.0)
    steps = [32, 128]
    res = simulate_ensemble(p, [-2.0, 2.0], range(8), steps, seed=11)
    rng = replica_rng(11, 5)
    sqrt_dt = math.sqrt(p.dt)
    db = rng.standard_normal(p.burn_steps + p.horizon_steps) * sqrt_dt
    dw = rng.standard_normal(p.horizon_steps) * sqrt_dt
    taps = _kernel_taps(p.kernel, p.dt, p.burn_in)
    for s, l0 in enumerate((-2.0, 2.0)):
        path = [l0]
        for k in range(p.horizon_steps):
            v = math.exp(float(np.dot(taps, db[k : k + taps.size][::-1])))
            l, dbk = path[-1], db[p.burn_steps + k]
            drift = (float(p.zeta.values(l)) - v * v / 2.0) * p.dt
            path.append(l + drift + p.rho * v * dbk + math.sqrt(1.0 - p.rho**2) * v * dw[k])
        for i, k in enumerate(steps):
            assert res[s, i, 5] == pytest.approx(path[k], abs=1e-12)


@pytest.mark.parametrize("replicas, chunk", [
    (1000, 250), (5000, 250), (770, 193), (512, 256), (256, 256), (1, 1),
    (1537, 220),  # stepping by 220 would leave a last chunk of 217
])
def test_chunks_are_the_fewest_under_the_cap_and_equal(replicas, chunk):
    # The q series is sized to the largest chunk, so the chunks are as equal
    # as whole replicas allow: 1,000 replicas hold 250 rows, not 256, and a
    # part of the shipped sde-sim run, 5,000 replicas, 20 chunks of 250.
    assert fracvol._chunk_sizes(replicas)[0] == chunk
    cuts = fracvol._chunk_cuts(replicas)
    sizes = np.diff(cuts)
    assert cuts[0] == 0 and cuts[-1] == replicas
    assert len(sizes) == -(-replicas // fracvol._DEFAULT_CHUNK)
    assert sizes.max() == chunk <= fracvol._DEFAULT_CHUNK
    assert sizes.max() - sizes.min() <= 1


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from([EXP_KERNEL, FRAC_KERNEL]),
    replicas=st.integers(1, 30),
    chunk=st.integers(1, 12),
    block=st.integers(1, 5),
    start=st.integers(0, 7),
)
def test_chunking_and_blocking_are_invisible_bit_for_bit(kernel, replicas, chunk, block, start):
    # Small chunks and blocks give partial blocks inside partial chunks and
    # runs shorter than one block, over a range that starts at replica
    # ``start``, as a forked part's does.  The reference draws, convolves and
    # steps every replica from 0 in one pass.
    p = _params(kernel=kernel, dt=1.0 / 16.0, horizon=2.0)
    args = (p, [-1.0, 0.5, 1.0])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracvol, "_DEFAULT_CHUNK", start + replicas)
        mp.setattr(fracvol, "_BLOCK_ROWS", start + replicas)
        whole = simulate_ensemble(*args, range(start + replicas), [0, 8, 32], 9)
        mp.setattr(fracvol, "_DEFAULT_CHUNK", chunk)
        mp.setattr(fracvol, "_BLOCK_ROWS", block)
        split = simulate_ensemble(*args, range(start, start + replicas), [0, 8, 32], 9)
    assert np.array_equal(split, whole[..., start:])


def test_simulate_ensemble_resource_cap():
    p = _params()
    with pytest.raises(RunError):
        simulate_ensemble(p, [0.0], range(10**9), [256], seed=1)


def test_step_of_snaps_to_the_nearest_grid_step():
    p = _params(dt=1.0 / 64.0, horizon=3.0, burn_in=10.0)
    assert p.step_of(p.horizon) == p.horizon_steps == 192
    assert p.step_of(p.burn_in) == p.burn_steps == 640
    # 2.1 and 2 + 0.1 both snap to step 134, the grid time 2.09375
    assert p.step_of(2.1) == p.step_of(2.0) + p.step_of(0.1) == 134
    assert p.step_of(0.0) == 0 and p.step_of(0.49 * p.dt) == 0 and p.step_of(0.51 * p.dt) == 1


@pytest.mark.parametrize("steps", [
    [64, 32],  # unsorted
    [32, 32, 64],  # repeated
    [-1, 32],  # before the start
    [32, 129],  # past the horizon (128 steps)
    [0.0, 32.0],  # times, not steps
    [],
], ids=["unsorted", "repeated", "negative", "past-horizon", "floats", "empty"])
def test_simulate_ensemble_refuses_steps_that_are_not_increasing_grid_steps(steps):
    p = _params(dt=1.0 / 64.0, horizon=2.0)
    with pytest.raises(ValueError, match=r"steps must be increasing grid steps in \[0, 128\]"):
        simulate_ensemble(p, [-1.0, 1.0], range(4), steps, seed=9)
    res = simulate_ensemble(p, [-1.0, 1.0], range(4), [0, 128], seed=9)
    assert res.shape == (2, 2, 4) and np.array_equal(res[:, 0], [[-1.0] * 4, [1.0] * 4])


def test_initialization_forgetting_small():
    p = _params(dt=1.0 / 128.0, horizon=14.0)
    res = simulate_ensemble(p, [-2.0, 2.0], range(3000), [256, 768, 1280, 1536, 1792], seed=23)
    tvs, ses = [], []
    for i in range(res.shape[1]):
        a, b = res[0, i], res[1, i]
        tvs.append(tv_empirical(a, b))
        ses.append(tv_empirical_se(a, b))
    assert tvs[-1] < 0.15
    for i in range(len(tvs) - 1):
        assert tvs[i + 1] <= tvs[i] + 3 * math.hypot(ses[i], ses[i + 1])
    # stationarity transfer: the last three checkpoints share mean and variance
    # (variance SEs account for the heavy tails of the volatility mixture)
    n = res.shape[-1]

    def var_se(x):
        c = x - x.mean()
        return math.sqrt(max(np.mean(c**4) - x.var() ** 2, 0.0) / n)

    for j in (3, 4):
        a, b = res[0, 2], res[0, j]
        assert abs(a.mean() - b.mean()) < 4 * math.sqrt(a.var() / n + b.var() / n)
        assert abs(a.var() - b.var()) < 4 * math.hypot(var_se(a), var_se(b))


def test_increment_check_zero_lag():
    # growth constant 1, L~ = 1 and unit moments (log-vol variance 0)
    same = np.zeros(100)
    passed, check = increment_moment_check(same, same, 0.0, 1.0, 1.0, 0.0)
    assert passed and check["empirical"] == 0.0 and check["bound"] == 0.0


def test_increment_check_constant_coefficients():
    # zero drift, unit volatility: increment over h is N(-h/2, h) exactly,
    # so the second moment is h^2/4 + h and the bound dominates it
    rng = np.random.default_rng(8)
    h, n = 0.25, 200_000
    base = np.zeros(n)
    shifted = -h / 2.0 + math.sqrt(h) * rng.standard_normal(n)
    # growth constant 1e-12, L~ = 1 and unit moments (log-vol variance 0)
    passed, check = increment_moment_check(base, shifted, h, 1e-12, 1.0, 0.0)
    exact = h * h / 4.0 + h
    assert abs(check["empirical"] - exact) < 4 * check["se"]
    assert passed
    assert check["bound"] == pytest.approx(6 * h * h * (1e-12 * 2 + 0.25) + 6 * h, rel=1e-9)


def test_increment_scaling_linear_in_h():
    p = _params(dt=1.0 / 128.0, horizon=6.0)
    # t = 5 is step 640; the lags are 8 and 16 steps
    res = simulate_ensemble(p, [0.0], range(20_000), [640, 648, 656], seed=77)
    base = res[0, 0]
    m1 = np.mean((res[0, 1] - base) ** 2)
    m2 = np.mean((res[0, 2] - base) ** 2)
    assert 1.4 < m2 / m1 < 2.6


def test_increment_check_from_ensemble():
    p = _params(dt=1.0 / 128.0, horizon=6.0)
    h = 16 * p.dt
    res = simulate_ensemble(p, [0.0], range(5000), [640, 656], seed=5)  # t = 5 and 5 + h
    l_tilde = max(float(np.mean(res[0, j] ** 2)) for j in range(2))
    passed, _ = increment_moment_check(res[0, 0], res[0, 1], h, p.zeta.growth_k, l_tilde,
                                       discrete_log_vol_variance(p))
    assert passed


@pytest.mark.parametrize("kernel", [EXP_KERNEL, VolatilityKernel("exponential", lam=2.5),
                                    FRAC_KERNEL], ids=["exp-1", "exp-2.5", "fractional"])
def test_kernel_rate_is_the_decay_of_its_taps_a_step(kernel):
    # The ensemble's plan and its memory estimate both take the rate from here.
    dt = 1.0 / 64.0
    rate = kernel.rate(dt)
    if kernel.kind == "fractional":
        assert rate is None
    else:
        taps = _kernel_taps(kernel, dt, 10.0)
        np.testing.assert_allclose(taps[1:] / taps[:-1], math.exp(-rate), rtol=1e-12)
