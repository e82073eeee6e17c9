import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.signal import fftconvolve

from splitcouple import fracvol
from splitcouple.errors import RunError
from splitcouple.fracvol import (
    _kernel_taps,
    _volatility_paths,
    IncrementConstants,
    SdeParams,
    VolatilityKernel,
    dissipativity_check,
    discrete_log_vol_variance,
    euler_step,
    increment_constants,
    increment_moment_check,
    linear_drift,
    saturating_drift,
    simulate_ensemble,
)
from splitcouple.metrics import tv_empirical, tv_empirical_se
from splitcouple.streams import ConvPlan, replica_rng

EXP_KERNEL = VolatilityKernel(kind="exponential", lam=1.0)
FRAC_KERNEL = VolatilityKernel(kind="fractional", h=0.1)


def _params(**kw):
    defaults = dict(zeta=linear_drift(1.0), kernel=EXP_KERNEL, rho=0.3)
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
    # exponential: the energy past the burn-in window is negligible
    burn = 10.0
    full = EXP_KERNEL.k2_integral(burn, burn)
    assert (EXP_KERNEL.k2_integral(2 * burn, burn) - full) / full < 1e-3
    assert full == pytest.approx((1 - math.exp(-20.0)) / 2.0, rel=1e-12)
    # fractional: the kernel is cut at its memory, so the integral is constant
    mem = FRAC_KERNEL.resolved_memory(burn)
    assert mem == pytest.approx(1.0)
    v1 = FRAC_KERNEL.k2_integral(burn, burn)
    v2 = FRAC_KERNEL.k2_integral(2 * burn, burn)
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
    flat = VolatilityKernel(kind="exponential", lam=1.0, scale=0.0)
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


def test_euler_step_arithmetic():
    p = _params(dt=0.01, rho=0.0)
    # linear drift vanishes at zero, leaving -V^2/2 dt + V dW
    assert euler_step(p, 0.0, 1.0, 0.0, 0.1) == pytest.approx(-0.005 + 0.1, rel=1e-15)
    # degenerate V = 0 freezes everything but the drift
    assert euler_step(p, 1.7, 0.0, 0.3, 0.4) == pytest.approx(1.7 * (1 - p.dt), rel=1e-12)


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
        l = l + (p.zeta.fn(l) - 0.5) * dt + v * dw
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
    with pytest.raises(ValueError):
        _params(rho=1.0)
    with pytest.raises(ValueError):
        _params(dt=-0.1)
    bad_drift = saturating_drift(1.0, 1.0)
    object.__setattr__(bad_drift, "diss_alpha", 5.0)  # impossible declaration
    with pytest.raises(ValueError):
        _params(zeta=bad_drift)


def test_simulate_ensemble_share_noise_determinism():
    p = _params(dt=1.0 / 64.0, horizon=2.0)
    res1 = simulate_ensemble(p, [0.5, 0.5], 200, [1.0, 2.0], seed=9)
    # identical starts with shared noise produce identical samples
    assert np.array_equal(res1.samples[0], res1.samples[1])
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracvol, "_DEFAULT_CHUNK", 37)  # 37 does not divide 200
        res2 = simulate_ensemble(p, [0.5, 0.5], 200, [1.0, 2.0], seed=9)
    assert np.array_equal(res1.samples, res2.samples)


def test_shared_noise_pair_equals_single_starts():
    # stepping both starts over one draw of the noise is exactly the same
    # arithmetic as running each start on its own
    p = _params(dt=1.0 / 64.0, horizon=2.0)
    times = [0.0, 0.5, 2.0]
    pair = simulate_ensemble(p, [-2.0, 2.0], 150, times, seed=4)
    singles = [simulate_ensemble(p, [l0], 150, times, seed=4).samples[0] for l0 in (-2.0, 2.0)]
    assert np.array_equal(pair.samples, np.stack(singles))


@pytest.mark.parametrize("kappa,kernel", [(1.0, EXP_KERNEL), (2.5, FRAC_KERNEL)])
def test_linear_drift_ensembles_are_exact_translates(kappa, kernel):
    # With linear drift the Euler step is affine in the state, so on shared
    # noise two starts a, b differ after k steps by exactly (1 - kappa dt)^k (a - b).
    # A wrong checkpoint step, a drift off by a factor, or noise that differs
    # between the starts breaks this by far more than rounding, which stays
    # within a few ulps of the largest states (13 ulps of 2 here).
    p = _params(zeta=linear_drift(kappa), kernel=kernel, dt=1.0 / 64.0, horizon=4.0)
    a, b = -2.0, 2.0
    res = simulate_ensemble(p, [a, b], 64, [0.0, 0.5, 1.0, 2.0, 4.0], seed=11)
    for i, t in enumerate(res.checkpoint_times):
        k = round(t / p.dt)
        gap = res.samples[0, i] - res.samples[1, i]
        assert np.max(np.abs(gap - (1.0 - kappa * p.dt) ** k * (a - b))) <= 32 * np.spacing(b)


def test_ensemble_matches_scalar_reference_path():
    # One replica recomputed from its own stream with a direct left-point sum
    # for J and a scalar left-point Euler step: this names a noise layout or
    # volatility timing fault that the translate identity cannot see.
    p = _params(kernel=FRAC_KERNEL, dt=1.0 / 64.0, horizon=2.0)
    res = simulate_ensemble(p, [-2.0, 2.0], 8, [0.5, 2.0], seed=11)
    rng = replica_rng(11, 5)
    sqrt_dt = math.sqrt(p.dt)
    db = rng.standard_normal(p.burn_steps + p.horizon_steps) * sqrt_dt
    dw = rng.standard_normal(p.horizon_steps) * sqrt_dt
    taps = _kernel_taps(p.kernel, p.dt, p.burn_in)
    for s, l0 in enumerate((-2.0, 2.0)):
        path = [l0]
        for k in range(p.horizon_steps):
            v = math.exp(float(np.dot(taps, db[k : k + taps.size][::-1])))
            path.append(float(euler_step(p, path[-1], v, db[p.burn_steps + k], dw[k])))
        for i, t in enumerate(res.checkpoint_times):
            assert res.samples[s, i, 5] == pytest.approx(path[round(t / p.dt)], abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(
    kernel=st.sampled_from([EXP_KERNEL, FRAC_KERNEL]),
    replicas=st.integers(1, 30),
    chunk=st.integers(1, 12),
    block=st.integers(1, 5),
)
def test_chunking_and_blocking_are_invisible_bit_for_bit(kernel, replicas, chunk, block):
    # Small chunks and blocks give partial blocks inside partial chunks, a
    # block wider than its chunk, and runs shorter than one block.  The
    # reference draws, convolves and steps every replica in one pass.
    p = _params(kernel=kernel, dt=1.0 / 16.0, horizon=2.0)
    args = (p, [-1.0, 0.5, 1.0], replicas, [0.0, 0.5, 2.0], 9)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(fracvol, "_DEFAULT_CHUNK", replicas)
        mp.setattr(fracvol, "_BLOCK_ROWS", replicas)
        whole = simulate_ensemble(*args)
        mp.setattr(fracvol, "_DEFAULT_CHUNK", chunk)
        mp.setattr(fracvol, "_BLOCK_ROWS", block)
        split = simulate_ensemble(*args)
    assert split.checkpoint_times == whole.checkpoint_times
    assert split.log_vol_variance == whole.log_vol_variance
    assert np.array_equal(split.samples, whole.samples)


def test_simulate_ensemble_resource_cap():
    p = _params()
    with pytest.raises(RunError):
        simulate_ensemble(p, [0.0], 10**9, [1.0], seed=1)


def test_initialization_forgetting_small():
    p = _params(dt=1.0 / 128.0, horizon=14.0)
    res = simulate_ensemble(p, [-2.0, 2.0], 3000, [2.0, 6.0, 10.0, 12.0, 14.0], seed=23)
    tvs, ses = [], []
    for i, t in enumerate(res.checkpoint_times):
        a, b = res.samples[0, i], res.samples[1, i]
        tvs.append(tv_empirical(a, b))
        ses.append(tv_empirical_se(a, b))
    assert tvs[-1] < 0.15
    for i in range(len(tvs) - 1):
        assert tvs[i + 1] <= tvs[i] + 3 * math.hypot(ses[i], ses[i + 1])
    # stationarity transfer: the last three checkpoints share mean and variance
    # (variance SEs account for the heavy tails of the volatility mixture)
    n = res.samples.shape[-1]

    def var_se(x):
        c = x - x.mean()
        return math.sqrt(max(np.mean(c**4) - x.var() ** 2, 0.0) / n)

    for j in (3, 4):
        a, b = res.samples[0, 2], res.samples[0, j]
        assert abs(a.mean() - b.mean()) < 4 * math.sqrt(a.var() / n + b.var() / n)
        assert abs(a.var() - b.var()) < 4 * math.hypot(var_se(a), var_se(b))


def test_increment_check_zero_lag():
    consts = IncrementConstants(growth_k=1.0, l_tilde=1.0, ev2=1.0, ev4=1.0)
    same = np.zeros(100)
    check = increment_moment_check(same, same, 0.0, consts)
    assert check.passed and check.empirical == 0.0 and check.bound == 0.0


def test_increment_check_constant_coefficients():
    # zero drift, unit volatility: increment over h is N(-h/2, h) exactly,
    # so the second moment is h^2/4 + h and the bound dominates it
    rng = np.random.default_rng(8)
    h, n = 0.25, 200_000
    base = np.zeros(n)
    shifted = -h / 2.0 + math.sqrt(h) * rng.standard_normal(n)
    consts = IncrementConstants(growth_k=1e-12, l_tilde=1.0, ev2=1.0, ev4=1.0)
    check = increment_moment_check(base, shifted, h, consts)
    exact = h * h / 4.0 + h
    assert abs(check.empirical - exact) < 4 * check.se
    assert check.passed
    assert check.bound == pytest.approx(6 * h * h * (1e-12 * 2 + 0.25) + 6 * h, rel=1e-9)


def test_increment_scaling_linear_in_h():
    p = _params(dt=1.0 / 128.0, horizon=6.0)
    h1, h2 = 8 * p.dt, 16 * p.dt
    times = [5.0, 5.0 + h1, 5.0 + h2]
    res = simulate_ensemble(p, [0.0], 20_000, times, seed=77)
    base = res.at(0, 5.0)
    m1 = np.mean((res.at(0, 5.0 + h1) - base) ** 2)
    m2 = np.mean((res.at(0, 5.0 + h2) - base) ** 2)
    assert 1.4 < m2 / m1 < 2.6


def test_increment_check_from_ensemble():
    p = _params(dt=1.0 / 128.0, horizon=6.0)
    h = 16 * p.dt
    res = simulate_ensemble(p, [0.0], 5000, [5.0, 5.0 + h], seed=5)
    l_tilde = max(float(np.mean(res.samples[0, j] ** 2)) for j in range(2))
    consts = increment_constants(p, l_tilde)
    check = increment_moment_check(res.at(0, 5.0), res.at(0, 5.0 + h), h, consts)
    assert check.passed
