import dataclasses
import itertools
import math
import warnings
from types import SimpleNamespace

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.special import ndtr, ndtri
from scipy.stats import kstest

from oracles import closed_form_inverse_reference, normal_density, validate_minorization
from splitcouple.ar1 import ar1_alpha, ar1_split_kernel
from splitcouple.errors import CertificationError
from splitcouple.kernels import (
    SmallSetLadder,
    _closed_form_inverse,
    _split_inverse,
    normal_pdf,
    split_apply_batch,
)
from splitcouple.logvol import LogvolParams, geometric_ma, logvol_kernel, logvol_ladder

GAMMA = 0.5


@pytest.fixture(scope="module")
def kernel():
    return ar1_split_kernel(GAMMA, n_max=8)


def _residual_quantile(kernel, n, x, u):
    """Quantile of the residual law (Q(x, .) - alpha_n nu) / (1 - alpha_n) at u."""
    a = np.array([kernel.ladder.alphas[n]])
    return float(_split_inverse(kernel, np.array([x], float), np.array([u], float), a)[0])


def _kernel_quantile(kernel, x, u):
    """Quantile of the full conditional law Q(x, .) at u."""
    return float(_split_inverse(kernel, np.array([x], float), np.array([u], float), np.zeros(1))[0])


def _apply_one(kernel, n, x, u1, u2):
    """The split mapping at one state, as a one-element batch."""
    return float(split_apply_batch(kernel, n, np.array([x]), np.array([u1]), np.array([u2]))[0])


def test_uniform_pair_validation(kernel):
    _apply_one(kernel, 2, 0.0, 0.0, 1.0)
    # a NaN u1 never regenerated, and a NaN u2 ran 200 Newton steps to a CertificationError
    for u1, u2 in ((1.5, 0.2), (math.nan, 0.2), (0.5, math.nan)):
        with pytest.raises(ValueError, match="uniform pair"):
            _apply_one(kernel, 2, 0.0, u1, u2)


def test_ladder_invariants():
    with pytest.raises(ValueError):
        SmallSetLadder(alphas=(0.4, 0.5))  # alphas increasing
    with pytest.raises(ValueError):
        SmallSetLadder(alphas=(0.0,))  # alpha outside (0, 1]
    with pytest.raises(ValueError):
        SmallSetLadder(alphas=())


def test_regeneration_branch_is_constant_in_x(kernel):
    # u1 below alpha_n forces the nu branch, identical for every x in the set.
    rng = np.random.default_rng(101)
    for _ in range(200):
        n = rng.integers(1, 6)
        a = kernel.ladder.alphas[n]
        u1, u2 = float(rng.random() * a), float(rng.random())
        x1, x2 = rng.uniform(-n, n, size=2)
        y1 = _apply_one(kernel, int(n), float(x1), u1, u2)
        y2 = _apply_one(kernel, int(n), float(x2), u1, u2)
        assert y1 == y2 == 2.0 * u2 - 1.0


def test_split_apply_example_values(kernel):
    # regeneration branch: u2 = 0.75 lands on nu quantile 0.5 for any x in the set
    for x in (-2.0, 0.3, 2.0):
        assert _apply_one(kernel, 2, x, 0.0, 0.75) == 0.5


def test_split_apply_law_moments(kernel):
    rng = np.random.default_rng(7)
    n_samples = 200_000
    for x in (0.0, 2.5):
        draws = split_apply_batch(
            kernel, 3, np.full(n_samples, x), rng.random(n_samples), rng.random(n_samples)
        )
        se_mean = 1.0 / np.sqrt(n_samples)
        se_var = np.sqrt(2.0 / n_samples)
        assert abs(draws.mean() - GAMMA * x) < 4 * se_mean
        assert abs(draws.var() - 1.0) < 4 * se_var


def test_residual_inverse_cdf_against_quadrature_oracle(kernel):
    # Oracle: integrate the residual density directly and invert with brentq.
    alpha2 = kernel.ladder.alphas[2]

    def resid_cdf(x, z):
        def dens(s):
            q = np.exp(-0.5 * (s - GAMMA * x) ** 2) / np.sqrt(2 * np.pi)
            nu = 0.5 if -1.0 <= s <= 1.0 else 0.0
            return (q - alpha2 * nu) / (1.0 - alpha2)

        pts = [p for p in (-1.0, 1.0) if -40.0 < p < z]
        return quad(
            dens, -40.0, z, limit=800, points=pts or None, epsabs=1e-13, epsrel=1e-13
        )[0]

    # frozen oracle outputs (quad split at the nu kinks + brentq, xtol 1e-14)
    assert abs(_residual_quantile(kernel, 2, 0.0, 0.5) - 0.0) < 1e-9
    frozen = -0.13343948222192434
    got = _residual_quantile(kernel, 2, 0.7, 0.3)
    assert abs(got - frozen) < 1e-9
    live = brentq(lambda z: resid_cdf(0.7, z) - 0.3, -10, 10, xtol=1e-14)
    assert abs(got - live) < 1e-9


def test_residual_median_approaches_kernel_median(kernel):
    # alpha_8 ~ 3e-6: the residual law is essentially Q(0, .), median 0.
    assert abs(_residual_quantile(kernel, 8, 0.0, 0.5)) < 1e-4


def test_residual_tail_diverges(kernel):
    z = _residual_quantile(kernel, 2, 0.0, 1e-12)
    assert z < -6.0


def test_residual_u_domain(kernel):
    with pytest.raises(ValueError):
        _residual_quantile(kernel, 2, 0.0, 0.0)
    with pytest.raises(ValueError):
        _residual_quantile(kernel, 2, 0.0, 1.0)
    with pytest.raises(ValueError, match="strictly inside"):
        _residual_quantile(kernel, 2, 0.0, math.nan)


def test_split_apply_off_set_ignores_u1(kernel):
    # x outside the set: only u2 matters and the full kernel CDF is inverted.
    x = 10.0
    out1 = _apply_one(kernel, 3, x, 0.0, 0.42)
    out2 = _apply_one(kernel, 3, x, 0.99, 0.42)
    assert out1 == out2
    assert abs(float(kernel.cdf(x, out1)) - 0.42) < 1e-9


def test_inverse_consistency(kernel):
    for x in (-3.0, 0.0, 1.7):
        for u in np.arange(0.01, 1.0, 0.01):
            z = _kernel_quantile(kernel, x, float(u))
            assert abs(float(kernel.cdf(x, z)) - u) <= 1e-9


def test_residual_monotone_where_certified(kernel):
    n = 2
    assert validate_minorization(kernel, n, np.linspace(-2, 2, 201), np.linspace(-1, 1, 201)) >= 0
    a = kernel.ladder.alphas[n]
    z = np.linspace(-8, 8, 4001)
    for x in (-2.0, 0.0, 1.3):
        resid = (kernel.cdf(x, z) - a * np.clip((z + 1) / 2, 0, 1)) / (1 - a)
        assert np.all(np.diff(resid) >= -1e-15)


@pytest.mark.parametrize("n", range(6))
def test_validate_minorization_margins(kernel, n):
    radius = kernel.ladder.radii[n]
    x_grid = np.linspace(-radius, radius, 201)
    z_grid = np.linspace(-1.0, 1.0, 201)
    assert validate_minorization(kernel, n, x_grid, z_grid) >= 0.0


def test_validate_minorization_detects_violation():
    # doubling every alpha makes the certificate fail on the grid boundary
    base = ar1_split_kernel(GAMMA, n_max=4)
    bad_ladder = SmallSetLadder(alphas=tuple(min(2 * a, 1.0) for a in base.ladder.alphas))
    bad = dataclasses.replace(base, ladder=bad_ladder)
    n = 2
    x_grid = np.linspace(-2, 2, 201)
    z_grid = np.linspace(-1, 1, 201)
    assert validate_minorization(bad, n, x_grid, z_grid) < 0.0


def test_validate_minorization_vanishing_alpha_limit():
    base = ar1_split_kernel(GAMMA, n_max=2)
    tiny = SmallSetLadder(alphas=(1e-300,) * 3)
    kern = dataclasses.replace(base, ladder=tiny)
    x_grid = np.linspace(-2, 2, 101)
    z_grid = np.linspace(-1, 1, 101)
    margin = validate_minorization(kern, 2, x_grid, z_grid)
    min_density = float(np.min(normal_density(base, x_grid[:, None], z_grid[None, :])))
    assert margin == pytest.approx(min_density, abs=1e-12)
    assert margin >= 0.0


def test_validate_minorization_grid_preconditions(kernel):
    with pytest.raises(ValueError):
        validate_minorization(kernel, 2, np.array([3.0]), np.array([0.0]))
    with pytest.raises(ValueError):
        validate_minorization(kernel, 2, np.array([0.0]), np.array([1.5]))
    with pytest.raises(ValueError):
        validate_minorization(kernel, 2, np.array([]), np.array([0.0]))


def test_bad_ladder_index(kernel):
    with pytest.raises(ValueError):
        _apply_one(kernel, 99, 0.0, 0.5, 0.5)


def test_scalar_matches_batch(kernel):
    rng = np.random.default_rng(3)
    x = rng.uniform(-4, 4, 50)
    u1 = rng.random(50)
    u2 = rng.random(50)
    batch = split_apply_batch(kernel, 3, x, u1, u2)
    singles = np.array([
        _apply_one(kernel, 3, float(xi), float(a), float(b))
        for xi, a, b in zip(x, u1, u2)
    ])
    assert np.array_equal(batch, singles)


def test_ar1_alpha_ladder_matches_closed_form(kernel):
    for n in range(9):
        assert kernel.ladder.alphas[n] == ar1_alpha(GAMMA, n)


# --- closed-form inversion against a bisection oracle and mpmath -----------

P_LOGVOL = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=geometric_ma(0.5, 64))
LOGVOL_LADDER = logvol_ladder(P_LOGVOL, 2)  # the sets [-n, n]^3, n <= 2


def _logvol_grid_kernel(size, radius=2.0, seed=5):
    # Per-element environments: the kernel closes over arrays aligned with x.
    # They lie in the environment's small set of that radius, so the ladder
    # weights of indices up to the radius are valid minorizations.
    rng = np.random.default_rng(seed)
    env = rng.uniform(-radius, radius, (2, size))
    return logvol_kernel(P_LOGVOL, env[0], env[1], LOGVOL_LADDER)


def _grid(x_values, u_values):
    x, u = np.meshgrid(np.asarray(x_values, float), np.asarray(u_values, float))
    return x.ravel(), u.ravel()


def _no_regen(u):
    return np.ones_like(u)  # u1 = 1 never regenerates, so every element inverts


def _bisect_split_apply(kernel, n, x, u):
    """Oracle for ``split_apply_batch(kernel, n, x, 1, u)``: bracketed bisection
    of the residual CDF built on the kernel's own ``cdf``, to a 1e-12 bracket.

    Elements stop refining individually, as in the closed form's Newton loop.
    """
    a = np.where(np.abs(x) <= kernel.ladder.radii[n], kernel.ladder.alphas[n], 0.0)
    assert np.all(a < 1.0)  # with u1 = 1 no element regenerates

    def g(z):
        return (kernel.cdf(x, z) - a * np.clip((z + 1.0) * 0.5, 0.0, 1.0)) / (1.0 - a)

    m, s = kernel.mean(x), kernel.stdev(x)
    lo, hi = m - 12.0 * s, m + 12.0 * s
    assert np.all(g(lo) <= u) and np.all(g(hi) >= u)  # twelve scales bracket every u here
    for _ in range(200):
        active = (hi - lo) > 1e-12
        if not active.any():
            break
        mid = 0.5 * (lo + hi)
        below = g(mid) < u
        lo = np.where(active & below, mid, lo)
        hi = np.where(active & ~below, mid, hi)
    return 0.5 * (lo + hi)


@pytest.mark.parametrize("model", ["ar1", "logvol"])
def test_closed_form_matches_bisection_on_dense_grid(kernel, model):
    u_values = np.concatenate([[1e-12, 1e-6, 1e-3], np.linspace(0.005, 0.995, 199),
                               [1 - 1e-3, 1 - 1e-6, 1 - 1e-12]])
    x, u = _grid(np.linspace(-9.0, 9.0, 145), u_values)
    for n in range(len(kernel.ladder.radii) if model == "ar1" else 3):
        closed = kernel if model == "ar1" else _logvol_grid_kernel(x.size, radius=n)
        z_closed = split_apply_batch(closed, n, x, _no_regen(u), u)
        z_bisect = _bisect_split_apply(closed, n, x, u)
        # bisection's own error: half its 1e-12 bracket plus rounding of the
        # CDF, magnified by the inverse density
        tol = 1e-12 + 4.0 * 2.0**-52 / normal_density(closed, x, z_bisect)
        assert np.all(np.abs(z_closed - z_bisect) <= tol), n


def _mp_residual_quantile(m, s, a, u):
    """50-digit z with (Phi((z - m)/s) - a nu((-inf, z])) / (1 - a) = u."""
    with mpmath.workdps(50):
        m, s, a, u = (mpmath.mpf(v) for v in (m, s, a, u))

        def resid(z):
            nu = min(max((z + 1) / 2, mpmath.mpf(0)), mpmath.mpf(1))
            return (mpmath.ncdf((z - m) / s) - a * nu) / (1 - a) - u

        lo, hi = m - 40 * s, m + 40 * s
        for _ in range(400):  # bisection: the oracle needs no start value
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if resid(mid) < 0 else (lo, mid)
        return float((lo + hi) / 2)


@pytest.mark.parametrize("u", [1e-15, 1e-9, 0.3, 0.7, 1 - 1e-9, 1 - 1e-12])
def test_closed_form_tails_match_mpmath(kernel, u):
    cases = []
    for n, x in ((2, 0.7), (2, -1.9), (0, 5.0)):  # in-set rows, then an off-set row
        a = kernel.ladder.alphas[n] if abs(x) <= kernel.ladder.radii[n] else 0.0
        got = split_apply_batch(kernel, n, np.array([x]), np.ones(1), np.array([u]))[0]
        cases.append((got, GAMMA * x, 1.0, a))
    env_z, env_eta, x = 0.4, -0.8, 0.9
    lv = logvol_kernel(P_LOGVOL, env_z, env_eta, LOGVOL_LADDER)
    got = split_apply_batch(lv, 1, np.array([x]), np.ones(1), np.array([u]))[0]
    root = math.sqrt(1.0 - P_LOGVOL.rho**2)
    m = P_LOGVOL.gamma * x + P_LOGVOL.rho * math.exp(env_z) * env_eta
    cases.append((got, m, root * math.exp(env_z), lv.ladder.alphas[1]))
    for got, m, s, a in cases:
        want = _mp_residual_quantile(m, s, a, u)
        assert abs(got - want) <= 1e-13 * max(1.0, abs(want)), (m, s, a)


def test_default_membership_keeps_an_environment_outside_its_set_from_regenerating():
    # States in [-n, n] and u1 <= alpha_n, but the environment outside
    # [-n, n]^2, where the ladder weight does not hold: the mapping inverts
    # the full conditional law at u2 instead of returning 2 u2 - 1.
    n = 1
    rng = np.random.default_rng(29)
    env = rng.uniform(-3.0, 3.0, (2, 4000))
    z, eta = env[:, np.any(np.abs(env) > n, axis=0)]
    size = z.size
    x = rng.uniform(-n, n, size)
    kern = logvol_kernel(P_LOGVOL, z, eta, LOGVOL_LADDER)
    u1 = rng.random(size) * kern.ladder.alphas[n]
    u2 = rng.uniform(0.01, 0.99, size)
    out = split_apply_batch(kern, n, x, u1, u2)
    root = math.sqrt(1.0 - P_LOGVOL.rho**2)
    full = P_LOGVOL.gamma * x + P_LOGVOL.rho * np.exp(z) * eta + root * np.exp(z) * ndtri(u2)
    np.testing.assert_allclose(out, full, rtol=1e-14, atol=1e-14)
    assert not np.any(out == 2.0 * u2 - 1.0)
    # the same rows regenerate once the environment is inside the set
    inside = logvol_kernel(P_LOGVOL, np.zeros(size), np.zeros(size), LOGVOL_LADDER)
    assert np.array_equal(split_apply_batch(inside, n, x, u1, u2), 2.0 * u2 - 1.0)


# states and environments on a grid that crosses every radius up to 2
_X, _Z, _ETA = np.array(list(itertools.product((-3.0, -2.0, -1.5, -1.0, 0.0, 0.5, 1.0, 2.5),
                                                repeat=3))).T


@pytest.mark.parametrize("case", ["ar1", "logvol_kernel", "mcre_model_kernel"])
def test_in_small_set_is_the_box_in_state_and_environment(case):
    z, eta = _Z, _ETA
    if case == "ar1":  # no environment: the box in the state alone
        kern, z, eta = ar1_split_kernel(GAMMA, n_max=2), 0.0 * _Z, 0.0 * _ETA
    elif case == "logvol_kernel":
        kern = logvol_kernel(P_LOGVOL, _Z, _ETA, LOGVOL_LADDER)
    else:  # as the MCRE run builds it: from environment rows, on a shared ladder
        rows = np.stack([_Z, _ETA], axis=-1)
        kern = logvol_kernel(P_LOGVOL, rows[:, 0], rows[:, 1], ladder=logvol_ladder(P_LOGVOL, 2))
    for n in range(3):
        box = (np.abs(_X) <= n) & (np.abs(z) <= n) & (np.abs(eta) <= n)
        assert np.array_equal(kern.in_small_set(_X, n), box), n


def test_closed_form_scalar_matches_batch_logvol():
    rng = np.random.default_rng(11)
    size = 300
    env_z, env_eta = rng.uniform(-1.0, 1.0, (2, size))
    x = rng.uniform(-3.0, 3.0, size)
    u1, u2 = rng.random(size), rng.random(size)
    for n in range(3):
        batch = split_apply_batch(logvol_kernel(P_LOGVOL, env_z, env_eta, LOGVOL_LADDER), n, x, u1, u2)
        singles = np.array([
            _apply_one(logvol_kernel(P_LOGVOL, zi, ei, LOGVOL_LADDER), n, float(xi), a, b)
            for zi, ei, xi, a, b in zip(env_z, env_eta, x, u1, u2)
        ])
        assert np.array_equal(batch, singles)


@pytest.mark.parametrize("model", ["ar1", "logvol"])
def test_counting_cdf_wrapper_keeps_output(kernel, model):
    # replacing ``cdf`` by a wrapper (as a tracer does) must not move a bit
    rng = np.random.default_rng(13)
    x = rng.uniform(-4.0, 4.0, 500)
    u1, u2 = rng.random(500), rng.random(500)
    for n in range(3):
        base = kernel if model == "ar1" else _logvol_grid_kernel(x.size, radius=n)
        calls = []

        def counting_cdf(xs, zs, cdf=base.cdf):
            calls.append(np.size(zs))
            return cdf(xs, zs)

        wrapped = dataclasses.replace(base, cdf=counting_cdf)
        want = split_apply_batch(base, n, x, u1, u2)
        assert split_apply_batch(wrapped, n, x, u1, u2).tobytes() == want.tobytes()
        assert not calls  # the closed form evaluates the normal law directly


def test_closed_form_rejects_invalid_residual(kernel):
    # alpha above the kernel's mass on [-1, 1]: the residual is not a law
    ladder = SmallSetLadder(alphas=(0.9,))
    broken = dataclasses.replace(kernel, ladder=ladder)
    with pytest.raises(CertificationError):
        split_apply_batch(broken, 0, np.array([0.0]), np.ones(1), np.array([0.5]))
    with pytest.raises(CertificationError):
        _residual_quantile(broken, 0, 0.0, 0.5)


def test_closed_form_rejects_non_finite_result(kernel):
    # a non-finite scale yields no quantile; the inversion must not return one
    nan_scale = dataclasses.replace(kernel, stdev=lambda x: np.full(np.shape(x), np.nan))
    with pytest.raises(CertificationError):
        _kernel_quantile(nan_scale, 0.0, 0.5)
    with pytest.raises(CertificationError):
        _residual_quantile(nan_scale, 2, 0.0, 0.5)


# --- law preservation: the split mapping's output over uniform pairs is Q(x, .) ---


@pytest.mark.parametrize("model, n_max", [("ar1", 6), ("logvol", 2)])
@settings(max_examples=25, deadline=None, derandomize=True)
@given(data=st.data())
def test_split_mapping_preserves_its_law(model, n_max, data):
    # KS test of 2,000 outputs at one state against the kernel's own CDF, over
    # random kernels, ladder indices and states in and off the small set.  A
    # logvol environment stays in [-n, n]^2, where the ladder weights hold.
    gamma = data.draw(st.floats(0.05, 0.95), label="gamma")
    n = data.draw(st.integers(0, n_max), label="n")
    if model == "ar1":
        kernel = ar1_split_kernel(gamma, n_max=n_max)
    else:
        z, eta_next = data.draw(st.tuples(st.floats(-n, n), st.floats(-n, n)), label="env")
        p = LogvolParams(gamma=gamma, rho=0.3, ma_coeffs=(0.5,))
        kernel = logvol_kernel(p, z, eta_next, logvol_ladder(p, n_max))
    x = data.draw(st.floats(-1.5, 1.5), label="x / radius") * max(kernel.ladder.radii[n], 1.0)
    seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
    u1, u2 = np.random.default_rng(seed).random((2, 2000))
    out = split_apply_batch(kernel, n, np.full(2000, x), u1, u2)
    assert kstest(out, lambda w: kernel.cdf(x, w)).pvalue >= 1e-6


# --- the residual inversion against its reference form, bit for bit ---

# the law the reference form takes: the functions the inversion calls
_STD_NORMAL = SimpleNamespace(cdf=ndtr, pdf=normal_pdf, ppf=ndtri)


def _edge_u(m, s, a, rng):
    """``u`` a few ulps inside the lower or the upper edge of the middle piece."""
    f_lo, sf_hi = ndtr((-1.0 - m) / s), ndtr((m - 1.0) / s)
    nudge = 1.0 + rng.integers(1, 8, m.size) * 2.0**-52
    lower, upper = f_lo / (1.0 - a) * nudge, 1.0 - sf_hi / (1.0 - a) * nudge
    return np.clip(np.where(rng.random(m.size) < 0.5, lower, upper), 1e-300, 1.0 - 2.0**-53)


def _inversion_rows(kernel, n, rng, size):
    """Inputs ``(m, s, u, a)`` of the residual inversion that mix every piece.

    States of ``kernel`` in the small set invert at weight alpha_n, states
    far off it at weight 0 with |m| >> 1; their ``u`` is uniform, deep in
    either tail or at an edge of the middle piece.  Two blocks of a third as
    many rows each follow.  One puts a kernel on [-1, 1] at a tiny weight and
    ``u`` at an edge, where a Newton start can round past -1 or 1 and be
    clipped and the iteration falls back to bisection.  The other is a steep
    kernel at subnormal weights and masses, where halving a weight is inexact.
    """
    b = kernel.ladder.radii[n]
    inside = rng.random(size) < 0.75
    far = (b + 10.0 ** rng.uniform(1.0, 4.0, size)) * rng.choice([-1.0, 1.0], size)
    x = np.where(inside, rng.uniform(-b, b, size), far)
    a = np.where(inside, kernel.ladder.alphas[n], 0.0)
    m = np.asarray(kernel.mean(x), float)
    s = np.broadcast_to(np.asarray(kernel.stdev(x), float), x.shape)
    u = np.choose(rng.integers(0, 4, size), [
        rng.random(size),
        10.0 ** -rng.uniform(1.0, 300.0, size),
        1.0 - 10.0 ** -rng.uniform(1.0, 16.0, size),
        _edge_u(m, s, a, rng),
    ])
    k = size // 3
    m_edge, s_edge, a_edge = rng.uniform(-1.0, 1.0, k), 10.0 ** rng.uniform(-1.0, 1.0, k), 4e-58
    u_edge = _edge_u(m_edge, s_edge, a_edge, rng)
    return (
        np.concatenate([m, m_edge, rng.uniform(-0.5, 0.5, k)]),
        np.concatenate([s, s_edge, 10.0 ** rng.uniform(-3.0, -1.5, k)]),
        np.concatenate([u, u_edge, 10.0 ** -rng.uniform(308.0, 318.0, k)]),
        np.concatenate([a, np.full(k, a_edge), 10.0 ** -rng.uniform(310.0, 320.0, k)]),
    )


@pytest.mark.parametrize("model, n_max", [("ar1", 6), ("logvol", 2)])
@settings(max_examples=20, deadline=None, derandomize=True)
@given(data=st.data())
def test_inversion_matches_its_reference_bit_for_bit(model, n_max, data):
    # The inversion updates its arrays in place, compacts only when an element
    # stops and calls the quantile once; none of that may move a bit.
    gamma = data.draw(st.floats(0.05, 0.95), label="gamma")
    n = data.draw(st.integers(0, n_max), label="n")
    rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1), label="seed"))
    size = 1500
    if model == "ar1":
        kernel = ar1_split_kernel(gamma, n_max=n_max)
    else:
        env = rng.uniform(-n, n, (2, size))
        p = LogvolParams(gamma=gamma, rho=0.3, ma_coeffs=(0.5,))
        kernel = logvol_kernel(p, env[0], env[1], logvol_ladder(p, n_max))
    m, s, u, a = _inversion_rows(kernel, n, rng, size)

    # the batch holds every piece, a clipped start and far-off states
    f_lo, sf_hi = ndtr((-1.0 - m) / s), ndtr((m - 1.0) / s)
    t, tail = u * (1.0 - a), (1.0 - u) * (1.0 - a)
    below, above = (a > 0.0) & (t <= f_lo), (a > 0.0) & (t > f_lo) & (tail <= sf_hi)
    middle = (a > 0.0) & (t > f_lo) & (tail > sf_hi)
    clipped = middle & (np.abs(m + s * ndtri(t + 0.5 * a)) > 1.0)
    assert below.any() and above.any() and clipped.any()
    assert np.any(a == 0.0) and np.max(np.abs(m)) > 10.0

    with warnings.catch_warnings():  # no warning: a subnormal slope's infinite quotient is handled
        warnings.simplefilter("error")
        want = closed_form_inverse_reference(_STD_NORMAL, m, s, u, a)
        got = _closed_form_inverse(m, s, u, a)
        assert got.tobytes() == want.tobytes()
        perm = rng.permutation(m.size)
        permuted = _closed_form_inverse(m[perm], s[perm], u[perm], a[perm])
        assert permuted.tobytes() == got[perm].tobytes()
        cut = int(rng.integers(1, m.size))
        halves = [_closed_form_inverse(m[part], s[part], u[part], a[part])
                  for part in (slice(None, cut), slice(cut, None))]
        assert np.concatenate(halves).tobytes() == got.tobytes()
