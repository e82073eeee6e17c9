import math

import numpy as np
import pytest
from scipy.integrate import quad

from oracles import (
    ar1_bound_curve,
    ar1_rate_fit,
    ar1_simulate_batch,
    normal_density,
    validate_minorization,
)
from splitcouple.ar1 import (
    Ar1BoundParams,
    Ar1Params,
    ar1_alpha,
    ar1_bound_terms,
    ar1_lyapunov_constant,
    ar1_marginal,
    ar1_n_schedule,
    ar1_split_kernel,
    ar1_stationary,
)
from splitcouple.metrics import tv_gaussian


def _bound(gamma, beta, x0=0.0, eta=0.1):
    return Ar1BoundParams(Ar1Params(gamma, x0=x0), beta=beta, eta=eta)


def test_params_invariants():
    Ar1BoundParams(Ar1Params(gamma=0.5), beta=0.3, eta=0.1)
    with pytest.raises(ValueError, match=r"^gamma must lie in \(0, 1\)$"):
        Ar1Params(gamma=1.1)
    with pytest.raises(ValueError, match=r"^beta must lie in \(0, \(1 - gamma\^2\)/2\)$"):
        _bound(0.5, 0.375)  # beta must stay below (1 - gamma^2)/2
    with pytest.raises(ValueError, match=r"^eta must lie in \(0, sqrt\(2\)/gamma\)$"):
        _bound(0.5, 0.3, eta=3.0)  # eta must stay below sqrt(2)/gamma


def test_marginal_values():
    p = Ar1Params(0.5, x0=1.0)
    assert ar1_marginal(p, 0) == (1.0, 0.0)
    assert ar1_marginal(p, 1) == (0.5, 1.0)
    mean_inf, var_inf = ar1_marginal(p, 4000)
    assert mean_inf == pytest.approx(0.0, abs=1e-300)
    assert var_inf == pytest.approx(4.0 / 3.0, rel=1e-15)
    assert ar1_stationary(p) == (0.0, pytest.approx(4.0 / 3.0, rel=1e-15))
    with pytest.raises(ValueError):
        ar1_marginal(p, -1)


def test_alpha_closed_form():
    # direct evaluation of sqrt(2/pi) exp(-(gamma n + 1)^2 / 2)
    assert ar1_alpha(0.7, 0) == pytest.approx(math.sqrt(2 / math.pi) * math.exp(-0.5), rel=1e-14)
    assert ar1_alpha(0.5, 2) == pytest.approx(math.sqrt(2 / math.pi) * math.exp(-2.0), rel=1e-14)
    assert ar1_alpha(0.5, 2) == pytest.approx(0.10798193302637613, abs=1e-15)
    with pytest.raises(ValueError):
        ar1_alpha(0.5, -1)


@pytest.mark.parametrize("gamma", [0.5, 0.9])
def test_alpha_matches_grid_infimum(gamma):
    kern = ar1_split_kernel(gamma, n_max=5)
    for n in range(6):
        radius = kern.ladder.radii[n]
        x_grid = np.linspace(-radius, radius, 201)
        z_grid = np.linspace(-1, 1, 201)
        grid_inf = 2.0 * float(np.min(normal_density(kern, x_grid[:, None], z_grid[None, :])))
        assert abs(grid_inf - ar1_alpha(gamma, n)) < 1e-6
        assert validate_minorization(kern, n, x_grid, z_grid) >= 0.0


def test_lyapunov_constant_small_beta_limit():
    b = _bound(0.5, 1e-9)
    assert ar1_lyapunov_constant(b) == pytest.approx(1.0, abs=1e-6)


def test_lyapunov_constant_zero_start():
    # mean stays 0, variance increases: the supremum sits at the limit
    b = _bound(0.5, 0.3)
    assert ar1_lyapunov_constant(b) == pytest.approx(1.0 / math.sqrt(0.2), rel=1e-14)


def test_lyapunov_constant_quadrature_oracle():
    b = _bound(0.5, 0.3, x0=1.0)
    c = ar1_lyapunov_constant(b)
    # maximum over the grid occurs at t = 26 (its value has saturated to the limit)
    m, s2 = ar1_marginal(b.chain, 26)
    live = quad(
        lambda z: math.exp(0.3 * z * z) * math.exp(-((z - m) ** 2) / (2 * s2))
        / math.sqrt(2 * math.pi * s2),
        -30, 30, limit=800,
    )[0]
    assert c == pytest.approx(2.2360679774997894, rel=1e-12)
    assert c == pytest.approx(live, rel=1e-9)
    assert c >= live - 1e-12  # c is a supremum over t


def test_lyapunov_monte_carlo_uniformity():
    # beta = 0.15 keeps exp(beta X^2) square integrable, so the SE is meaningful
    b = _bound(0.5, 0.15, x0=1.0)
    c = ar1_lyapunov_constant(b)
    rng = np.random.default_rng(2025)
    for t in (1, 10, 100):
        x = ar1_simulate_batch(b.chain, t, rng, 100_000)
        vals = np.exp(b.beta * x * x)
        se = vals.std(ddof=1) / math.sqrt(vals.size)
        assert vals.mean() <= c + 4 * se


def test_bound_curve_terms_and_rederivation():
    p = _bound(0.5, 0.3)
    term1, term2 = ar1_bound_terms(p, 10, 2)
    # independent re-derivation of both summands
    c = 1.0 / math.sqrt(1.0 - 2.0 * 0.3 * 4.0 / 3.0)
    assert term1 == pytest.approx(4.0 * c * math.exp(-0.3 * 4.0), rel=1e-12)
    assert term2 == pytest.approx(2.0 * (1.0 - ar1_alpha(0.5, 2)) ** 10, rel=1e-12)
    assert ar1_bound_curve(p, 10, 2) == term1 + term2


def test_bound_curve_limits():
    p = _bound(0.5, 0.3)
    # huge horizon: the geometric term vanishes entirely
    assert ar1_bound_curve(p, 10**6, 2) == ar1_bound_terms(p, 10**6, 2)[0]
    # n = 0 is vacuous at small horizons but still a valid bound
    assert ar1_bound_curve(p, 1, 0) >= 2.0


def test_bound_dominates_exact_tv():
    for gamma in (0.5, 0.9):
        b = _bound(gamma, 0.4 * (1 - gamma**2), x0=1.0)
        st_mean, st_var = ar1_stationary(b.chain)
        for t in (2, 5, 10, 100, 1000):
            n = ar1_n_schedule(b, t)
            mean, var = ar1_marginal(b.chain, t)
            assert ar1_bound_curve(b, t, n) > tv_gaussian(mean, var, st_mean, st_var)


def test_n_schedule():
    p = _bound(0.5, 0.3, eta=0.1)
    assert ar1_n_schedule(p, 55) == 6
    with pytest.raises(ValueError):
        ar1_n_schedule(p, 1)
    values = [ar1_n_schedule(p, t) for t in range(2, 20000, 7)]
    assert all(b >= a for a, b in zip(values, values[1:]))


def test_rate_fit_validation():
    p = _bound(0.5, 0.3)
    with pytest.raises(ValueError):
        ar1_rate_fit(p, [100, 1000, 10000])  # too few points
    with pytest.raises(ValueError):
        ar1_rate_fit(p, [100, 120, 140, 160, 180])  # not two decades


def test_rate_fit_matches_direct_regression():
    p = _bound(0.5, 0.3)
    grid = [100, 1000, 10_000, 100_000, 1_000_000]
    got = ar1_rate_fit(p, grid)
    logs = [math.log(ar1_bound_curve(p, t, ar1_n_schedule(p, t))) for t in grid]
    slope = np.polyfit(np.log(grid), logs, 1)[0]
    assert got == pytest.approx(-slope, abs=1e-12)
    assert math.isfinite(got)


def test_exact_tv_decays_faster_than_any_polynomial_target():
    # the exact distance to the stationary law decays geometrically, so its
    # fitted log-log slope beats the polynomial target 1/gamma^2 - 1 = 3
    p = Ar1Params(0.5, x0=1.0)
    st_mean, st_var = ar1_stationary(p)
    grid = [2, 4, 8, 16, 32]  # past t ~ 50 the exact value underflows
    logs = []
    for t in grid:
        mean, var = ar1_marginal(p, t)
        logs.append(math.log(tv_gaussian(mean, var, st_mean, st_var)))
    slope = -np.polyfit(np.log(grid), logs, 1)[0]
    assert slope > 3.0


def test_simulate_batch_moments():
    p = Ar1Params(0.5, x0=2.0)
    x = ar1_simulate_batch(p, 6, np.random.default_rng(4), 50_000)
    mean, var = ar1_marginal(p, 6)
    assert abs(x.mean() - mean) < 4 * math.sqrt(var / x.size)
    assert abs(x.var() - var) < 4 * var * math.sqrt(2.0 / x.size)
