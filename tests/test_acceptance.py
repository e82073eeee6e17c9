"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Criteria 4, 5, 7, 8, 9 and 10 assert the flags of one run of each shipped
config, so a claim is defined once, in its driver, and the CLI exit code and
this suite read the same flags.  Criteria 1, 3, 6 and 11 are parameter sweeps
and oracles with no shipped run, and criterion 2 fits a rate over its own grid.

Criteria 2 and 8 are implemented exactly as stated and are expected to fail:
the scheduled two-term bound is still in its pre-asymptotic regime on every
reachable horizon grid (criterion 2), and the log-volatility minorization
weights on the scheduled set sizes underflow double precision, so no finite
block schedule exists (criterion 8).  Both are marked xfail with the full
reason inline, so the suite documents the shortfall without hiding it.  The
xfails are strict: both criteria are deterministic, so a pass would mean the
README's "unattainable as stated" note has gone stale, and fails the suite.
"""

import math
import time

import numpy as np
import pytest
from scipy.stats import ks_2samp

from oracles import SHIPPED_CONFIGS, constant_window
from splitcouple.ar1 import (
    Ar1Params,
    ar1_alpha,
    ar1_bound_curve,
    ar1_marginal,
    ar1_n_schedule,
    ar1_rate_fit,
    ar1_split_kernel,
    ar1_stationary,
)
from splitcouple.config import load_config
from splitcouple.harness import run
from splitcouple.kernels import split_apply_batch, validate_minorization
from splitcouple.logvol import (
    LogvolParams,
    geometric_ma,
    logvol_certify_minorization,
    logvol_kernel,
)
from splitcouple.metrics import bounded_wasserstein, path_metric_d, tv_gaussian
from splitcouple.streams import replica_rng

LOGVOL_PARAMS = LogvolParams(gamma=0.5, rho=0.3, ma_coeffs=geometric_ma(0.5, 512))


def _report(num: int, ok: bool, detail: str) -> None:
    print(f"acceptance criterion {num}: {'PASS' if ok else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def shipped():
    """The report of one run of each shipped config a criterion reads, by experiment."""
    configs = [load_config(path) for path in SHIPPED_CONFIGS]
    return {cfg.experiment: run(cfg) for cfg in configs if cfg.experiment != "ar1-bound"}


def _assert_flags(num: int, report, names, budget_s: float, detail: str) -> None:
    """Print the criterion's line, then assert the run's flags and its time budget."""
    held = {name: report.flags[name] for name in names}
    ok = all(held.values()) and report.wall_clock_s < budget_s
    _report(num, ok, f"{detail}, {report.wall_clock_s:.1f}s")
    assert all(held.values()), held
    assert report.wall_clock_s < budget_s


def test_criterion_1_bound_dominance():
    start = time.perf_counter()
    worst_gap = math.inf
    for gamma in (0.5, 0.9):
        beta = 0.4 * (1.0 - gamma**2)
        for x0 in (0.0, 1.0):
            p = Ar1Params(gamma=gamma, beta=beta, x0=x0)
            st_mean, st_var = ar1_stationary(p)
            for t in (10, 100, 1000, 10_000):
                n = ar1_n_schedule(p, t)
                bound = ar1_bound_curve(p, t, n)
                mean, var = ar1_marginal(p, t)
                tv = tv_gaussian(mean, var, st_mean, st_var)
                worst_gap = min(worst_gap, bound - tv)
    elapsed = time.perf_counter() - start
    ok = worst_gap > 0.0 and elapsed < 1.0
    _report(1, ok, f"worst bound - tv gap {worst_gap:.3e}, {elapsed:.2f}s")
    assert worst_gap > 0.0
    assert elapsed < 1.0


@pytest.mark.xfail(
    reason="unattainable as stated: with the ceiling schedule the geometric "
    "term is still ~2 on every t <= 1e6, so the fitted slope is near 0 for "
    "all admissible (beta, eta); a parameter sweep caps the slope at ~1.65",
)
def test_criterion_2_rate_exponent():
    start = time.perf_counter()
    p = Ar1Params(gamma=0.5, beta=0.3, x0=0.0, eta=0.1)
    grid = [100, 1000, 10_000, 100_000, 1_000_000]
    slope = ar1_rate_fit(p, grid)
    shifted = [ar1_rate_fit(p, [lo * 10**k for k in range(5)])
               for lo in (100, 1000, 10_000)]
    elapsed = time.perf_counter() - start
    ok = 2.0 <= slope <= 3.0 and elapsed < 1.0
    _report(2, ok, f"target exponent 3, fitted slope {slope:.4f}, "
                   f"shifted-grid slopes {[f'{s:.3f}' for s in shifted]}, {elapsed:.2f}s")
    assert elapsed < 1.0
    assert 2.0 <= slope <= 3.0


def test_criterion_3_minorization_certificates():
    start = time.perf_counter()
    ok = True
    for gamma in (0.5, 0.9):
        kernel = ar1_split_kernel(gamma, n_max=5)
        for n in range(6):
            radius = kernel.ladder.radii[n]
            x_grid = np.linspace(-radius, radius, 201)
            z_grid = np.linspace(-1.0, 1.0, 201)
            ok &= validate_minorization(kernel, n, x_grid, z_grid) >= 0.0
            grid_inf = 2.0 * float(np.min(kernel.density(x_grid[:, None], z_grid[None, :])))
            ok &= abs(grid_inf - ar1_alpha(gamma, n)) <= 1e-6
    margins = [logvol_certify_minorization(LOGVOL_PARAMS, n) for n in (0, 1, 2)]
    ok &= all(m >= 0.0 for m in margins)
    elapsed = time.perf_counter() - start
    ok &= elapsed < 5.0
    _report(3, ok, f"logvol margins {['%.2e' % m for m in margins]}, {elapsed:.2f}s")
    assert ok


def test_criterion_4_coupling_lower_bound(shipped):
    r = shipped["ar1-couple"].results
    _assert_flags(4, shipped["ar1-couple"], ["coupled_fraction_above_bound"], 30.0,
                  f"fraction {r['coupled_fraction']:.4f} vs bound {r['lower_bound']:.4f} "
                  f"- 3*{r['coupled_fraction_se']:.4f}")


def test_criterion_5_tv_sandwich(shipped):
    r = shipped["ar1-couple"].results
    _assert_flags(5, shipped["ar1-couple"], ["tv_sandwich"], 30.0,
                  f"bound {r['tv_bound']:.4f}+{r['tv_half_width']:.4f} "
                  f"vs exact {r['tv_exact']:.3e}")


def test_criterion_6_split_law_ks():
    start = time.perf_counter()
    n_samples = 100_000
    level = 0.01
    pvals = {}
    kernel = ar1_split_kernel(0.5, n_max=3)
    for i, x in enumerate((0.0, 2.5, 10.0)):
        rng = replica_rng(600, i)
        draws = split_apply_batch(
            kernel, 3, np.full(n_samples, x), rng.random(n_samples), rng.random(n_samples)
        )
        direct = 0.5 * x + rng.standard_normal(n_samples)
        pvals[f"ar1 x={x}"] = ks_2samp(draws, direct).pvalue
    root = math.sqrt(1.0 - 0.3**2)
    for i, (x, z, eta) in enumerate(((0.0, 0.2, 1.0), (1.5, -0.4, -0.7), (5.0, 0.8, 0.3))):
        rng = replica_rng(601, i)
        kern = logvol_kernel(LOGVOL_PARAMS, z, eta, n_max=2)
        draws = split_apply_batch(
            kern, 2, np.full(n_samples, x), rng.random(n_samples), rng.random(n_samples)
        )
        m = 0.5 * x + 0.3 * math.exp(z) * eta
        s = root * math.exp(z)
        direct = m + s * rng.standard_normal(n_samples)
        pvals[f"logvol x={x}"] = ks_2samp(draws, direct).pvalue
    elapsed = time.perf_counter() - start
    ok = all(p >= level for p in pvals.values()) and elapsed < 30.0
    summary = ", ".join(f"{k}: {v:.3f}" for k, v in pvals.items())
    _report(6, ok, f"{summary}, {elapsed:.1f}s")
    assert all(p >= level for p in pvals.values())
    assert elapsed < 30.0


def test_criterion_7_mcre_moment_bound(shipped):
    r = shipped["logvol-sim"].results
    details = [f"t={t}: {m:.2f} <= {r['moment_bound']:.2f}+3*{se:.2f}"
               for t, m, se in zip(r["checkpoints"], r["mean_sq"], r["se"])]
    _assert_flags(7, shipped["logvol-sim"], ["moment_bounded_all"], 30.0, "; ".join(details))


@pytest.mark.xfail(
    reason="unattainable as stated: the smallest set size with tail(n) <= 1/2 "
    "is n = 7 (the moment bound K ~ 19 forces K/n^2 <= 2^-m), where the "
    "minorization weight 2 f(d(n)) / (sqrt(1-rho^2) e^n) evaluates below the "
    "smallest positive double, so no finite block length exists for any m",
)
def test_criterion_8_mcre_block_coupling(shipped):
    r = shipped["logvol-couple"].results
    if "schedule_error" in r:
        detail = f"schedule does not terminate: {r['schedule_error']}"
    else:
        detail = (f"coupled fraction {r['coupled_fraction']:.4f} by step "
                  f"{r['simulated_steps']} of {r['target_boundary']}")
    _assert_flags(8, shipped["logvol-couple"],
                  ["schedule_terminates", "coupled_by_target_at_least_half"], 120.0, detail)


def test_criterion_9_sde_initialization_forgetting(shipped):
    report = shipped["sde-sim"]
    assert report.config["sde.tv_threshold"] == 0.1  # the criterion's threshold, not the config's
    r = report.results
    _assert_flags(9, report, ["tv_final_below_threshold", "tv_nonincreasing"], 300.0,
                  f"tv at {'/'.join(f'{t:g}' for t in r['checkpoints'])}: "
                  f"{['%.4f' % v for v in r['tv_empirical']]}")


def test_criterion_10_increment_bound(shipped):
    report = shipped["sde-sim"]
    names = [name for name in report.flags if name.startswith("increment_bound_h=")]
    assert names
    details = [f"h={inc['h_actual']:.4g}: {inc['empirical']:.4f} <= {inc['bound']:.4f}"
               for inc in report.results["increments"]]
    _assert_flags(10, report, names, 300.0, "; ".join(details))


def test_criterion_11_metric_oracles():
    start = time.perf_counter()
    # Gaussian total variation at mean gap 2: freshly derived closed form
    # 2(2 Phi(1) - 1) = 1.3653789843 (the tolerance is the criterion's 1e-5;
    # dual quadratures at halved steps agree with this to 3e-10)
    tv = tv_gaussian(0.0, 1.0, 2.0, 1.0)
    ok_tv = abs(tv - 1.3653789842741717) <= 1e-5
    # unit-separated constant windows on [-30, 30]
    d = path_metric_d(constant_window(0.0, 30.0), constant_window(1.0, 30.0))
    ok_d = abs(d - (3.0 - 2.0**-29 * 2.0)) <= 1e-8
    # flat-path tuples against the 1-d sorted-matching oracle
    rng = replica_rng(1100, 0)
    xs = rng.uniform(0.0, 0.5, 128)
    ys = rng.uniform(0.0, 0.5, 128)
    w = constant_window(0.0, 1.0)
    got = bounded_wasserstein([(x, w, w) for x in xs], [(y, w, w) for y in ys])
    oracle = float(np.minimum(1.0, np.abs(np.sort(xs) - np.sort(ys))).mean())
    ok_w = abs(got - oracle) <= 1e-10
    elapsed = time.perf_counter() - start
    ok = ok_tv and ok_d and ok_w and elapsed < 5.0
    _report(11, ok, f"tv {tv:.10f}, path metric {d:.10f}, transport gap "
                    f"{abs(got - oracle):.2e}, {elapsed:.2f}s")
    assert ok_tv and ok_d and ok_w
    assert elapsed < 5.0
