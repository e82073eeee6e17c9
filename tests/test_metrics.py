import mpmath
import numpy as np
import pytest

from oracles import PathWindow, bounded_wasserstein, constant_window, path_metric_d
from splitcouple.metrics import tv_empirical, tv_empirical_se, tv_gaussian

# derived with an independent quadrature (two step sizes agreeing to 3e-10)
TV_N01_N21 = 1.3653789842741717
TV_N01_N04 = 0.645349137669537


def _gauss(m, v):
    return lambda z: np.exp(-0.5 * (z - m) ** 2 / v) / np.sqrt(2 * np.pi * v)


def test_tv_bounded_by_coupling_mismatch():
    # common-component coupling: the sample sets differ in a fraction w of
    # entries, and moving those entries shifts at most 2w of histogram mass
    # on the shared bins
    rng = np.random.default_rng(5)
    n = 10_000
    for w in (0.1, 0.4, 0.9):
        k = int(w * n)
        common = rng.standard_normal(n)
        x, y = common.copy(), common.copy()
        x[:k] = rng.normal(3.0, 0.5, k)
        y[:k] = rng.normal(-3.0, 2.0, k)
        assert tv_empirical(x, y) <= 2 * w + 1e-12


def test_tv_gaussian_equal_variance_closed_form():
    assert tv_gaussian(0, 1, 0, 1) == 0.0
    assert tv_gaussian(0, 1, 2, 1) == pytest.approx(TV_N01_N21, abs=1e-12)


@pytest.mark.parametrize("sep", [1e-15, 1e-13, 1e-11, 1e-9, 1e-6, 1e-3, 0.1, 1.0])
@pytest.mark.parametrize("m1, v", [(0.0, 1.0), (1.0, 4.0 / 3.0), (-0.3, 0.07)])
def test_tv_gaussian_equal_variance_matches_mpmath(sep, m1, v):
    # 2(2 Phi - 1) cancels for nearby means; the erf form must not
    m2 = m1 + sep
    with mpmath.workdps(50):
        gap = abs(mpmath.mpf(m2) - mpmath.mpf(m1))  # the separation the doubles carry
        want = 2 * mpmath.erf(gap / (2 * mpmath.sqrt(2 * mpmath.mpf(v))))
        got = tv_gaussian(m1, v, m2, v)
        assert abs(mpmath.mpf(got) - want) <= 1e-12 * want


def test_tv_gaussian_unequal_variance_dual_quadrature():
    got = tv_gaussian(0, 1, 0, 4)
    assert got == pytest.approx(TV_N01_N04, abs=1e-8)
    # live dual-quadrature oracle with halved step
    for step in (1e-4, 5e-5):
        z = np.arange(-60, 60, step)
        approx = np.trapezoid(np.abs(_gauss(0, 1)(z) - _gauss(0, 4)(z)), z)
        assert got == pytest.approx(approx, abs=1e-8)


def test_tv_gaussian_general_cases():
    assert tv_gaussian(0, 1, 60, 1) == pytest.approx(2.0, abs=1e-12)
    assert tv_gaussian(1.2, 2.0, -0.3, 0.7) == tv_gaussian(-0.3, 0.7, 1.2, 2.0)
    assert tv_gaussian(0.0, 0.0, 0.0, 0.0) == 0.0
    assert tv_gaussian(0.0, 0.0, 1.0, 0.0) == 2.0
    assert tv_gaussian(0.0, 0.0, 0.0, 1.0) == 2.0
    with pytest.raises(ValueError):
        tv_gaussian(0, -1.0, 0, 1)


def test_tv_empirical_basics():
    rng = np.random.default_rng(12)
    s = rng.standard_normal(5000)
    assert tv_empirical(s, s) == 0.0
    a = rng.uniform(0, 1, 3000)
    b = rng.uniform(5, 6, 3000)
    assert tv_empirical(a, b) == 2.0
    with pytest.raises(ValueError, match="nonempty"):
        tv_empirical(np.array([]), s)
    with pytest.raises(ValueError, match="nonempty"):
        tv_empirical_se(s, np.array([]))


def test_tv_empirical_gaussian_accuracy():
    rng = np.random.default_rng(42)
    n = 100_000
    a = rng.standard_normal(n)
    b = rng.standard_normal(n) + 2.0
    assert tv_empirical(a, b) == pytest.approx(TV_N01_N21, abs=0.05)
    assert tv_empirical_se(a, b) < 0.02


def test_path_window_validation():
    with pytest.raises(ValueError):
        PathWindow(np.zeros(3), 1.0)  # step 1 > 1/64
    with pytest.raises(ValueError):
        PathWindow(np.array([0.0, np.inf] + [0.0] * 127), 1.0)
    w = constant_window(0.0, 2.0)
    assert w.step <= 1.0 / 64.0 + 1e-12


def test_path_metric_zero_and_geometric_sum():
    f = constant_window(0.3, 30.0)
    assert path_metric_d(f, f) == 0.0
    g = constant_window(1.3, 30.0)  # |f - g| = 1 everywhere, clamp binds
    expected = 3.0 - 3.0 * 2.0**-30  # sum of 2^-|i| over i = -30..29
    assert path_metric_d(f, g) == pytest.approx(expected, abs=1e-12)
    h = constant_window(0.8, 30.0)  # |f - h| = 0.5, half the clamped sum
    assert path_metric_d(f, h) == pytest.approx(0.5 * expected, abs=1e-12)


def test_path_metric_axioms():
    rng = np.random.default_rng(9)
    windows = []
    npts = int(2 * 2.0 / (1 / 64)) + 1
    for _ in range(6):
        windows.append(PathWindow(rng.uniform(-2, 2, npts), 2.0))
    for a in windows:
        for b in windows:
            dab = path_metric_d(a, b)
            assert dab == path_metric_d(b, a)
            for c in windows:
                assert dab <= path_metric_d(a, c) + path_metric_d(c, b) + 1e-12


def test_path_metric_grid_mismatch():
    with pytest.raises(ValueError):
        path_metric_d(constant_window(0, 1.0), constant_window(0, 2.0))


def _flat_tuples(xs, half_width=1.0):
    w = constant_window(0.0, half_width)
    return [(x, w, w) for x in xs]


def test_bounded_wasserstein_identity_and_singleton():
    xs = np.linspace(0, 0.4, 16)
    assert bounded_wasserstein(_flat_tuples(xs), _flat_tuples(xs)) == 0.0
    one = bounded_wasserstein(_flat_tuples([0.2]), _flat_tuples([0.9]))
    assert one == pytest.approx(0.7, abs=1e-12)


def test_bounded_wasserstein_matches_sorting_oracle():
    # all pairwise gaps below the clamp, so the sorted matching is optimal
    rng = np.random.default_rng(21)
    xs = rng.uniform(0.0, 0.5, 128)
    ys = rng.uniform(0.0, 0.5, 128)
    got = bounded_wasserstein(_flat_tuples(xs), _flat_tuples(ys))
    oracle = np.minimum(1.0, np.abs(np.sort(xs) - np.sort(ys))).mean()
    assert got == pytest.approx(oracle, abs=1e-10)


def test_bounded_wasserstein_le_const_times_tv():
    # shared support far apart: matched mass is free, mismatches cost the clamp
    rng = np.random.default_rng(33)
    support = np.array([0.0, 5.0, 10.0])
    a = support[rng.integers(0, 3, 60)]
    b = support[rng.integers(0, 3, 60)]
    w = bounded_wasserstein(_flat_tuples(a), _flat_tuples(b))
    pa = np.array([(a == s).mean() for s in support])
    pb = np.array([(b == s).mean() for s in support])
    tv = np.abs(pa - pb).sum()
    assert w <= 4.0 * tv + 1e-12


def test_bounded_wasserstein_errors():
    with pytest.raises(ValueError):
        bounded_wasserstein(_flat_tuples([0.1]), _flat_tuples([0.1, 0.2]))
    with pytest.raises(ValueError):
        bounded_wasserstein(_flat_tuples(np.zeros(9)), _flat_tuples(np.zeros(9)), max_pairs=8)
