"""Total-variation distances: exact between Gaussians, and by histogram
between two sample sets.

Total variation here follows the signed-measure convention (supremum over
test functions bounded by 1), so densities p, q are at distance
``integral |p - q|`` and the maximum distance is 2.
"""

from __future__ import annotations

import numpy as np


def _phi(z: float) -> float:
    from scipy.special import ndtr  # deferred, as in tv_gaussian
    return float(ndtr(z))


def tv_gaussian(m1: float, v1: float, m2: float, v2: float) -> float:
    """Exact total variation between two (possibly degenerate) Gaussians.

    Equal variances use the closed form 2 erf(|m1-m2| / (2 sqrt(2) sigma)),
    which keeps full relative precision for nearby means;
    unequal variances integrate |p - q| exactly between the two analytic
    crossing points of the densities.  A point mass against anything else
    (or two distinct point masses) is at the maximal distance 2.
    """
    from scipy.special import erf  # deferred: the SDE path imports no scipy
    if v1 < 0.0 or v2 < 0.0:
        raise ValueError("variances must be nonnegative")
    if v1 == 0.0 and v2 == 0.0:
        return 0.0 if m1 == m2 else 2.0
    if v1 == 0.0 or v2 == 0.0:
        return 2.0
    if v1 == v2:
        if m1 == m2:
            return 0.0
        return 2.0 * float(erf(abs(m1 - m2) / (2.0 * np.sqrt(2.0 * v1))))
    # Narrower density exceeds the wider one exactly between the crossings.
    if v1 > v2:
        m1, v1, m2, v2 = m2, v2, m1, v1
    a = 1.0 / v2 - 1.0 / v1
    b = 2.0 * (m1 / v1 - m2 / v2)
    c = m2 * m2 / v2 - m1 * m1 / v1 - np.log(v1 / v2)
    disc = b * b - 4.0 * a * c
    # Two real crossings always exist for distinct variances.
    disc = max(disc, 0.0)
    r = np.sqrt(disc)
    z_lo, z_hi = sorted(((-b - r) / (2.0 * a), (-b + r) / (2.0 * a)))
    s1, s2 = np.sqrt(v1), np.sqrt(v2)
    mass1 = _phi((z_hi - m1) / s1) - _phi((z_lo - m1) / s1)
    mass2 = _phi((z_hi - m2) / s2) - _phi((z_lo - m2) / s2)
    return float(min(2.0 * (mass1 - mass2), 2.0))


def _histograms(samples1, samples2):
    """Bin frequencies of both sample sets on common equal-width bins."""
    s1 = np.asarray(samples1, float).ravel()
    s2 = np.asarray(samples2, float).ravel()
    if s1.size == 0 or s2.size == 0:
        raise ValueError("both sample sets must be nonempty")
    bins = int(np.ceil(min(s1.size, s2.size) ** (1.0 / 3.0)))
    lo = min(s1.min(), s2.min())
    hi = max(s1.max(), s2.max())
    if lo == hi:
        hi = lo + 1.0
    edges = np.linspace(lo, hi, bins + 1)
    h1, _ = np.histogram(s1, bins=edges)
    h2, _ = np.histogram(s2, bins=edges)
    return h1 / s1.size, h2 / s2.size, s1.size, s2.size


def tv_empirical(samples1, samples2) -> float:
    """Histogram L1 distance on common equal-width bins.

    The estimator carries an upward bias of order sqrt(bins / N); the bin
    count ceil(min(N1, N2) ** (1/3)) keeps it modest.
    """
    p1, p2, _, _ = _histograms(samples1, samples2)
    return float(np.abs(p1 - p2).sum())


def tv_empirical_se(samples1, samples2) -> float:
    """Delta-method bound on the standard error of ``tv_empirical``.

    Treats the two histograms as independent multinomials; with shared
    randomness across the sample sets this overstates the error, which is
    the safe direction for the monotonicity checks it backs.
    """
    p1, p2, n1, n2 = _histograms(samples1, samples2)
    var = (p1 * (1.0 - p1) / n1 + p2 * (1.0 - p2) / n2).sum()
    return float(np.sqrt(var))
