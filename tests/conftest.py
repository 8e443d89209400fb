"""Shared fixtures and independent test-side oracles.

The oracles here are deliberately kept independent of the library code paths
they check: ring radii come from a Fock-space expansion of the smoothed
distribution, cell masses from separable trapezoid weights.
"""

import math

import numpy as np
import pytest

from phonon_forge.params import default_params, default_spad


@pytest.fixture(scope="session")
def params():
    return default_params()


@pytest.fixture(scope="session")
def spad():
    return default_spad()


def exact_smoothed_ring_radius(n, m):
    """Radius of the true maxima of the vacuum-smoothed distribution.

    Derived from the Fock expansion of <alpha| rho |alpha> for the
    n-subtracted thermal state with occupation m (heterodyne units, one
    vacuum unit of smoothing).  For n = 1 the radial density is
    (1 + x w) e^(-(1-x) w) with w = |alpha|^2 and x = m/(1+m), peaking at
    w = (m^2 - 1)/m; for n = 2 it is (x^2 w^2 + 4 x w + 2) e^(-(1-x) w),
    whose stationary point solves a quadratic.  Returns the radius in
    X units, r = sqrt(2 w), or 0 if the maximum sits at the origin.
    """
    m = float(m)
    x = m / (1.0 + m)
    if n == 1:
        w = (m * m - 1.0) / m if m > 1.0 else 0.0
    elif n == 2:
        a = (1.0 - x) * x * x
        b = 4.0 * x * (1.0 - x) - 2.0 * x * x
        c = 2.0 * (1.0 - x) - 4.0 * x
        disc = b * b - 4.0 * a * c
        if disc < 0:
            w = 0.0
        else:
            w = max((-b + math.sqrt(disc)) / (2.0 * a), 0.0)
    else:
        raise ValueError("oracle covers n in {1, 2}")
    return math.sqrt(2.0 * w)


def grid_cell_masses(values, half_width, coarse_npts):
    """Integrate a fine node grid into coarse cell masses.

    values must live on an odd fine grid whose spacing divides the coarse
    cell an integer number of times: npts_fine = k*(coarse_npts-1) + 1.
    Separable trapezoid weights give the mass of each coarse cell centered
    on the coarse nodes.
    """
    npts_f = values.shape[0]
    k = (npts_f - 1) // (coarse_npts - 1)
    assert k * (coarse_npts - 1) + 1 == npts_f
    d = 2.0 * half_width / (npts_f - 1)

    # 1D weights mapping fine nodes to a coarse cell [-kd/2, kd/2] around
    # each coarse node; cells at the two ends are half cells.
    w1 = np.zeros((coarse_npts, npts_f))
    half = k // 2
    for i in range(coarse_npts):
        c = i * k
        lo = max(c - half, 0)
        hi = min(c + half, npts_f - 1)
        w = np.ones(hi - lo + 1)
        if k % 2 == 0:
            if c - half >= 0:
                w[0] = 0.5
            if c + half <= npts_f - 1:
                w[-1] = 0.5
        w1[i, lo:hi + 1] = w * d
    return w1 @ values @ w1.T


def radial_peak(samples_r, weights, r_max, nbins=48, window=5):
    """Ridge radius of a 2D density from radial samples.

    Histograms the radii, divides out the r measure, and fits a parabola
    through a window around the coarse maximum; robust against bin noise on
    broad rings.
    """
    edges = np.linspace(0.0, r_max, nbins + 1)
    counts, _ = np.histogram(samples_r, bins=edges, weights=weights)
    centers = 0.5 * (edges[1:] + edges[:-1])
    density = counts / centers
    i = int(np.argmax(density))
    lo, hi = max(i - window, 0), min(i + window + 1, nbins)
    coef = np.polyfit(centers[lo:hi], density[lo:hi], 2)
    if coef[0] < 0:
        vertex = -coef[1] / (2.0 * coef[0])
        if centers[lo] <= vertex <= centers[hi - 1]:
            return float(vertex)
    return float(centers[i])


def assert_within_se(reading, expected, se, what, k=4.5):
    """Assert that a Monte-Carlo reading lies within k standard errors of its
    expectation.  For a normal reading the gate's two-sided false-alarm
    chance is erfc(k / sqrt(2)), 6.8e-6 at k = 4.5; a failure prints z, the
    chance of a |z| that large, and the gate's own chance."""
    z = (reading - expected) / se
    assert abs(z) <= k, (
        f"{what}: {reading:.6g} against {expected:.6g} (se {se:.3g}) is "
        f"z = {z:+.2f}, two-sided chance {math.erfc(abs(z) / math.sqrt(2.0)):.2g}; "
        f"the {k} se gate's false-alarm chance is {math.erfc(k / math.sqrt(2.0)):.2g}")


def assert_uniform(u, what, alpha=1e-3):
    """Assert that the probability integral transforms u of independent draws
    are uniform on [0, 1]: the Kolmogorov-Smirnov distance D of their empirical
    CDF, gated at sqrt(N) D <= sqrt(ln(2 / alpha) / 2).  By the DKW inequality
    with Massart's constant, P(sqrt(N) D > t) <= 2 e^(-2 t^2) for every N, so
    the gate's false-alarm chance is at most alpha; a failure prints sqrt(N) D,
    the bound on the chance of a reading that large, and alpha."""
    u = np.sort(np.asarray(u, dtype=float))
    n = u.size
    d = max(np.max(np.arange(1, n + 1) / n - u), np.max(u - np.arange(n) / n))
    t, gate = math.sqrt(n) * d, math.sqrt(math.log(2.0 / alpha) / 2.0)
    assert t <= gate, (
        f"{what}: sqrt(N) D = {t:.3f} over {n} draws, chance at most "
        f"{min(1.0, 2.0 * math.exp(-2.0 * t * t)):.2g}; the {gate:.3f} gate's "
        f"false-alarm chance is at most {alpha:g}")
