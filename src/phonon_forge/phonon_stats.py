"""Number statistics of phonon-subtracted and phonon-added thermal states.

A thermal state with mean occupation nbar has the geometric number
distribution p(m) = (1-x) x^m with x = nbar/(1+nbar).  Conditioning on the
removal of n quanta turns this into a negative-binomial-type distribution

    p_sub(m) = (1-x)^(n+1) x^m binom(m+n, n),

while adding n quanta gives the same shape displaced upward by n,
p_add(m) = p_sub(m-n).  The means are (n+1)*nbar and (n+1)*nbar + n.

Everything here is a pure function of immutable inputs; binomial factors are
evaluated in log space so truncation indices of order 1e5 stay finite.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy.special import gammaln
from scipy.stats import nbinom

from .errors import ConfigError, NumericsError, TruncationError

SUBTRACT = "subtract"
ADD = "add"


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal state with mean occupation nbar and Boltzmann ratio x."""

    nbar: float

    def __post_init__(self):
        if not math.isfinite(self.nbar) or self.nbar < 0:
            raise ConfigError("nbar must be finite and >= 0")

    @property
    def x(self):
        return self.nbar / (1.0 + self.nbar)


@dataclass(frozen=True)
class NumberPmf:
    """Truncated occupation distribution with the discarded tail reported."""

    probs: np.ndarray
    m_max: int
    tail_mass: float

    def mean(self):
        m = np.arange(self.probs.size)
        return float(np.dot(m, self.probs))

    def variance(self):
        m = np.arange(self.probs.size)
        mu = self.mean()
        return float(np.dot((m - mu) ** 2, self.probs))

    def total_mass(self):
        return float(np.sum(self.probs)) + self.tail_mass


def default_m_max(nbar, n):
    """Truncation index 20*(n+1)*max(nbar, 1), generous enough for 1e-10 mass."""
    return int(math.ceil(20.0 * (n + 1) * max(nbar, 1.0)))


def _check_order(n):
    if int(n) != n or n < 0:
        raise ConfigError("order n must be a non-negative integer")
    return int(n)


def thermal_pmf(spec: ThermalSpec, m_max=None) -> NumberPmf:
    """Geometric number distribution (1-x) x^m, tail x^(m_max+1)."""
    m_max = default_m_max(spec.nbar, 0) if m_max is None else int(m_max)
    if m_max < 0:
        raise ConfigError("m_max must be >= 0")
    x = spec.x
    if x == 0.0:
        probs = np.zeros(m_max + 1)
        probs[0] = 1.0
        return NumberPmf(probs, m_max, 0.0)
    m = np.arange(m_max + 1)
    logp = np.log1p(-x) + m * np.log(x)
    tail = math.exp((m_max + 1) * math.log(x))
    return NumberPmf(np.exp(logp), m_max, tail)


def _subtracted_logpmf(x, n, m):
    return ((n + 1) * np.log1p(-x) + m * np.log(x)
            + gammaln(m + n + 1) - gammaln(m + 1) - gammaln(n + 1))


def subtracted_pmf(spec: ThermalSpec, n, m_max=None) -> NumberPmf:
    """Distribution after a heralded n-fold subtraction; mean (n+1)*nbar."""
    n = _check_order(n)
    if n == 0:
        return thermal_pmf(spec, m_max)
    if spec.nbar == 0.0:
        raise ConfigError(
            "subtraction from the ground state is undefined "
            "(the heralding probability vanishes)")
    m_max = default_m_max(spec.nbar, n) if m_max is None else int(m_max)
    m = np.arange(m_max + 1)
    probs = np.exp(_subtracted_logpmf(spec.x, n, m))
    # exact tail: survival function of the negative binomial with n+1 failures
    tail = float(nbinom.sf(m_max, n + 1, 1.0 - spec.x))
    return NumberPmf(probs, m_max, tail)


def added_pmf(spec: ThermalSpec, n, m_max=None) -> NumberPmf:
    """Distribution after n-fold addition: the subtracted pmf shifted up by n."""
    n = _check_order(n)
    if n == 0:
        return thermal_pmf(spec, m_max)
    m_max = default_m_max(spec.nbar, n) if m_max is None else int(m_max)
    if m_max < n:
        raise ConfigError("m_max must be >= n for an n-fold added state")
    sub = subtracted_pmf(spec, n, m_max - n)
    probs = np.zeros(m_max + 1)
    probs[n:] = sub.probs
    return NumberPmf(probs, m_max, sub.tail_mass)


def mean_occupation(spec: ThermalSpec, n, kind=SUBTRACT):
    """(n+1)*nbar after subtraction, (n+1)*nbar + n after addition."""
    n = _check_order(n)
    if kind == SUBTRACT:
        return (n + 1) * spec.nbar
    if kind == ADD:
        return (n + 1) * spec.nbar + n
    raise ConfigError(f"unknown kind {kind!r}, expected 'subtract' or 'add'")


def add_sub_fidelity(spec: ThermalSpec, n, m_max=None):
    """Fidelity sum_m sqrt(p_sub(m) p_add(m)) between the two heralded states.

    Both states are diagonal in the number basis, so the fidelity reduces to
    the Bhattacharyya overlap.  It obeys x^(n/2) < F < 1 and approaches one
    from below as nbar grows.  A truncation whose tail mass reaches 1e-9 is
    refused.
    """
    n = _check_order(n)
    if n < 1:
        raise ConfigError("fidelity comparison needs order n >= 1")
    if spec.nbar == 0.0:
        raise ConfigError("fidelity undefined for nbar = 0 (no heralds)")
    m_max = default_m_max(spec.nbar, n) if m_max is None else int(m_max)
    tail = float(nbinom.sf(m_max, n + 1, 1.0 - spec.x))
    if tail >= 1e-9:
        raise TruncationError(f"tail mass {tail:.3e} >= 1.0e-09; increase m_max")
    j = np.arange(m_max + 1 - n)
    lp = _subtracted_logpmf(spec.x, n, j)         # p_add(m=j+n) = p_sub(j)
    lq = _subtracted_logpmf(spec.x, n, j + n)     # p_sub at the shifted index
    fid = float(np.sum(np.exp(0.5 * (lp + lq))))
    lower = spec.x ** (n / 2.0)
    if not lower < fid < 1.0:
        raise NumericsError(
            f"fidelity {fid!r} escaped its analytic bounds ({lower!r}, 1)")
    return fid


def similarity_threshold(n):
    """Occupation above which n-fold addition and subtraction look alike.

    Returns (-(1+n) + sqrt(4n^3 + 5n^2 + 2n + 1)) / (2(1+n)); the threshold
    grows like sqrt(n) for large n.
    """
    n = _check_order(n)
    return (-(1.0 + n) + math.sqrt(4.0 * n**3 + 5.0 * n**2 + 2.0 * n + 1.0)) \
        / (2.0 * (1.0 + n))


def fock_oracle(spec: ThermalSpec, n, kind=SUBTRACT, m_max=None) -> NumberPmf:
    """Brute-force check: apply ladder operators to the truncated thermal state.

    Builds the diagonal of the thermal density operator, applies the
    annihilation (or creation) map n times using the exact matrix elements,
    and renormalizes.  Independent of the closed forms above; the thermal
    tail beyond m_max must already be below 1e-12.
    """
    n = _check_order(n)
    if kind not in (SUBTRACT, ADD):
        raise ConfigError(f"unknown kind {kind!r}")
    if spec.nbar == 0.0 and n >= 1 and kind == SUBTRACT:
        raise ConfigError("subtraction from the ground state is undefined")
    x = spec.x
    if m_max is None:
        m_max = default_m_max(spec.nbar, n)
        if x > 0.0:
            # the oracle precondition is a thermal tail below 1e-12
            m_max = max(m_max, int(math.ceil(27.7 / math.log(1.0 / x))) + n)
    else:
        m_max = int(m_max)
    thermal_tail = x ** (m_max + 1) if x > 0 else 0.0
    if thermal_tail >= 1e-12:
        raise TruncationError(
            f"thermal tail {thermal_tail:.3e} >= 1e-12 at m_max={m_max}")
    diag = thermal_pmf(spec, m_max).probs.copy()
    m = np.arange(m_max + 1, dtype=float)
    for _ in range(n):
        if kind == SUBTRACT:
            # (b rho b^dag)_mm = (m+1) rho_{m+1,m+1}
            diag[:-1] = (m[:-1] + 1.0) * diag[1:]
            diag[-1] = 0.0
        else:
            # (b^dag rho b)_mm = m rho_{m-1,m-1}
            diag[1:] = m[1:] * diag[:-1]
            diag[0] = 0.0
    norm = diag.sum()
    if norm <= 0.0:
        raise NumericsError("conditioned state has vanishing norm")
    return NumberPmf(diag / norm, m_max, 0.0)
