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

from .errors import ConfigError, NumericsError, TruncationError
from .params import require_choice, require_integer, require_positive

SUBTRACT = "subtract"
ADD = "add"


@dataclass(frozen=True)
class ThermalSpec:
    """Thermal state with mean occupation nbar and Boltzmann ratio x."""

    nbar: float

    def __post_init__(self):
        require_positive("nbar", self.nbar, zero_ok=True)
        if self.x == 1.0:
            raise ConfigError(f"nbar={self.nbar!r} is too large: nbar/(1+nbar) "
                              "rounds to 1")

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


def thermal_pmf(spec: ThermalSpec, m_max=None) -> NumberPmf:
    """Geometric number distribution (1-x) x^m, tail x^(m_max+1): order 0."""
    return subtracted_pmf(spec, 0, m_max)


def _subtracted_logpmf(x, n, m):
    # log binom(m + n, n) as the sum of log(1 + m/k), k = 1 ... n: exactly 0
    # at n = 0, and no large log-gamma difference to lose digits
    log_binom = sum((np.log1p(m / k) for k in range(1, n + 1)), np.zeros(np.shape(m)))
    return (n + 1) * np.log1p(-x) + m * np.log(x) + log_binom


def _subtracted_tail(spec, n, m_max):
    """Exact mass above m_max: at most n failures (probability 1 - x each) in
    N = m_max + n + 1 trials, sum_k binom(N, k) (1-x)^k x^(N-k) for k <= n.

    Each term is summed from logs; binom(N, k) is built as a product of k
    ratios so that no large log-gamma difference loses digits.
    """
    x, trials = spec.x, m_max + n + 1
    log_x, log_q = math.log(x), math.log1p(-x)
    log_term = trials * log_x                    # k = 0
    total = math.exp(log_term)
    for k in range(1, n + 1):
        log_term += math.log((trials - k + 1) / k) + log_q - log_x
        total += math.exp(log_term)
    return total


def subtracted_pmf(spec: ThermalSpec, n, m_max=None) -> NumberPmf:
    """Distribution after a heralded n-fold subtraction, mean (n+1)*nbar;
    order 0 is the thermal state.  At nbar = 0 every order is the ground
    state, the closed form's limit nbar -> 0."""
    require_integer("n", n, 0)
    m_max = default_m_max(spec.nbar, n) if m_max is None else m_max
    require_integer("m_max", m_max, 0)
    if spec.nbar == 0.0:
        probs = np.zeros(m_max + 1)
        probs[0] = 1.0
        return NumberPmf(probs, m_max, 0.0)
    m = np.arange(m_max + 1)
    probs = np.exp(_subtracted_logpmf(spec.x, n, m))
    return NumberPmf(probs, m_max, _subtracted_tail(spec, n, m_max))


def added_pmf(spec: ThermalSpec, n, m_max=None) -> NumberPmf:
    """Distribution after n-fold addition: the subtracted pmf shifted up by n."""
    require_integer("n", n, 0)
    m_max = default_m_max(spec.nbar, n) if m_max is None else m_max
    require_integer("m_max", m_max, 0)
    if m_max < n:
        raise ConfigError("m_max must be >= n for an n-fold added state")
    sub = subtracted_pmf(spec, n, m_max - n)
    probs = np.zeros(m_max + 1)
    probs[n:] = sub.probs
    return NumberPmf(probs, m_max, sub.tail_mass)


def mean_occupation(spec: ThermalSpec, n, kind=SUBTRACT):
    """(n+1)*nbar after subtraction, (n+1)*nbar + n after addition."""
    require_integer("n", n, 0)
    require_choice("kind", kind, (SUBTRACT, ADD))
    return (n + 1) * spec.nbar + (n if kind == ADD else 0)


def add_sub_fidelity(spec: ThermalSpec, n, m_max=None):
    """Fidelity sum_m sqrt(p_sub(m) p_add(m)) between the two heralded states.

    Both states are diagonal in the number basis, so the fidelity reduces to
    the Bhattacharyya overlap.  It obeys x^(n/2) < F < 1 and approaches one
    from below as nbar grows.  A truncation whose tail mass reaches 1e-9 is
    refused.
    """
    require_integer("n", n, 1)
    if spec.nbar == 0.0:
        raise ConfigError("fidelity undefined for nbar = 0 (no heralds)")
    m_max = default_m_max(spec.nbar, n) if m_max is None else m_max
    require_integer("m_max", m_max, 0)
    tail = _subtracted_tail(spec, n, m_max)
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
    require_integer("n", n, 0)
    return (-(1.0 + n) + math.sqrt(4.0 * n**3 + 5.0 * n**2 + 2.0 * n + 1.0)) \
        / (2.0 * (1.0 + n))

