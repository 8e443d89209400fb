"""Phase-space distributions of phonon-subtracted thermal states under
inefficient heterodyne readout.

Unit conventions, fixed once to avoid sqrt(2) leaks
---------------------------------------------------
Quadratures are X = (a + a^dag)/sqrt(2), P = -i(a - a^dag)/sqrt(2); a coherent
amplitude beta sits at (X, P) = sqrt(2) (Re beta, Im beta).  Every phase-space
function in this module is a probability density over dX dP, normalized to 1.
With that choice

* the vacuum Wigner function has per-quadrature variance 1/2,
* dual-quadrature (heterodyne) detection of a thermal state with occupation
  N yields a Gaussian of per-quadrature variance N + 1,
* a smoothing parameter s gives the kernel variance (1 - s)/2 per quadrature.

Two display unit systems are supported and tagged on every grid:

* ``heterodyne_vacuum``: coordinates of the detected optical field, vacuum
  contributes exactly 1 to the marginal variance, the mechanical signal adds
  eta*nbar.
* ``zero_point``: mechanical zero-point units; heterodyne coordinates divided
  by sqrt(eta).  The measured distribution in these coordinates is the
  s-parameterized quasiprobability of the mechanical state itself with
  s = (eta - 2)/eta.

The two constructions describe the same measurement and are related by
X_zp = X_het/sqrt(eta) with densities scaled by eta.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._formats import write_csv, write_json
from .errors import ConfigError, GridError
from .params import UNITS_ZERO_POINT, GridConfig, require_at_most, require_fraction, \
    require_integer, require_positive


# ---------------------------------------------------------------------------
# specs and containers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class StateSpec:
    """Heralded state description: initial nbar, subtraction order, efficiency."""

    nbar: float
    n: int
    eta: float = 1.0

    def __post_init__(self):
        require_positive("nbar", self.nbar, zero_ok=True)
        require_integer("n", self.n, 0)
        require_fraction("eta", self.eta)

    @property
    def eta_nbar(self):
        return self.eta * self.nbar


@dataclass
class PhaseSpaceGrid:
    """Square grid of a phase-space density with explicit unit bookkeeping."""

    half_width: float
    npts: int
    values: np.ndarray           # values[i, j] = W(X=axis[i], P=axis[j])
    s_param: float
    units: str

    @property
    def axis(self):
        return np.linspace(-self.half_width, self.half_width, self.npts)

    @property
    def cell(self):
        return 2.0 * self.half_width / (self.npts - 1)

    def total_mass(self):
        return float(self.values.sum()) * self.cell ** 2

    def argmax_radius(self):
        """Radius of the grid cell holding the maximum value."""
        i, j = np.unravel_index(np.argmax(self.values), self.values.shape)
        ax = self.axis
        return math.hypot(ax[i], ax[j])


@dataclass
class Marginal:
    """One-dimensional quadrature distribution."""

    xs: np.ndarray
    density: np.ndarray

    def integral(self):
        return float(np.trapezoid(self.density, self.xs))

    def variance(self):
        mu = np.trapezoid(self.xs * self.density, self.xs)
        return float(np.trapezoid((self.xs - mu) ** 2 * self.density, self.xs))


@dataclass(frozen=True)
class RingGeometry:
    marginal_max: float
    wigner_radius: float
    is_nongaussian: bool
    threshold: float


# ---------------------------------------------------------------------------
# scalar relations
# ---------------------------------------------------------------------------

def s_from_eta(eta):
    """Smoothing parameter s = (eta - 2)/eta of an efficiency-eta measurement."""
    require_fraction("eta", eta)
    return (eta - 2.0) / eta


def eta_from_s(s):
    """Inverse of s_from_eta: eta = 2/(1 - s), valid for s <= -1."""
    require_at_most("s", s, -1.0)
    return 2.0 / (1.0 - s)


def added_noise_quanta(s):
    """Total added measurement noise |s|/2 in mechanical quanta."""
    require_at_most("s", s, -1.0)
    return abs(s) / 2.0


# ---------------------------------------------------------------------------
# the smoothed P-family
# ---------------------------------------------------------------------------

def _smoothed_p(occupation, n, var_k, marginal=False):
    """The n-subtracted thermal P-function at `occupation`, convolved with an
    isotropic Gaussian of per-quadrature variance var_k (Cahill & Glauber,
    Phys. Rev. 177, 1857 (1969)).  With V = occupation + var_k the
    convolution is finite:

        W(X, P) = e^(-w) / (2 pi V) sum_k c_k w^k,   w = (X^2 + P^2) / (2V),
        c_k = binom(n, k) / k! (var_k/V)^(n-k) (occupation/V)^k.

    var_k = 0 is the P-function itself and occupation = 0 the bare kernel,
    every order's limit occupation -> 0; both at once is refused as singular.
    With marginal=True the callable is the exact projection onto X,
    e^(-y) / sqrt(2 pi V) sum_e d_e y^e with y = X^2/(2V) and
    d_e = sum_{k>=e} c_k binom(k, e) Gamma(k-e+1/2) / Gamma(1/2).  Every
    sum runs over logarithms, so no order overflows.
    """
    v = occupation + var_k
    if v == 0.0:
        raise ConfigError("occupation 0 has a singular diagonal representation")
    lg = math.lgamma
    with np.errstate(divide="ignore"):
        log_u, log_t = np.log(var_k / v), np.log(occupation / v)
    log_c = [lg(n + 1) - 2.0 * lg(k + 1) - lg(n - k + 1)
             + (log_u * (n - k) if k < n else 0.0) + (log_t * k if k else 0.0)
             for k in range(n + 1)]
    if marginal:
        log_c = [np.logaddexp.reduce([
            log_c[k] + lg(k + 1) - lg(e + 1) - lg(k - e + 1) + lg(k - e + 0.5) - lg(0.5)
            for k in range(e, n + 1)]) for e in range(n + 1)]
    terms = [(e, c) for e, c in enumerate(log_c) if c > -math.inf]
    log_norm = (1 if marginal else 2) * 0.5 * math.log(2.0 * math.pi * v)

    def density(*coords):
        y = sum(np.square(np.asarray(c, dtype=float)) for c in coords) / (2.0 * v)

        def log_terms():         # c_e + e log y, with no log y in the e = 0 term
            return (c + e * log_y if e else c for e, c in terms)

        with np.errstate(divide="ignore"):
            log_y = np.log(y)
            top = np.full(y.shape, np.finfo(float).min)
            for term in log_terms():
                np.maximum(top, term, out=top)
            total = sum(np.exp(term - top) for term in log_terms())
            return np.exp(top + np.log(total) - y - log_norm)

    return density


def p_function(spec: StateSpec):
    """Diagonal coherent-state density of the detected state, over dX dP.

    Measurement inefficiency rescales the thermal occupation, nbar ->
    eta*nbar, so the returned callable evaluates the n-subtracted form at the
    effective occupation.  For n >= 1 the density vanishes at the origin and
    peaks on the ring X^2 + P^2 = 2 n N.
    """
    return _smoothed_p(spec.eta_nbar, spec.n, 0.0)


def gaussian_kernel(s):
    """Isotropic smoothing kernel exp(-(X^2+P^2)/(1-s)) / (pi (1-s))."""
    require_at_most("s", s, 1.0, strict=True)
    return _smoothed_p(0.0, 0, (1.0 - s) / 2.0)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def state_window(occupation, n, var_k):
    """Five standard deviations of the order-n state smoothed by var_k:
    5 sqrt((n + 1) occupation + var_k), the default display half width."""
    require_positive("occupation", occupation, zero_ok=True)
    require_integer("n", n, 0)
    require_positive("var_k", var_k, zero_ok=True)
    return 5.0 * math.sqrt((n + 1) * occupation + var_k)


def _grid_geometry(spec, cfg, s_override):
    """Resolve (occupation, kernel variance, tag s, half width) for both unit
    systems."""
    if cfg.units == UNITS_ZERO_POINT:
        occupation = spec.nbar
        s_build = s_from_eta(spec.eta) if s_override is None else s_override
        require_at_most("s", s_build, 1.0, strict=True)
        s_tag = s_build = float(s_build)
    else:
        if s_override is not None:
            raise ConfigError("s_override only applies to zero_point grids")
        occupation = spec.eta_nbar
        s_build = -1.0
        s_tag = s_from_eta(spec.eta)
    var_k = (1.0 - s_build) / 2.0
    half_width = cfg.half_width if cfg.half_width is not None \
        else state_window(occupation, spec.n, var_k)
    return occupation, var_k, s_tag, half_width


def wigner_s(spec: StateSpec, cfg: GridConfig | None = None,
             s_override=None) -> PhaseSpaceGrid:
    """The state's diagonal density smoothed by the kernel, on a grid.

    Produces the distribution sampled by dual-quadrature detection: in
    heterodyne units the effective occupation eta*nbar smoothed by one vacuum
    unit, in zero-point units the bare nbar smoothed by the kernel at
    s = (eta-2)/eta (or an explicit s_override).
    """
    cfg = cfg or GridConfig()
    occupation, var_k, s_tag, half_width = _grid_geometry(spec, cfg, s_override)
    axis = np.linspace(-half_width, half_width, cfg.npts)
    values = _smoothed_p(occupation, spec.n, var_k)(axis[:, None], axis[None, :])
    grid = PhaseSpaceGrid(half_width, cfg.npts, values, s_tag, cfg.units)
    _validate_grid(grid)
    return grid


def _validate_grid(grid):
    d = grid.cell
    mass = grid.total_mass()
    edge = (grid.values[0, :].sum() + grid.values[-1, :].sum()
            + grid.values[1:-1, 0].sum() + grid.values[1:-1, -1].sum()) * d * d
    if edge > 1e-4 or abs(mass - 1.0) > 1e-3:
        raise GridError(
            f"grid too small: mass={mass:.6f}, edge mass={edge:.2e}",
            suggested_half_width=1.5 * grid.half_width)


# ---------------------------------------------------------------------------
# marginals
# ---------------------------------------------------------------------------

def quadrature_marginal(nbar, n):
    """Quadrature distribution of the n-subtracted state itself (no detection).

    Vacuum contributes 1/2 to the variance in these units; the thermal n = 0
    case is a Gaussian of variance nbar + 1/2, and at nbar = 0 every order is
    the vacuum's, of variance 1/2.
    """
    require_positive("nbar", nbar, zero_ok=True)
    require_integer("n", n, 0)
    return _smoothed_p(nbar, n, 0.5, marginal=True)


def measured_marginal(spec: StateSpec):
    """Detected quadrature distribution for any subtraction order.

    Heterodyne detection smooths the P-function at m = eta*nbar by one vacuum
    unit, so the thermal case is a Gaussian of variance 1 + m; subtraction
    adds polynomial factors that become bimodal once m crosses the
    non-Gaussianity thresholds.  At m = 0 every order detects the vacuum.
    """
    return _smoothed_p(spec.eta_nbar, spec.n, 1.0, marginal=True)


def ring_radius(n, eta_nbar) -> RingGeometry:
    """Location of the detected-marginal maxima and the matching ring radius.

    Bimodality appears above eta*nbar = 2 for single subtraction and above
    2*sqrt(6) - 4 for double subtraction; below threshold the maximum sits at
    the origin and the distribution stays single-peaked.  The phase-space
    ring radius exceeds the marginal maximum by sqrt(2).
    """
    require_integer("n", n, 0)
    require_positive("eta_nbar", eta_nbar, zero_ok=True)
    m = float(eta_nbar)
    if n == 1:
        threshold = 2.0
        x_peak = math.sqrt((1.0 + m) * (m - 2.0) / m) if m > threshold else 0.0
    elif n == 2:
        threshold = 2.0 * math.sqrt(6.0) - 4.0
        if m > threshold:
            x_peak = math.sqrt((1.0 + m) / m
                               * (-4.0 + m + math.sqrt(2.0 * (4.0 + m * m))))
        else:
            x_peak = 0.0
    else:
        raise ConfigError("ring geometry is available for n in {1, 2}")
    return RingGeometry(
        marginal_max=x_peak,
        wigner_radius=math.sqrt(2.0) * x_peak,
        is_nongaussian=m > threshold,
        threshold=threshold,
    )


# ---------------------------------------------------------------------------
# marginal operations
# ---------------------------------------------------------------------------

def marginal_from_grid(grid: PhaseSpaceGrid) -> Marginal:
    """Integrate the grid over P by column sums times the cell height."""
    density = grid.values.sum(axis=1) * grid.cell
    return Marginal(xs=grid.axis.copy(), density=density)


def marginal_on_grid(func, xs) -> Marginal:
    return Marginal(xs=np.asarray(xs, dtype=float),
                    density=np.asarray(func(xs), dtype=float))


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

GRID_SCHEMA = "phonon-forge/grid-v1"
MARGINAL_SCHEMA = "phonon-forge/marginal-v1"


def write_grid(grid: PhaseSpaceGrid, csv_path, json_path):
    ax = grid.axis
    write_csv(csv_path, "X,P,value", [np.repeat(ax, grid.npts),
                                      np.tile(ax, grid.npts), grid.values.ravel()])
    write_json(json_path, {"schema": GRID_SCHEMA, "units": grid.units,
                           "s_param": grid.s_param, "npts": grid.npts,
                           "half_width": grid.half_width})


def write_marginal(marg: Marginal, csv_path):
    write_csv(csv_path, "X,density", [marg.xs, marg.density])
