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
from .errors import ConfigError, GridError, NumericsError
from .params import require_integer, require_positive

UNITS_HETERODYNE = "heterodyne_vacuum"
UNITS_ZERO_POINT = "zero_point"
_VALID_UNITS = (UNITS_HETERODYNE, UNITS_ZERO_POINT)

LOG_SQRT_PI = 0.5 * math.log(math.pi)


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
        if int(self.n) != self.n or self.n < 0:
            raise ConfigError("subtraction order n must be a non-negative integer")
        if not 0.0 < self.eta <= 1.0:
            raise ConfigError("eta must lie in (0, 1]")

    @property
    def eta_nbar(self):
        return self.eta * self.nbar


@dataclass(frozen=True)
class GridConfig:
    npts: int = 513
    half_width: float | None = None
    units: str = UNITS_ZERO_POINT

    def __post_init__(self):
        require_integer("npts", self.npts, 3)
        if self.npts % 2 == 0:
            raise ConfigError("npts must be odd and >= 3 so the origin is a node")
        if self.half_width is not None:
            require_positive("half_width", self.half_width)
        if self.units not in _VALID_UNITS:
            raise ConfigError(f"units must be one of {_VALID_UNITS}")


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
    if not 0.0 < eta <= 1.0:
        raise ConfigError("eta must lie in (0, 1]")
    return (eta - 2.0) / eta


def eta_from_s(s):
    """Inverse of s_from_eta: eta = 2/(1 - s), valid for s <= -1."""
    if s > -1.0:
        raise ConfigError("s must be <= -1 for a physical efficiency")
    return 2.0 / (1.0 - s)


def added_noise_quanta(s):
    """Total added measurement noise |s|/2 in mechanical quanta."""
    if s > -1.0:
        raise ConfigError("s must be <= -1")
    return abs(s) / 2.0


# ---------------------------------------------------------------------------
# pointwise phase-space functions
# ---------------------------------------------------------------------------

def p_function(spec: StateSpec):
    """Diagonal coherent-state density of the detected state, over dX dP.

    Measurement inefficiency rescales the thermal occupation, nbar ->
    eta*nbar, so the returned callable evaluates the n-subtracted form at the
    effective occupation.  For n >= 1 the density vanishes at the origin and
    peaks on the ring X^2 + P^2 = 2 n N.
    """
    n_eff = spec.eta_nbar
    if spec.n >= 1 and n_eff <= 0.0:
        raise ConfigError("n >= 1 requires a strictly positive occupation")
    return _p_function_raw(n_eff, spec.n)


def _p_function_raw(occupation, n):
    if occupation < 0:
        raise ConfigError("occupation must be >= 0")
    if occupation == 0.0:
        raise ConfigError("occupation 0 has a singular diagonal representation")
    log_norm = (math.log(2.0 * math.pi) + math.lgamma(n + 1)
                + (n + 1) * math.log(occupation))

    def density(x, p):
        r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(p, dtype=float) ** 2
        if n == 0:
            return np.exp(-r2 / (2.0 * occupation) - log_norm)
        with np.errstate(divide="ignore"):
            log_ring = n * np.log(r2 / 2.0)
        return np.exp(log_ring - r2 / (2.0 * occupation) - log_norm)

    return density


def gaussian_kernel(s):
    """Isotropic smoothing kernel exp(-(X^2+P^2)/(1-s)) / (pi (1-s))."""
    if s >= 1.0:
        raise ConfigError("kernel requires s < 1")
    width = 1.0 - s

    def density(x, p):
        r2 = np.asarray(x, dtype=float) ** 2 + np.asarray(p, dtype=float) ** 2
        return np.exp(-r2 / width) / (math.pi * width)

    return density


def kernel_sigma(s):
    """Per-quadrature standard deviation sqrt((1-s)/2) of the kernel."""
    return math.sqrt((1.0 - s) / 2.0)


# ---------------------------------------------------------------------------
# grid construction
# ---------------------------------------------------------------------------

def _grid_geometry(spec, cfg, s_override):
    """Resolve (occupation, build s, tag s, half width) for both unit systems."""
    if cfg.units == UNITS_ZERO_POINT:
        occupation = spec.nbar
        s_build = s_from_eta(spec.eta) if s_override is None else float(s_override)
        if not (math.isfinite(s_build) and s_build < 1.0):
            raise ConfigError(f"s must be finite and < 1, got {s_build!r}")
        s_tag = s_build
    else:
        if s_override is not None:
            raise ConfigError("s_override only applies to zero_point grids")
        occupation = spec.eta_nbar
        s_build = -1.0
        s_tag = s_from_eta(spec.eta)
    var = occupation + (1.0 - s_build) / 2.0
    half_width = cfg.half_width if cfg.half_width is not None else 5.0 * math.sqrt(var)
    return occupation, s_build, s_tag, half_width


def wigner_s(spec: StateSpec, cfg: GridConfig | None = None,
             s_override=None) -> PhaseSpaceGrid:
    """Convolve the state's diagonal density with the smoothing kernel.

    Produces the distribution sampled by dual-quadrature detection: in
    heterodyne units the effective occupation eta*nbar smoothed by one vacuum
    unit, in zero-point units the bare nbar smoothed by the kernel at
    s = (eta-2)/eta (or an explicit s_override).  FFT convolution on a
    zero-padded grid; the padding always covers five kernel widths.
    """
    cfg = cfg or GridConfig()
    occupation, s_build, s_tag, half_width = _grid_geometry(spec, cfg, s_override)

    axis = np.linspace(-half_width, half_width, cfg.npts)
    d = axis[1] - axis[0]
    sig_k = kernel_sigma(s_build)

    if occupation == 0.0:
        if spec.n >= 1:
            raise ConfigError("n >= 1 requires a strictly positive occupation")
        x, p = np.meshgrid(axis, axis, indexing="ij")
        values = gaussian_kernel(s_build)(x, p)
        grid = PhaseSpaceGrid(half_width, cfg.npts, values, s_tag, cfg.units)
        _validate_grid(grid)
        return grid

    sig_p = math.sqrt(occupation)
    if sig_p < 3.0 * d:
        raise NumericsError(
            "grid too coarse for the pre-smoothing density "
            f"(sigma={sig_p:.3g}, cell={d:.3g}); increase npts")

    pad = int(math.ceil(5.0 * sig_k / d))
    axis_pad = -(half_width + pad * d) + d * np.arange(cfg.npts + 2 * pad)

    xp, pp = np.meshgrid(axis_pad, axis_pad, indexing="ij")
    pvals = _p_function_raw(occupation, spec.n)(xp, pp)

    k_axis = d * np.arange(-pad, pad + 1)
    kx, kp = np.meshgrid(k_axis, k_axis, indexing="ij")
    kvals = gaussian_kernel(s_build)(kx, kp)

    # the linear convolution as one real FFT product, kept to its valid part
    p, k = pvals.shape[0], kvals.shape[0]
    shape, axes = [fast_len(p + k - 1)] * 2, (0, 1)
    full = np.fft.irfftn(np.fft.rfftn(pvals, shape, axes)
                         * np.fft.rfftn(kvals, shape, axes), shape, axes)
    values = full[k - 1:p, k - 1:p] * d * d
    if values.shape != (cfg.npts, cfg.npts):
        raise NumericsError("unexpected convolution output shape")
    values = np.maximum(values, 0.0)

    grid = PhaseSpaceGrid(half_width, cfg.npts, values, s_tag, cfg.units)
    _validate_grid(grid)
    return grid


def fast_len(n):
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT transforms quickly."""
    odd = (3 ** b * 5 ** c for b in range(n.bit_length()) for c in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd if p < 2 * n)


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
# closed-form marginals
# ---------------------------------------------------------------------------

def _log_binom(a, b):
    return math.lgamma(a + 1) - math.lgamma(b + 1) - math.lgamma(a - b + 1)


def _log_gamma_half(q):
    """log Gamma(q + 1/2) through the exact half-integer identity."""
    return math.lgamma(2 * q + 1) - q * math.log(4.0) - math.lgamma(q + 1) + LOG_SQRT_PI


def quadrature_marginal(nbar, n):
    """Quadrature distribution of the n-subtracted state itself (no detection).

    Vacuum contributes 1/2 to the variance in these units; the thermal n = 0
    case is a Gaussian of variance nbar + 1/2.
    """
    if int(n) != n or n < 0:
        raise ConfigError("n must be a non-negative integer")
    n = int(n)
    if n >= 1 and nbar <= 0:
        raise ConfigError("n >= 1 requires nbar > 0")
    if nbar < 0:
        raise ConfigError("nbar must be >= 0")
    w = 1.0 + 2.0 * nbar
    log_pref = -(math.lgamma(n + 1) + 1.5 * math.log(math.pi) + 0.5 * math.log(w))

    powers = np.zeros(n + 1)
    for k in range(n + 1):
        for l in range(k + 1):
            logc = (_log_binom(n, k) + _log_binom(2 * k, 2 * l)
                    + _log_gamma_half(n - k) + _log_gamma_half(l))
            e = k - l
            if nbar > 0:
                logc += e * math.log(2.0 * nbar) - (2 * k - l) * math.log(w)
            elif e > 0:
                continue
            powers[e] += math.exp(logc)
    return _poly_gaussian(powers, log_pref, 1.0 / w)


def measured_marginal(spec: StateSpec):
    """Detected quadrature distribution for n in {0, 1, 2}, closed form.

    With m = eta*nbar the thermal case is a Gaussian of variance 1 + m; the
    one- and two-subtraction cases pick up polynomial factors that become
    bimodal once m crosses the non-Gaussianity thresholds.
    """
    m = spec.eta_nbar
    n = spec.n
    if n not in (0, 1, 2):
        raise ConfigError("closed forms cover n in {0, 1, 2}; "
                          "use measured_marginal_general for higher orders")
    v = 1.0 + m

    if n == 0:
        def density(x):
            x = np.asarray(x, dtype=float)
            return np.exp(-x**2 / (2.0 * v)) / math.sqrt(2.0 * math.pi * v)
        return density

    if n == 1:
        c0 = (2.0 + m) / v
        c2 = 4.0 * m / (2.0 * v) ** 2

        def density(x):
            x = np.asarray(x, dtype=float)
            return (np.exp(-x**2 / (2.0 * v)) / math.sqrt(8.0 * math.pi * v)
                    * (c0 + c2 * x**2))
        return density

    c0 = (8.0 + 8.0 * m + 3.0 * m**2) / (4.0 * v**2)
    c2 = (4.0 * m + m**2) / (2.0 * v**3)
    c4 = (2.0 * m) ** 2 / (2.0 * v) ** 4

    def density(x):
        x = np.asarray(x, dtype=float)
        return (np.exp(-x**2 / (2.0 * v)) / math.sqrt(8.0 * math.pi * v)
                * (c0 + c2 * x**2 + c4 * x**4))
    return density


def measured_marginal_general(spec: StateSpec):
    """Detected quadrature distribution for any subtraction order.

    Heterodyne detection smooths the P-function by one vacuum unit, twice the
    smoothing of the state's own marginal, and the n-subtracted P-family is
    closed under that rescaling: at m = eta*nbar this is
    quadrature_marginal(m/2, n) stretched by sqrt(2), and the vacuum N(0, 1)
    at m = 0.  Reduces to the explicit n <= 2 forms.
    """
    m = spec.eta_nbar
    inner = quadrature_marginal(m / 2.0, spec.n if m > 0.0 else 0)
    root = math.sqrt(2.0)
    return lambda x: inner(np.asarray(x, dtype=float) / root) / root


def _poly_gaussian(powers, log_pref, inv_two_var):
    """Density x -> exp(log_pref) * sum_e powers[e] x^(2e) * exp(-x^2*inv_two_var)."""
    scale = math.log(max(powers.max(), np.finfo(float).tiny))
    coeff = powers * math.exp(-scale)

    def density(x):
        x = np.asarray(x, dtype=float)
        x2 = x * x
        poly = np.zeros_like(x2)
        for c in coeff[::-1]:
            poly = poly * x2 + c
        return np.exp(log_pref + scale - x2 * inv_two_var) * poly

    return density


def ring_radius(n, eta_nbar) -> RingGeometry:
    """Location of the detected-marginal maxima and the matching ring radius.

    Bimodality appears above eta*nbar = 2 for single subtraction and above
    2*sqrt(6) - 4 for double subtraction; below threshold the maximum sits at
    the origin and the distribution stays single-peaked.  The phase-space
    ring radius exceeds the marginal maximum by sqrt(2).
    """
    if eta_nbar < 0:
        raise ConfigError("eta_nbar must be >= 0")
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


def grid_header(grid: PhaseSpaceGrid) -> dict:
    return {
        "schema": GRID_SCHEMA,
        "units": grid.units,
        "s_param": grid.s_param,
        "npts": grid.npts,
        "half_width": grid.half_width,
    }


def write_grid(grid: PhaseSpaceGrid, csv_path, json_path):
    ax = grid.axis
    write_csv(csv_path, "X,P,value", [np.repeat(ax, grid.npts),
                                      np.tile(ax, grid.npts), grid.values.ravel()])
    write_json(json_path, grid_header(grid))


def write_marginal(marg: Marginal, csv_path):
    write_csv(csv_path, "X,density", [marg.xs, marg.density])
