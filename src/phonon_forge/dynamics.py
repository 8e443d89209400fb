"""Closed-form optomechanical dynamics and heralded variance evolution.

The anti-Stokes interaction sideband-cools the oscillator and broadens its
line: C = G^2/(kappa2 gamma), gamma_eff = gamma (1 + C), nbar = nbar_th/(1+C).
Conditioning on one or two detected photons raises the heterodyne signal
variance at the herald by exactly (1 + n) relative to the steady state; away
from the herald the enhancement relaxes through the normalized two-time
amplitude correlation

    bracket(tau) = (kappa e^(-gamma|tau|) - gamma e^(-kappa|tau|)) / (kappa - gamma)

of the scattered field, with kappa the anti-Stokes mode decay rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from ._formats import write_csv
from .errors import ConfigError, NumericsError
from .params import UNITS_HETERODYNE, UNITS_ZERO_POINT, SimConfig, SystemParams, \
    require_integer, require_positive


@dataclass
class VarianceCurve:
    """Heterodyne variance versus time offset from the herald."""

    taus: np.ndarray
    values: np.ndarray
    order: int
    units: str = UNITS_HETERODYNE

    def to_zero_point(self, eta):
        """Variance in mechanical zero-point units (coordinates / sqrt(eta))."""
        return VarianceCurve(self.taus.copy(), self.values / eta,
                             self.order, units=UNITS_ZERO_POINT)


@dataclass(frozen=True)
class Characterization:
    n_cav: float
    coupling: float
    cooperativity: float
    nbar_cooled: float
    gamma_eff: float

    @property
    def decay_time(self):
        return 1.0 / self.gamma_eff


# ---------------------------------------------------------------------------
# steady-state characterization chain
# ---------------------------------------------------------------------------

def _squared(coupling, what):
    """coupling ** 2; a NumericsError naming what if the square overflows,
    which a float raises as an OverflowError."""
    try:
        return coupling ** 2
    except OverflowError:
        raise NumericsError(f"{what} overflows at coupling {coupling!r}") from None


def cooperativity(params: SystemParams, coupling):
    """C = G^2 / (kappa2 gamma); NumericsError if it overflows."""
    require_positive("coupling", coupling, zero_ok=True)
    coop = _squared(coupling, "the cooperativity") / (params.kappa2 * params.gamma)
    if math.isinf(coop):
        raise NumericsError(f"the cooperativity overflows at coupling {coupling!r}")
    return coop


def cooled_occupation(params: SystemParams, coop):
    """Steady-state occupation nbar_th / (1 + C) under the cooling interaction."""
    require_positive("cooperativity", coop, zero_ok=True)
    return params.nbar_th / (1.0 + coop)


def effective_linewidth(params: SystemParams, coop):
    """Broadened mechanical amplitude decay gamma (1 + C) in rad/s."""
    require_positive("cooperativity", coop, zero_ok=True)
    return params.gamma * (1.0 + coop)


def characterize(params: SystemParams, n_cav=None) -> Characterization:
    """Evaluate the full chain N_cav -> G -> C -> (nbar, gamma_eff)."""
    if n_cav is None:
        n_cav = params.intracavity_photons()
    g = params.pump_enhanced_coupling(n_cav)
    c = cooperativity(params, g)
    return Characterization(
        n_cav=n_cav,
        coupling=g,
        cooperativity=c,
        nbar_cooled=cooled_occupation(params, c),
        gamma_eff=effective_linewidth(params, c),
    )


def relaxation_rate(sim: SimConfig):
    """The emulator's mechanical relaxation rate: the intrinsic gamma, or the
    cooling-broadened gamma_eff when sim.mech_linewidth is "effective"."""
    p = sim.params
    return characterize(p).gamma_eff if sim.mech_linewidth == "effective" else p.gamma


# ---------------------------------------------------------------------------
# spectra
# ---------------------------------------------------------------------------

def anti_stokes_spectrum(params: SystemParams, coupling):
    """Heterodyne power spectral density of the thermally scattered signal.

    Lorentzian pair centered at +/- omega_het with full width 2*gamma_eff,
    normalized to unit peak.  Only the width carries physics here; the overall
    scale of the measured spectrum is arbitrary.
    """
    c = cooperativity(params, coupling)
    g_eff = effective_linewidth(params, c)
    w_h = params.omega_het

    def lorentz(w):
        return 2.0 * params.gamma / (w ** 2 + g_eff ** 2)

    peak = lorentz(0.0) + lorentz(2.0 * w_h)

    def psd(omega):
        omega = np.asarray(omega, dtype=float)
        return (lorentz(omega - w_h) + lorentz(-omega - w_h)) / peak

    return psd


def fit_linewidth(omegas, psd_values):
    """Fit a Lorentzian peak; returns the half width at half maximum.

    Levenberg-Marquardt on the least-squares objective of
    amp / (1 + ((x - center) / width)^2), in the scaled coordinate
    x = (omega - w0) / guess_width so that every parameter is of order one.
    """
    omegas = np.asarray(omegas, dtype=float)
    vals = np.asarray(psd_values, dtype=float)
    w0 = float(omegas[np.argmax(vals)])
    half = omegas[vals > 0.5 * vals.max()]
    guess_width = max(0.5 * (half.max() - half.min()), omegas[1] - omegas[0])
    x = (omegas - w0) / guess_width

    def residual_and_jacobian(p):
        amp, center, width = p
        u = (x - center) / width
        d = 1.0 / (1.0 + u * u)
        du = 2.0 * amp * d * d * u / width        # d(model)/d(center)
        return vals - amp * d, np.stack([d, du, du * u], axis=1)

    p = np.array([vals.max(), 0.0, 1.0])
    r, jac = residual_and_jacobian(p)
    cost, damping = r @ r, 1e-3
    for _ in range(200):
        jtj = jac.T @ jac
        step = np.linalg.solve(jtj + damping * np.diag(np.diag(jtj)), jac.T @ r)
        r_new, jac_new = residual_and_jacobian(p + step)
        cost_new = r_new @ r_new
        if cost_new < cost:
            p, r, jac, cost = p + step, r_new, jac_new, cost_new
            damping *= 0.1
            # the centre sits near 0 in scaled units: measure it against 1
            if np.all(np.abs(step) <= 1e-10 * (np.abs(p) + (0.0, 1.0, 0.0))):
                return abs(p[2]) * guess_width
        else:
            damping *= 10.0
            if damping > 1e16:          # no step lowers the cost: a minimum
                return abs(p[2]) * guess_width
    raise NumericsError("Lorentzian linewidth fit did not converge")


def fit_g0_from_spectra(params: SystemParams, n_cavs):
    """Recover (g0, gamma) from simulated spectra across a power sweep.

    For each photon number, samples the spectrum around +omega_het, fits the
    Lorentzian width, then fits the affine law gamma_eff = gamma + (g0^2/kappa2)
    N_cav.  Returns (g0_fit, gamma_fit) in rad/s.
    """
    n_cavs = np.asarray(n_cavs, dtype=float)
    if np.unique(n_cavs).size < 2:
        raise ConfigError(f"the fit needs two distinct photon numbers, got {n_cavs}")
    widths = []
    for n_cav in n_cavs:
        chain = characterize(params, n_cav)
        half = 10.0 * chain.gamma_eff
        omegas = params.omega_het + np.linspace(-half, half, 4001)
        psd = anti_stokes_spectrum(params, chain.coupling)(omegas)
        widths.append(fit_linewidth(omegas - params.omega_het, psd))
    try:
        with np.errstate(divide="raise"):
            slope, intercept = np.polyfit(n_cavs, widths, 1)
    except (FloatingPointError, np.linalg.LinAlgError) as exc:
        raise NumericsError(f"spectrum fit failed at photon numbers down to "
                            f"{n_cavs.min():.3g}: {exc}") from None
    if slope <= 0:
        raise NumericsError("spectrum fit produced a non-positive slope")
    return math.sqrt(slope * params.kappa2), float(intercept)


# ---------------------------------------------------------------------------
# two-time correlations and heralded variances
# ---------------------------------------------------------------------------

_DEGENERATE_TOL = 1e-6


def correlation_bracket(kappa, rate, tau):
    """Normalized amplitude correlation of the scattered field.

    (kappa e^(-rate |tau|) - rate e^(-kappa |tau|)) / (kappa - rate), with the
    removable kappa = rate singularity replaced by its analytic limit
    (1 + kappa |tau|) e^(-kappa |tau|).
    """
    require_positive("kappa", kappa)
    require_positive("rate", rate)
    at = np.abs(np.asarray(tau, dtype=float))
    if abs(kappa - rate) / max(kappa, rate) < _DEGENERATE_TOL:
        k = 0.5 * (kappa + rate)
        return (1.0 + k * at) * np.exp(-k * at)
    return (kappa * np.exp(-rate * at) - rate * np.exp(-kappa * at)) / (kappa - rate)


def correlation_amplitude(params: SystemParams, coupling, rate=None):
    """Equal-time scattered-field occupation nbar_th G^2 / (kappa (kappa + r)).

    r is the mechanical relaxation rate, the intrinsic gamma unless given.
    """
    require_positive("coupling", coupling, zero_ok=True)
    k = params.kappa2
    r = params.gamma if rate is None else rate
    require_positive("rate", r)
    return params.nbar_th * _squared(coupling, "the scattered occupation") / (k * (k + r))


def heralded_variance(params: SystemParams, n, rate=None):
    """Heterodyne variance about an n-photon herald, in optical vacuum units.

    sigma_n(tau)^2 = 1 + eta nbar_th (1 + n bracket(tau)^2) for every order
    n >= 0, with the mechanical relaxation rate in the bracket the intrinsic
    gamma unless given.  The mechanical contribution at tau = 0 is exactly
    (1 + n) times its steady-state value and relaxes symmetrically in |tau|.
    """
    require_integer("n", n, 0)
    k = params.kappa2
    r = params.gamma if rate is None else rate
    require_positive("rate", r)
    signal = params.eta_total * params.nbar_th

    def variance(tau):
        b = correlation_bracket(k, r, tau)
        return 1.0 + signal * (1.0 + n * b * b)

    return variance


def variance_curve(params: SystemParams, n, taus, rate=None) -> VarianceCurve:
    taus = np.asarray(taus, dtype=float)
    return VarianceCurve(taus, heralded_variance(params, n, rate)(taus), order=n)


def steady_state_variance(params: SystemParams):
    """Unconditional heterodyne variance 1 + eta nbar_th."""
    return 1.0 + params.eta_total * params.nbar_th


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_variance_curve(curve: VarianceCurve, csv_path):
    write_csv(csv_path, "tau,variance", [curve.taus, curve.values])
