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
from scipy.optimize import curve_fit

from ._formats import write_csv
from .errors import ConfigError, NumericsError
from .params import SystemParams


@dataclass
class VarianceCurve:
    """Heterodyne variance versus time offset from the herald."""

    taus: np.ndarray
    values: np.ndarray
    order: int
    units: str = "heterodyne_vacuum"

    def to_zero_point(self, eta):
        """Variance in mechanical zero-point units (coordinates / sqrt(eta))."""
        return VarianceCurve(self.taus.copy(), self.values / eta,
                             self.order, units="zero_point")


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

def intracavity_photons(params: SystemParams):
    """Pump photon number eta_c1 P_in / (kappa1 hbar omega)."""
    return params.intracavity_photons()


def coupling_rate(params: SystemParams, n_cav):
    """Pump-enhanced coupling G = g0 sqrt(N_cav) in rad/s."""
    return params.pump_enhanced_coupling(n_cav)


def cooperativity(params: SystemParams, coupling):
    """C = G^2 / (kappa2 gamma)."""
    if coupling < 0:
        raise ConfigError("coupling must be >= 0")
    return coupling ** 2 / (params.kappa2 * params.gamma)


def cooled_occupation(params: SystemParams, coop):
    """Steady-state occupation nbar_th / (1 + C) under the cooling interaction."""
    if coop < 0:
        raise ConfigError("cooperativity must be >= 0")
    return params.nbar_th / (1.0 + coop)


def effective_linewidth(params: SystemParams, coop):
    """Broadened mechanical amplitude decay gamma (1 + C) in rad/s."""
    if coop < 0:
        raise ConfigError("cooperativity must be >= 0")
    return params.gamma * (1.0 + coop)


def characterize(params: SystemParams, n_cav=None) -> Characterization:
    """Evaluate the full chain N_cav -> G -> C -> (nbar, gamma_eff)."""
    if n_cav is None:
        n_cav = intracavity_photons(params)
    g = coupling_rate(params, n_cav)
    c = cooperativity(params, g)
    return Characterization(
        n_cav=n_cav,
        coupling=g,
        cooperativity=c,
        nbar_cooled=cooled_occupation(params, c),
        gamma_eff=effective_linewidth(params, c),
    )


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
    """Fit a Lorentzian peak; returns the half width at half maximum."""
    omegas = np.asarray(omegas, dtype=float)
    vals = np.asarray(psd_values, dtype=float)

    def model(w, amp, center, width):
        return amp / (1.0 + ((w - center) / width) ** 2)

    w0 = float(omegas[np.argmax(vals)])
    half = omegas[vals > 0.5 * vals.max()]
    guess_width = max(0.5 * (half.max() - half.min()), omegas[1] - omegas[0])
    popt, _ = curve_fit(model, omegas, vals, p0=(vals.max(), w0, guess_width))
    return abs(popt[2])


def fit_g0_from_spectra(params: SystemParams, n_cavs):
    """Recover (g0, gamma) from simulated spectra across a power sweep.

    For each photon number, samples the spectrum around +omega_het, fits the
    Lorentzian width, then fits the affine law gamma_eff = gamma + (g0^2/kappa2)
    N_cav.  Returns (g0_fit, gamma_fit) in rad/s.
    """
    n_cavs = np.asarray(n_cavs, dtype=float)
    widths = []
    for n_cav in n_cavs:
        chain = characterize(params, n_cav)
        half = 10.0 * chain.gamma_eff
        omegas = params.omega_het + np.linspace(-half, half, 4001)
        psd = anti_stokes_spectrum(params, chain.coupling)(omegas)
        widths.append(fit_linewidth(omegas - params.omega_het, psd))
    slope, intercept = np.polyfit(n_cavs, widths, 1)
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
    at = np.abs(np.asarray(tau, dtype=float))
    if abs(kappa - rate) / max(kappa, rate) < _DEGENERATE_TOL:
        k = 0.5 * (kappa + rate)
        return (1.0 + k * at) * np.exp(-k * at)
    return (kappa * np.exp(-rate * at) - rate * np.exp(-kappa * at)) / (kappa - rate)


def correlation_amplitude(params: SystemParams, coupling, rate=None):
    """Equal-time scattered-field occupation nbar_th G^2 / (kappa (kappa + r)).

    r is the mechanical relaxation rate, the intrinsic gamma unless given.
    """
    k = params.kappa2
    r = params.gamma if rate is None else rate
    return params.nbar_th * coupling ** 2 / (k * (k + r))


def correlation(params: SystemParams, coupling):
    """Two-time amplitude correlation of the scattered field, as a callable."""
    amp = correlation_amplitude(params, coupling)
    k, g = params.kappa2, params.gamma

    def corr(tau):
        return amp * correlation_bracket(k, g, tau)

    return corr


def heralded_variance(params: SystemParams, n):
    """Heterodyne variance about an n-photon herald, in optical vacuum units.

    sigma_n(tau)^2 = 1 + eta nbar_th (1 + n bracket(tau)^2) for n in {1, 2}.
    The mechanical contribution at tau = 0 is exactly (1 + n) times its
    steady-state value and relaxes symmetrically in |tau|.
    """
    if n not in (1, 2):
        raise ConfigError("heralded variance is derived for n in {1, 2} only")
    k, g = params.kappa2, params.gamma
    signal = params.eta_total * params.nbar_th

    def variance(tau):
        b = correlation_bracket(k, g, tau)
        return 1.0 + signal * (1.0 + n * b * b)

    return variance


def variance_curve(params: SystemParams, n, taus) -> VarianceCurve:
    taus = np.asarray(taus, dtype=float)
    return VarianceCurve(taus, heralded_variance(params, n)(taus), order=n)


def steady_state_variance(params: SystemParams):
    """Unconditional heterodyne variance 1 + eta nbar_th."""
    return 1.0 + params.eta_total * params.nbar_th


# ---------------------------------------------------------------------------
# Monte-Carlo oracle for the conditional variance ratio
# ---------------------------------------------------------------------------

def wick_oracle(params: SystemParams, n, tau, n_samples=1_000_000, seed=0):
    """Sampling check of the conditional variance enhancement 1 + n b(tau)^2.

    Draws correlated circular complex Gaussian pairs (a0, a_tau) with the
    model's two-time correlation, weights the quadrature second moment of
    a_tau by |a0|^(2n), and returns (ratio, standard_error) of the weighted
    to the unweighted moment.  Gaussian moment factorization predicts
    1 + n bracket(tau)^2; the estimator must agree within a few sigma.
    """
    if n not in (1, 2):
        raise ConfigError("oracle supports n in {1, 2}")
    if n_samples < 100_000:
        raise ConfigError("need at least 1e5 samples for a meaningful estimate")
    g = params.pump_enhanced_coupling()
    v = correlation_amplitude(params, g)
    b = float(correlation_bracket(params.kappa2, params.gamma, tau))
    if abs(b) > 1.0:
        raise NumericsError("correlation matrix is not positive semidefinite")

    rng = np.random.Generator(np.random.Philox(seed))
    # Cholesky factor of [[v, v b], [v b, v]]
    l11 = math.sqrt(v)
    l21 = b * l11
    l22 = math.sqrt(max(v * (1.0 - b * b), 0.0))

    n_batches = 32
    ratios = np.empty(n_batches)
    per = n_samples // n_batches
    for i in range(n_batches):
        z1 = (rng.standard_normal(per) + 1j * rng.standard_normal(per)) / math.sqrt(2)
        z2 = (rng.standard_normal(per) + 1j * rng.standard_normal(per)) / math.sqrt(2)
        a0 = l11 * z1
        at = l21 * z1 + l22 * z2
        w = np.abs(a0) ** (2 * n)
        q = np.abs(at) ** 2          # pooled X and P second moments
        ratios[i] = np.average(q, weights=w) / q.mean()
    ratio = float(ratios.mean())
    stderr = float(ratios.std(ddof=1)) / math.sqrt(n_batches)
    return ratio, stderr


# ---------------------------------------------------------------------------
# file formats
# ---------------------------------------------------------------------------

def write_variance_curve(curve: VarianceCurve, csv_path):
    write_csv(csv_path, "tau,variance", [curve.taus, curve.values])
