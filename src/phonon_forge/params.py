"""Experiment parameter containers, laboratory default values, and the rest of
the configuration schema: emulator and grid settings, herald kinds and unit
names.

Conventions: every optical or mechanical rate stored here is an *amplitude*
decay rate in rad/s.  A laboratory linewidth quoted as a full width at half
maximum f_FWHM (Hz) of the intensity spectrum corresponds to
rate = 2*pi*f_FWHM/2.  Powers are in W, wavelengths in m, occupations are
dimensionless.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field, fields

from .errors import ConfigError

HBAR = 1.054571817e-34
K_BOLTZMANN = 1.380649e-23
C_LIGHT = 299792458.0
TWO_PI = 2.0 * math.pi

HERALD_NONE = "none"
HERALD_SINGLE = "single"
HERALD_COINCIDENCE = "coincidence"
# in herald order: a kind's index is the number of photons it heralds on
HERALD_KINDS = (HERALD_NONE, HERALD_SINGLE, HERALD_COINCIDENCE)

UNITS_HETERODYNE = "heterodyne_vacuum"
UNITS_ZERO_POINT = "zero_point"
UNITS = (UNITS_HETERODYNE, UNITS_ZERO_POINT)


def require_positive(name, value, zero_ok=False):
    """Reject anything but a finite real number > 0 (>= 0 with zero_ok)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not math.isfinite(value) or value < 0 or (value == 0 and not zero_ok):
        raise ConfigError(f"{name} must be a finite number {'>=' if zero_ok else '>'}"
                          f" 0, got {value!r}")


def require_integer(name, value, minimum):
    """Reject anything but an integer >= minimum (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Integral) \
            or value < minimum:
        raise ConfigError(f"{name} must be an integer >= {minimum}, got {value!r}")


def require_fraction(name, value):
    """Reject anything but a real number in (0, 1] (a bool is not one)."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real) \
            or not 0.0 < value <= 1.0:
        raise ConfigError(f"{name} must be a number in (0, 1], got {value!r}")


def require_choice(name, value, choices):
    """Reject anything but one of the names in the tuple choices."""
    if not isinstance(value, str) or value not in choices:
        raise ConfigError(f"{name} must be one of {choices}, got {value!r}")


def thermal_occupation(temperature, omega_m):
    """Bath occupation k_B T / (hbar omega_m), valid for k_B T >> hbar omega_m."""
    require_positive("temperature", temperature, zero_ok=True)
    require_positive("omega_m", omega_m)
    return K_BOLTZMANN * temperature / (HBAR * omega_m)


@dataclass(frozen=True)
class SystemParams:
    """Optical and mechanical rates, occupations, and efficiencies.

    kappa1 / kappa1_ext: pump-mode total / external amplitude decay (rad/s)
    kappa2 / kappa2_ext: anti-Stokes-mode total / external amplitude decay (rad/s)
    gamma: intrinsic mechanical amplitude decay (rad/s)
    g0: single-photon optomechanical coupling (rad/s)
    omega_m / omega_het: mechanical / heterodyne angular frequency (rad/s)
    nbar_th: mechanical bath occupation
    p_in: input pump power (W)
    wavelength: pump wavelength (m)
    eta_total: overall measurement efficiency of the mechanical state
    """

    kappa1: float
    kappa1_ext: float
    kappa2: float
    kappa2_ext: float
    gamma: float
    g0: float
    omega_m: float
    omega_het: float
    nbar_th: float
    p_in: float
    wavelength: float
    eta_total: float

    def __post_init__(self):
        for f in fields(self):
            if f.name != "eta_total":
                require_positive(f.name, getattr(self, f.name),
                                 zero_ok=f.name in ("nbar_th", "p_in"))
        require_fraction("eta_total", self.eta_total)
        if self.kappa1_ext > self.kappa1:
            raise ConfigError("kappa1_ext must not exceed kappa1")
        if self.kappa2_ext > self.kappa2:
            raise ConfigError("kappa2_ext must not exceed kappa2")
        # intracavity_photons divides by the pump photon energy times kappa1
        if not 0.0 < self.kappa1 * HBAR * self.omega_pump < math.inf:
            raise ConfigError(f"wavelength={self.wavelength!r} and kappa1={self.kappa1!r}"
                              " put the pump photon energy outside the double range")
        # the detected state's s = (eta - 2)/eta overflows for a subnormal eta
        if not math.isfinite((self.eta_total - 2.0) / self.eta_total):
            raise ConfigError(f"eta_total={self.eta_total!r} puts s = (eta - 2)/eta"
                              " outside the double range")
        g = self.pump_enhanced_coupling()
        if 2.0 * g >= self.kappa2 + self.gamma:
            raise ConfigError(
                "weak-coupling condition violated: 2G = %.3e >= kappa2 + gamma = %.3e"
                % (2.0 * g, self.kappa2 + self.gamma))

    @property
    def eta_c1(self):
        """Pump-mode input coupling efficiency 2*kappa1_ext/kappa1."""
        return 2.0 * self.kappa1_ext / self.kappa1

    @property
    def omega_pump(self):
        return TWO_PI * C_LIGHT / self.wavelength

    def intracavity_photons(self):
        """Pump intracavity photon number eta_c1 * P_in / (kappa1 hbar omega)."""
        return self.eta_c1 * self.p_in / (self.kappa1 * HBAR * self.omega_pump)

    def pump_enhanced_coupling(self, n_cav=None):
        """G = g0 sqrt(N_cav); N_cav derived from the pump power unless given."""
        if n_cav is None:
            n_cav = self.intracavity_photons()
        require_positive("n_cav", n_cav, zero_ok=True)
        return self.g0 * math.sqrt(n_cav)


@dataclass(frozen=True)
class SpadConfig:
    """Gated single-photon detector model.

    dark_rate is the intrinsic (free-running) dark rate in 1/s; the rate of
    registered dark events is dark_rate * gate_len * gate_rate.  The observed
    gated dark rate of roughly 1/s at a 50 kHz gate rate with 3.5 ns gates
    therefore corresponds to an intrinsic rate near 5.7e3/s.
    arm_efficiencies is the ordered chain (loss, split1, filters, split2)
    between the cavity output and one detector.
    """

    gate_rate: float = 5.0e4
    gate_len: float = 3.5e-9
    dead_time: float = 18.0e-6
    dark_rate: float = 5714.0
    quantum_eff: float = 0.125
    arm_efficiencies: tuple = (0.67, 0.25, 0.15, 0.5)

    def __post_init__(self):
        for name in ("gate_rate", "gate_len", "dead_time", "dark_rate"):
            require_positive(name, getattr(self, name),
                             zero_ok=name in ("dead_time", "dark_rate"))
        require_fraction("quantum_eff", self.quantum_eff)
        try:
            object.__setattr__(self, "arm_efficiencies", tuple(self.arm_efficiencies))
        except TypeError:
            raise ConfigError("arm_efficiencies must be a list") from None
        if self.gate_len * self.gate_rate >= 1.0:
            raise ConfigError("gate duty cycle gate_len*gate_rate must be < 1")
        for e in self.arm_efficiencies:
            require_fraction("arm efficiency", e)

    @property
    def duty_cycle(self):
        return self.gate_len * self.gate_rate

    @property
    def registered_dark_rate(self):
        """Dark events per second surviving the gating."""
        return self.dark_rate * self.duty_cycle


def default_params() -> SystemParams:
    """Laboratory default parameter set (Brillouin microresonator at 300 K)."""
    return SystemParams(
        kappa1=TWO_PI * 7.05e6,
        kappa1_ext=TWO_PI * 2.65e6,
        kappa2=TWO_PI * 46.85e6,
        kappa2_ext=TWO_PI * 5.85e6,
        gamma=TWO_PI * 3.26e6,
        g0=TWO_PI * 296.0,
        omega_m=TWO_PI * 8.16e9,
        omega_het=TWO_PI * 214e6,
        nbar_th=766.0,
        p_in=9.0e-3,
        wavelength=1550e-9,
        eta_total=0.0091,
    )


def default_spad() -> SpadConfig:
    return SpadConfig()



@dataclass(frozen=True)
class SimConfig:
    """Settings of the stochastic emulator (phonon_forge.simulator)."""

    params: SystemParams = field(default_factory=default_params)
    spad: SpadConfig = field(default_factory=default_spad)
    sample_rate: float = 3.125e9
    trace_len: int = 12500
    n_traces: int = 1000
    demod_bandwidth: float = 100e6
    demod_filter: str = "butter4"        # or "boxcar"
    decimate: int = 16
    mech_linewidth: str = "bare"         # or "effective"
    seed: int = 202104
    chunk_traces: int = 256

    def __post_init__(self):
        require_positive("sample_rate", self.sample_rate)
        require_positive("demod_bandwidth", self.demod_bandwidth)
        for name, minimum in (("trace_len", 256), ("n_traces", 1),
                              ("decimate", 1), ("chunk_traces", 1), ("seed", 0)):
            require_integer(name, getattr(self, name), minimum)
        if self.decimate > self.trace_len:
            raise ConfigError(f"decimate {self.decimate} exceeds trace_len "
                              f"{self.trace_len}: no column would be kept")
        if self.sample_rate < 4.0 * self.params.omega_het / TWO_PI:
            raise ConfigError("sample_rate below 4x the heterodyne frequency")
        if self.demod_bandwidth >= self.params.omega_het / TWO_PI:
            raise ConfigError("demod_bandwidth must be below the heterodyne frequency")
        require_choice("demod_filter", self.demod_filter, ("butter4", "boxcar"))
        require_choice("mech_linewidth", self.mech_linewidth, ("bare", "effective"))
        self.dt          # a kappa2 with no finite click step fails every command

    @property
    def dt(self):
        """The largest 1/(k sample_rate) within 1/(20 kappa2), a bound on the
        click step fine enough for its Riemann thinning; the click stream steps
        at gate_len / ceil(gate_len / dt), 1.591e-10 s to 1.6e-10 s at the defaults."""
        dt_max = 1.0 / (20.0 * self.params.kappa2)
        per_sample = self.sample_rate * dt_max
        if not per_sample > 0.0 or math.isinf(1.0 / per_sample):
            raise ConfigError(f"kappa2 {self.params.kappa2!r} leaves no finite click "
                              f"step 1/(20 kappa2) at sample_rate {self.sample_rate!r}")
        k = max(1, math.ceil(1.0 / per_sample))
        return 1.0 / (k * self.sample_rate)


@dataclass(frozen=True)
class GridConfig:
    """Phase-space grid settings (phonon_forge.phase_space.wigner_s)."""

    npts: int = 513
    half_width: float | None = None
    units: str = UNITS_ZERO_POINT

    def __post_init__(self):
        require_integer("npts", self.npts, 3)
        if self.npts % 2 == 0:
            raise ConfigError("npts must be odd and >= 3 so the origin is a node")
        if self.half_width is not None:
            require_positive("half_width", self.half_width)
        require_choice("units", self.units, UNITS)
