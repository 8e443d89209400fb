"""Photon-flux and heralding-fidelity budget.

Multiplicative chain from the cavity output flux through the detection arm
to counts per gate.  Flux uses the external linewidth as a cyclic frequency
(2 kappa_ext / 2 pi), which reproduces the quoted order of magnitude of
1e8 photons/s at the default parameters.  The budget deliberately omits the
gate duty cycle from the arrival-rate chain; the report carries both the
ungated and the gated registered rates so either can be compared against a
measured count rate.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, asdict

from ._formats import write_json
from .dynamics import correlation_amplitude
from .errors import ConfigError, NumericsError
from .params import SpadConfig, SystemParams, TWO_PI, require_fraction, require_positive


@dataclass(frozen=True)
class BudgetReport:
    f_cav: float                 # cavity output photon flux (1/s)
    r_det: float                 # arrival rate at one detector (1/s)
    n_det: float                 # mean registered counts per gate
    singles_rate_ungated: float  # quantum_eff * r_det, no gating (1/s)
    singles_rate: float          # gated registered rate n_det * gate_rate (1/s)
    coincidence_rate: float      # expected two-detector same-gate rate (1/s)
    dark_rate_observed: float    # gated dark events per second
    dark_fraction: float         # dark / (dark + real)
    multi_photon_risk: bool      # n_det above 0.1

    def to_json(self, path):
        write_json(path, asdict(self))


def cavity_flux(params: SystemParams, coupling=None):
    """Anti-Stokes photon flux: (2 kappa2_ext/2pi) times the scattered occupation;
    NumericsError if it overflows."""
    g = params.pump_enhanced_coupling() if coupling is None else coupling
    require_positive("coupling", g, zero_ok=True)
    f_cav = (2.0 * params.kappa2_ext / TWO_PI) * correlation_amplitude(params, g)
    if math.isinf(f_cav):
        raise NumericsError(f"the cavity output flux overflows at coupling {g!r}")
    return f_cav


def detector_rate(f_cav, arm_efficiencies):
    """Arrival rate at one detector: the efficiency chain applied to the flux."""
    require_positive("f_cav", f_cav, zero_ok=True)
    rate = float(f_cav)
    for eta in arm_efficiencies:
        require_fraction("arm efficiency", eta)
        rate *= eta
    return rate


def counts_per_gate(r_det, spad: SpadConfig):
    """Mean registered counts per gate, quantum_eff * r_det * gate_len."""
    require_positive("r_det", r_det, zero_ok=True)
    n_det = spad.quantum_eff * r_det * spad.gate_len
    # the coincidence rate squares it
    if not math.isfinite(n_det * n_det):
        raise ConfigError(f"gate_len={spad.gate_len!r} gives {n_det:.3g} counts per "
                          "gate, whose square leaves the double range")
    return n_det


def herald_fidelity(real_rate, dark_rate):
    """Fraction of heralds that are dark events, dark / (dark + real)."""
    require_positive("real_rate", real_rate, zero_ok=True)
    require_positive("dark_rate", dark_rate, zero_ok=True)
    total = real_rate + dark_rate
    if total == 0.0:
        return 0.0
    return dark_rate / total


def build_report(params: SystemParams, spad: SpadConfig) -> BudgetReport:
    f_cav = cavity_flux(params)
    r_det = detector_rate(f_cav, spad.arm_efficiencies)
    n_det = counts_per_gate(r_det, spad)
    singles = n_det * spad.gate_rate
    # thermal light bunches: same-gate coincidences carry g2(0) = 2
    coincidence = 2.0 * n_det ** 2 * spad.gate_rate
    dark_obs = spad.registered_dark_rate
    return BudgetReport(
        f_cav=f_cav,
        r_det=r_det,
        n_det=n_det,
        singles_rate_ungated=spad.quantum_eff * r_det,
        singles_rate=singles,
        coincidence_rate=coincidence,
        dark_rate_observed=dark_obs,
        dark_fraction=herald_fidelity(singles, dark_obs),
        multi_photon_risk=n_det > 0.1,
    )


def format_table(report: BudgetReport) -> str:
    rows = [
        ("cavity output flux F_cav", "%.4g 1/s" % report.f_cav),
        ("per-detector arrival rate R_det", "%.4g 1/s" % report.r_det),
        ("mean counts per gate N_det", "%.4g" % report.n_det),
        ("registered singles (no gating)", "%.4g 1/s" % report.singles_rate_ungated),
        ("registered singles (gated)", "%.4g 1/s" % report.singles_rate),
        ("expected coincidences", "%.4g 1/s" % report.coincidence_rate),
        ("observed dark rate", "%.4g 1/s" % report.dark_rate_observed),
        ("dark fraction", "%.3g %%" % (100.0 * report.dark_fraction)),
        ("multi-photon risk (N_det > 0.1)", str(report.multi_photon_risk)),
    ]
    width = max(len(r[0]) for r in rows)
    return "\n".join(f"{name:<{width}}  {val}" for name, val in rows)
