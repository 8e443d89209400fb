"""Heralded phonon subtraction from a thermal mechanical state.

Fock-space statistics, s-parameterized phase-space distributions under
inefficient heterodyne readout, heralded variance dynamics, a stochastic
experiment emulator, and the photon-counting budget.
"""

from .params import SpadConfig, SystemParams, default_params, default_spad, \
    thermal_occupation
from .phonon_stats import NumberPmf, ThermalSpec, added_pmf, add_sub_fidelity, \
    mean_occupation, similarity_threshold, subtracted_pmf, thermal_pmf
from .phase_space import GridConfig, Marginal, PhaseSpaceGrid, RingGeometry, \
    StateSpec, added_noise_quanta, gaussian_kernel, marginal_from_grid, \
    measured_marginal, p_function, quadrature_marginal, ring_radius, \
    s_from_eta, wigner_s
from .dynamics import Characterization, VarianceCurve, anti_stokes_spectrum, \
    characterize, cooled_occupation, cooperativity, effective_linewidth, \
    heralded_variance, steady_state_variance, variance_curve
from .simulator import ClickStream, SimConfig, TraceEnsemble, \
    ensemble_variance, gated_click_stream, herald_histogram, herald_select, \
    load_ensemble, run_ensemble, save_ensemble, variance_ratio_report, \
    write_clicks_csv, write_heralds_csv
from .budget import BudgetReport, build_report, cavity_flux, counts_per_gate, \
    detector_rate, herald_fidelity

__version__ = "0.1.0"
