import dataclasses
import json
import math

import numpy as np
import pytest

from phonon_forge import budget, dynamics, phase_space, phonon_stats, simulator
from phonon_forge.errors import ConfigError, NumericsError
from phonon_forge.params import HBAR, HERALD_SINGLE, K_BOLTZMANN, UNITS_HETERODYNE, \
    GridConfig, SimConfig, SpadConfig, default_params, default_spad, thermal_occupation


class TestThermalOccupation:
    def test_default_occupation_is_room_temperature(self, params):
        # k_B 300 K / (hbar omega_m) at the default 8.16 GHz mechanical mode
        nbar = thermal_occupation(300.0, params.omega_m)
        assert nbar == K_BOLTZMANN * 300.0 / (HBAR * params.omega_m)
        assert nbar == pytest.approx(766.05, abs=5e-3)
        # the default bath occupation is this one, rounded
        assert params.nbar_th == pytest.approx(nbar, rel=1e-3)

    @pytest.mark.parametrize("temperature,omega_m", [(-1.0, 1e9), (300.0, 0.0)])
    def test_unphysical_inputs_refused(self, temperature, omega_m):
        with pytest.raises(ConfigError):
            thermal_occupation(temperature, omega_m)


# ---------------------------------------------------------------------------
# the closed forms' input domain: every order through require_integer and
# every occupation through require_positive
# ---------------------------------------------------------------------------

_THERMAL = phonon_stats.ThermalSpec(1.0)
_ORDER_ENTRY_POINTS = {
    "StateSpec": lambda n: phase_space.StateSpec(nbar=1.0, n=n),
    "quadrature_marginal": lambda n: phase_space.quadrature_marginal(1.0, n),
    "ring_radius": lambda n: phase_space.ring_radius(n, 4.1),
    "subtracted_pmf": lambda n: phonon_stats.subtracted_pmf(_THERMAL, n),
    "added_pmf": lambda n: phonon_stats.added_pmf(_THERMAL, n),
    "mean_occupation": lambda n: phonon_stats.mean_occupation(_THERMAL, n),
    "add_sub_fidelity": lambda n: phonon_stats.add_sub_fidelity(_THERMAL, n),
    "similarity_threshold": phonon_stats.similarity_threshold,
    "heralded_variance": lambda n: dynamics.heralded_variance(default_params(), n),
}


@pytest.mark.parametrize("order", [math.nan, math.inf, True, 1.0, 1.5, -1],
                         ids=repr)
@pytest.mark.parametrize("entry", sorted(_ORDER_ENTRY_POINTS))
def test_every_closed_form_refuses_a_non_integer_order(entry, order):
    with pytest.raises(ConfigError, match="^n must be an integer"):
        _ORDER_ENTRY_POINTS[entry](order)


_OCCUPATION_ENTRY_POINTS = {
    "ThermalSpec": phonon_stats.ThermalSpec,
    "quadrature_marginal": lambda nbar: phase_space.quadrature_marginal(nbar, 1),
    "ring_radius": lambda eta_nbar: phase_space.ring_radius(1, eta_nbar),
}


@pytest.mark.parametrize("occupation", [math.nan, math.inf], ids=repr)
@pytest.mark.parametrize("entry", sorted(_OCCUPATION_ENTRY_POINTS))
def test_every_closed_form_refuses_a_non_finite_occupation(entry, occupation):
    with pytest.raises(ConfigError, match="must be a finite number >= 0"):
        _OCCUPATION_ENTRY_POINTS[entry](occupation)


# ---------------------------------------------------------------------------
# one validator per kind of value: every rate, coupling, photon number and
# occupation through require_positive, every efficiency through
# require_fraction and every choice through require_choice
# ---------------------------------------------------------------------------

_P = default_params()
_RATE_ENTRY_POINTS = {
    "cooperativity": lambda x: dynamics.cooperativity(_P, x),
    "cooled_occupation": lambda x: dynamics.cooled_occupation(_P, x),
    "effective_linewidth": lambda x: dynamics.effective_linewidth(_P, x),
    "characterize": lambda x: dynamics.characterize(_P, x),
    "correlation_amplitude": lambda x: dynamics.correlation_amplitude(_P, 1e6, rate=x),
    "correlation_amplitude-coupling": lambda x: dynamics.correlation_amplitude(_P, x),
    "correlation_bracket-kappa": lambda x: dynamics.correlation_bracket(x, 1.0, 0.0),
    "correlation_bracket-rate": lambda x: dynamics.correlation_bracket(1.0, x, 0.0),
    "heralded_variance": lambda x: dynamics.heralded_variance(_P, 1, rate=x),
    "cavity_flux": lambda x: budget.cavity_flux(_P, x),
    "detector_rate": lambda x: budget.detector_rate(x, (0.5,)),
    "counts_per_gate": lambda x: budget.counts_per_gate(x, default_spad()),
    "herald_fidelity-real": lambda x: budget.herald_fidelity(x, 1.0),
    "herald_fidelity-dark": lambda x: budget.herald_fidelity(1.0, x),
    "thermal_occupation-temperature": lambda x: thermal_occupation(x, 1e9),
    "thermal_occupation-omega_m": lambda x: thermal_occupation(300.0, x),
    "pump_enhanced_coupling": _P.pump_enhanced_coupling,
}


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0, True, "1"], ids=repr)
@pytest.mark.parametrize("entry", sorted(_RATE_ENTRY_POINTS))
def test_every_rate_is_a_finite_non_negative_number(entry, value):
    with pytest.raises(ConfigError, match="must be a finite number"):
        _RATE_ENTRY_POINTS[entry](value)


_FRACTION_ENTRY_POINTS = {
    "SystemParams.eta_total": lambda x: dataclasses.replace(_P, eta_total=x),
    "SpadConfig.quantum_eff": lambda x: SpadConfig(quantum_eff=x),
    "SpadConfig.arm_efficiencies": lambda x: SpadConfig(arm_efficiencies=(0.5, x)),
    "detector_rate": lambda x: budget.detector_rate(1e8, (x,)),
    "StateSpec": lambda x: phase_space.StateSpec(nbar=1.0, n=1, eta=x),
    "s_from_eta": phase_space.s_from_eta,
}


@pytest.mark.parametrize("value", [0.0, 1.5, math.nan, True, "x"], ids=repr)
@pytest.mark.parametrize("entry", sorted(_FRACTION_ENTRY_POINTS))
def test_every_efficiency_lies_in_the_unit_interval(entry, value):
    with pytest.raises(ConfigError, match=r"must be a number in \(0, 1\]"):
        _FRACTION_ENTRY_POINTS[entry](value)


def _load_sidecar(tmp_path, **fields):
    """load_ensemble on a sidecar of a single-herald ensemble changed by fields;
    its choices are read before the arrays, so none are written."""
    doc = {"schema": simulator.ENSEMBLE_SCHEMA, "herald_kind": HERALD_SINGLE,
           "units": UNITS_HETERODYNE, "n_traces": 1, **fields}
    (tmp_path / "ens.json").write_text(json.dumps(doc))
    return simulator.load_ensemble(tmp_path / "ens")


_NO_CLICKS = simulator.ClickStream(np.empty(0), np.empty(0, dtype=np.int8),
                                   np.empty(0, dtype=bool), 1.0, 5e4, 3.5e-9)
_CHOICE_ENTRY_POINTS = {
    "SimConfig.demod_filter": lambda x, tmp: SimConfig(demod_filter=x),
    "SimConfig.mech_linewidth": lambda x, tmp: SimConfig(mech_linewidth=x),
    "GridConfig.units": lambda x, tmp: GridConfig(units=x),
    "run_ensemble": lambda x, tmp: simulator.run_ensemble(SimConfig(), x),
    "load_ensemble-herald_kind": lambda x, tmp: _load_sidecar(tmp, herald_kind=x),
    "load_ensemble-units": lambda x, tmp: _load_sidecar(tmp, units=x),
    "herald_select": lambda x, tmp: simulator.herald_select(_NO_CLICKS, x),
    "mean_occupation": lambda x, tmp: phonon_stats.mean_occupation(_THERMAL, 1, x),
}


@pytest.mark.parametrize("value", ["x", None, ["bare"]], ids=repr)
@pytest.mark.parametrize("entry", sorted(_CHOICE_ENTRY_POINTS))
def test_every_choice_is_one_of_its_names(entry, value, tmp_path):
    with pytest.raises(ConfigError, match="must be one of"):
        _CHOICE_ENTRY_POINTS[entry](value, tmp_path)


@pytest.mark.parametrize("entry", [
    lambda: dynamics.cooperativity(dataclasses.replace(_P, gamma=5e-324), 1e6),
    lambda: dynamics.characterize(dataclasses.replace(_P, gamma=5e-324)),
    lambda: budget.cavity_flux(dataclasses.replace(_P, nbar_th=1e308)),
    lambda: dynamics.cooperativity(_P, 1e160),
    lambda: budget.cavity_flux(_P, 1e160),
], ids=["cooperativity", "characterize", "cavity_flux", "cooperativity-square",
        "cavity_flux-square"])
def test_an_overflow_from_in_range_inputs_is_a_numerics_error(entry):
    # raised where the value is made, not by the writer it would reach; a
    # float coupling past 1.34e154 overflows as it is squared
    with pytest.raises(NumericsError, match="overflows"):
        entry()
