import math

import pytest

from phonon_forge import dynamics, phase_space, phonon_stats
from phonon_forge.errors import ConfigError
from phonon_forge.params import HBAR, K_BOLTZMANN, default_params, thermal_occupation


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
