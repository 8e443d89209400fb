import pytest

from phonon_forge.errors import ConfigError
from phonon_forge.params import HBAR, K_BOLTZMANN, thermal_occupation


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
