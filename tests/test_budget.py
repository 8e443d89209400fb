import itertools
import json
from dataclasses import replace

import pytest

from phonon_forge import budget as bud
from phonon_forge.errors import ConfigError


class TestCavityFlux:
    def test_order_of_magnitude(self, params):
        f = bud.cavity_flux(params)
        assert 0.5e8 < f < 5e8

    def test_zero_coupling(self, params):
        assert bud.cavity_flux(params, 0.0) == 0.0

    def test_linear_in_external_coupling(self, params):
        f1 = bud.cavity_flux(params)
        doubled = replace(params, kappa2_ext=2 * params.kappa2_ext)
        assert bud.cavity_flux(doubled) == pytest.approx(2 * f1)


class TestDetectorRate:
    def test_reference_chain(self):
        r = bud.detector_rate(1e8, (0.67, 0.25, 0.15, 0.5))
        assert r == pytest.approx(1.25625e6)
        assert 1e6 < r < 1e7

    def test_unit_chain_passes_flux(self):
        assert bud.detector_rate(3.3e8, (1.0, 1.0, 1.0, 1.0)) == 3.3e8

    def test_bad_efficiency(self):
        with pytest.raises(ConfigError):
            bud.detector_rate(1e8, (0.5, 0.0))

    def test_order_independent(self):
        chain = (0.67, 0.25, 0.15, 0.5)
        base = bud.detector_rate(1e8, chain)
        for perm in itertools.permutations(chain):
            assert bud.detector_rate(1e8, perm) == pytest.approx(base, rel=1e-12)


class TestCountsPerGate:
    def test_paper_scale(self, params, spad):
        n = bud.counts_per_gate(bud.detector_rate(bud.cavity_flux(params),
                                                  spad.arm_efficiencies), spad)
        assert 1e-3 < n < 1e-1

    def test_zero_gate(self, spad):
        from dataclasses import replace
        with pytest.raises(ConfigError):
            replace(spad, gate_len=0.0)

    def test_reference_value(self, spad):
        n = bud.counts_per_gate(1e7, spad)
        assert n == pytest.approx(0.125 * 1e7 * 3.5e-9)
        assert n == pytest.approx(4.375e-3)


class TestHeraldFidelity:
    def test_table_rates(self):
        assert bud.herald_fidelity(260.0, 1.0) == pytest.approx(1.0 / 261.0)
        assert bud.herald_fidelity(260.0, 1.0) < 0.01

    def test_degenerate_cases(self):
        assert bud.herald_fidelity(100.0, 0.0) == 0.0
        assert bud.herald_fidelity(0.0, 5.0) == 1.0
        assert bud.herald_fidelity(0.0, 0.0) == 0.0


class TestReport:
    def test_build_and_serialize(self, params, spad, tmp_path):
        rep = bud.build_report(params, spad)
        assert rep.r_det == pytest.approx(
            bud.detector_rate(rep.f_cav, spad.arm_efficiencies))
        assert rep.singles_rate == pytest.approx(rep.n_det * spad.gate_rate)
        assert rep.singles_rate_ungated > rep.singles_rate
        assert not rep.multi_photon_risk
        assert rep.dark_fraction < 0.01
        path = tmp_path / "budget.json"
        rep.to_json(path)
        doc = json.loads(path.read_text())
        assert doc["f_cav"] == rep.f_cav
        assert "dark_fraction" in doc

    def test_multi_photon_risk_flagged(self, params, spad):
        # a lossless arm chain puts about 0.17 counts in each gate
        lossless = replace(spad, arm_efficiencies=(1.0, 1.0, 1.0, 1.0))
        rep = bud.build_report(params, lossless)
        assert rep.n_det > 0.1
        assert rep.multi_photon_risk
        assert "multi-photon risk (N_det > 0.1)  True" in bud.format_table(rep)

    def test_table_rendering(self, params, spad):
        text = bud.format_table(bud.build_report(params, spad))
        assert "F_cav" in text and "N_det" in text
