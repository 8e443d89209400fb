import math
from dataclasses import replace

import numpy as np
import pytest

from phonon_forge import dynamics as dyn
from phonon_forge.errors import ConfigError
from phonon_forge.params import TWO_PI, SimConfig

from conftest import assert_within_se
from oracles import curve_fit_linewidth, wick_oracle


class TestCharacterizationChain:
    def test_intracavity_photons(self, params):
        n_cav = params.intracavity_photons()
        assert abs(n_cav - 1.2e9) / 1.2e9 < 0.15
        zero = replace(params, p_in=0.0)
        assert zero.intracavity_photons() == 0.0
        double = replace(params, p_in=2 * params.p_in)
        assert double.intracavity_photons() == pytest.approx(2 * n_cav)

    def test_coupling_rate(self, params):
        g = params.pump_enhanced_coupling(1.2e9)
        assert g / TWO_PI == pytest.approx(10.3e6, abs=0.2e6)
        assert params.pump_enhanced_coupling(0.0) == 0.0
        assert params.pump_enhanced_coupling(4 * 1.2e9) == pytest.approx(2 * g)

    def test_cooperativity(self, params):
        g = TWO_PI * 10.3e6
        c = dyn.cooperativity(params, g)
        assert c == pytest.approx(0.69, abs=0.01)
        assert dyn.cooperativity(params, 0.0) == 0.0
        # linear in photon number through G^2
        assert dyn.cooperativity(params, g * math.sqrt(2)) == pytest.approx(2 * c)

    def test_cooled_occupation(self, params):
        assert dyn.cooled_occupation(params, 0.69) == pytest.approx(453.25, abs=0.1)
        assert dyn.cooled_occupation(params, 0.0) == params.nbar_th
        factor = dyn.cooled_occupation(params, 0.69) / params.nbar_th
        assert factor == pytest.approx(0.6, abs=0.01)

    def test_effective_linewidth_and_decay_time(self, params):
        chain = dyn.characterize(params)
        assert chain.gamma_eff == params.gamma * (1 + chain.cooperativity)
        assert dyn.effective_linewidth(params, 0.0) == params.gamma
        # quoted decay time ~31 ns with a 10% margin for parameter rounding
        assert chain.decay_time == pytest.approx(31e-9, rel=0.10)

    def test_affine_in_photon_number(self, params):
        n_cavs = np.linspace(0.1e9, 1.2e9, 7)
        widths = [dyn.effective_linewidth(
                      params, dyn.cooperativity(params, params.pump_enhanced_coupling(n)))
                  for n in n_cavs]
        slope, intercept = np.polyfit(n_cavs, widths, 1)
        assert intercept == pytest.approx(params.gamma, rel=1e-9)
        assert slope == pytest.approx(params.g0 ** 2 / params.kappa2, rel=1e-9)

    def test_cooling_never_heats(self, params):
        for c in (0.0, 0.1, 1.0, 10.0):
            assert dyn.cooled_occupation(params, c) <= params.nbar_th

    @pytest.mark.parametrize("p_in", [9e-3, 0.0])
    def test_relaxation_rate_follows_the_linewidth_setting(self, params, p_in):
        p = replace(params, p_in=p_in)
        assert dyn.relaxation_rate(SimConfig(params=p)) == p.gamma
        effective = SimConfig(params=p, mech_linewidth="effective")
        assert dyn.relaxation_rate(effective) == dyn.characterize(p).gamma_eff


class TestSpectrum:
    def test_fwhm_is_twice_gamma_eff(self, params):
        # mirrored-peak overlap falls out of the 1e-6 check at large omega_het
        p = replace(params, omega_het=TWO_PI * 50e9)
        chain = dyn.characterize(p)
        psd = dyn.anti_stokes_spectrum(p, chain.coupling)
        from scipy.optimize import brentq
        hi = brentq(lambda w: psd(p.omega_het + w) - 0.5, 0, 20 * chain.gamma_eff)
        lo = brentq(lambda w: psd(p.omega_het - w) - 0.5, 0, 20 * chain.gamma_eff)
        assert (hi + lo) / (2 * chain.gamma_eff) == pytest.approx(1.0, rel=1e-6)

    def test_symmetric(self, params):
        chain = dyn.characterize(params)
        psd = dyn.anti_stokes_spectrum(params, chain.coupling)
        w = np.linspace(0, 3 * params.omega_het, 800)
        np.testing.assert_allclose(psd(w), psd(-w), rtol=1e-12)

    def test_unit_peak(self, params):
        chain = dyn.characterize(params)
        psd = dyn.anti_stokes_spectrum(params, chain.coupling)
        assert psd(params.omega_het) == pytest.approx(1.0, rel=1e-12)

    def test_fit_recovers_g0(self, params):
        n_cavs = np.linspace(0.2, 1.0, 5) * 1.2e9
        g0_fit, gamma_fit = dyn.fit_g0_from_spectra(params, n_cavs)
        assert abs(g0_fit - params.g0) / params.g0 < 0.05
        assert abs(gamma_fit - params.gamma) / params.gamma < 0.05

    @pytest.mark.parametrize("n_cavs", [[], [1.2e9], [1.2e9, 1.2e9], [0.0, 0.0, 0.0]],
                             ids=["none", "one", "repeated", "unpumped"])
    def test_fit_needs_two_distinct_photon_numbers(self, params, n_cavs):
        # a line through fewer than two distinct points is undetermined
        with pytest.raises(ConfigError, match="two distinct photon numbers"):
            dyn.fit_g0_from_spectra(params, n_cavs)

    @pytest.mark.parametrize("n_cavs", [[math.nan, 1e9], [math.inf, 1e9], [[1e9, 2e9]]],
                             ids=["nan", "inf", "2d"])
    def test_fit_refuses_a_photon_number_outside_the_domain(self, params, n_cavs):
        # each photon number goes through characterize's check, and a row of
        # a 2-d sweep is no number
        with pytest.raises(ConfigError, match="n_cav must be a finite number"):
            dyn.fit_g0_from_spectra(params, n_cavs)

    def test_linewidth_fit_matches_curve_fit(self, params):
        # the sweep fit_g0_from_spectra makes at the default power; both fits
        # stop on their own tolerances, curve_fit's being 1.5e-8 in the step
        n_cav = dyn.characterize(params).n_cav
        for n in n_cav * np.linspace(0.2, 1.0, 5):
            chain = dyn.characterize(params, n)
            half = 10.0 * chain.gamma_eff
            omegas = np.linspace(-half, half, 4001)
            psd = dyn.anti_stokes_spectrum(params, chain.coupling)(
                params.omega_het + omegas)
            assert dyn.fit_linewidth(omegas, psd) == pytest.approx(
                curve_fit_linewidth(omegas, psd), rel=1e-9)

    @pytest.mark.parametrize("center,width", [(0.0, 1.0), (3e7, 2e7), (-0.4, 0.05)])
    def test_linewidth_fit_is_exact_on_a_lorentzian(self, center, width):
        # a grid not centred on the peak, whose width the guess overestimates
        omegas = center + width * np.linspace(-7.0, 9.0, 301)
        psd = 2.5 / (1.0 + ((omegas - center) / width) ** 2)
        assert dyn.fit_linewidth(omegas, psd) == pytest.approx(width, rel=1e-12)


class TestCorrelation:
    def test_bracket_endpoints(self, params):
        k, g = params.kappa2, params.gamma
        assert dyn.correlation_bracket(k, g, 0.0) == pytest.approx(1.0)
        assert dyn.correlation_bracket(k, g, 1.0) == pytest.approx(0.0, abs=1e-12)

    def test_bracket_value(self):
        # kappa = 10 gamma at tau = 1/gamma
        gam = 1.0
        k = 10.0
        expected = (10 * math.exp(-1) - math.exp(-10)) / 9.0
        assert dyn.correlation_bracket(k, gam, 1.0) == pytest.approx(expected)

    def test_degenerate_limit_is_continuous(self):
        k = 1.0e7
        taus = np.linspace(0, 5e-7, 50)
        near = dyn.correlation_bracket(k, k * (1 + 1e-5), taus)
        limit = dyn.correlation_bracket(k, k, taus)
        assert np.max(np.abs(near - limit)) < 1e-4
        np.testing.assert_allclose(limit, (1 + k * taus) * np.exp(-k * taus),
                                   rtol=1e-12)

    def test_equal_time_value(self, params):
        g = params.pump_enhanced_coupling()

        def corr(tau):
            return dyn.correlation_amplitude(params, g) \
                * dyn.correlation_bracket(params.kappa2, params.gamma, tau)

        expected = params.nbar_th * g ** 2 / (params.kappa2 *
                                              (params.kappa2 + params.gamma))
        assert corr(0.0) == pytest.approx(expected)
        assert corr(1.0) == pytest.approx(0.0, abs=1e-9)


class TestHeraldedVariance:
    def test_exact_doubling_tripling(self, params):
        sig_inf = dyn.steady_state_variance(params)
        for n in (1, 2):
            v0 = dyn.heralded_variance(params, n)(0.0)
            ratio = (v0 - 1.0) / (sig_inf - 1.0)
            assert abs(ratio - (1 + n)) < 1e-12

    def test_steady_state_anchor(self, params):
        assert dyn.steady_state_variance(params) == pytest.approx(7.9706)
        v = dyn.heralded_variance(params, 1)(1.0)
        assert v == pytest.approx(7.9706, rel=1e-9)

    def test_even_and_decreasing(self, params):
        taus = np.linspace(0, 3e-7, 400)
        for n in (1, 2):
            f = dyn.heralded_variance(params, n)
            np.testing.assert_allclose(f(taus), f(-taus), rtol=1e-14)
            vals = f(taus)
            assert np.all(np.diff(vals) <= 1e-12)
            assert np.all(vals >= 1.0)

    def test_curve_container(self, params):
        taus = np.linspace(-2e-7, 2e-7, 101)
        curve = dyn.variance_curve(params, 2, taus)
        assert curve.order == 2
        zp = curve.to_zero_point(params.eta_total)
        np.testing.assert_allclose(zp.values,
                                   curve.values / params.eta_total)

    def test_every_order_peaks_at_one_plus_n(self, params):
        inf = dyn.steady_state_variance(params)
        for n in range(6):
            peak = dyn.heralded_variance(params, n)(0.0)
            assert (peak - 1.0) / (inf - 1.0) == pytest.approx(1 + n, rel=1e-12)

    def test_unsupported_order(self, params):
        for n in (-1, 1.5, True):
            with pytest.raises(ConfigError):
                dyn.heralded_variance(params, n)


class TestWickOracle:
    @pytest.mark.parametrize("n", [1, 2])
    def test_matches_prediction(self, params, n):
        taus = (0.0, 1.0 / params.kappa2, 1.0 / params.gamma,
                5.0 / params.gamma)
        for tau in taus:
            ratio, se = wick_oracle(params, n, tau, n_samples=400_000,
                                    seed=1234 + n)
            b = dyn.correlation_bracket(params.kappa2, params.gamma, tau)
            assert_within_se(ratio, 1 + n * b * b, se,
                             f"n = {n} ratio at tau = {tau:.3g}", k=3)

    def test_decorrelated_limit(self, params):
        ratio, se = wick_oracle(params, 2, 1.0, n_samples=200_000, seed=5)
        assert_within_se(ratio, 1.0, se, "decorrelated ratio", k=3)

    def test_deterministic(self, params):
        a = wick_oracle(params, 1, 0.0, n_samples=100_000, seed=9)
        b = wick_oracle(params, 1, 0.0, n_samples=100_000, seed=9)
        assert a == b


def test_curve_csv(tmp_path, params):
    taus = np.linspace(-1e-7, 1e-7, 21)
    curve = dyn.variance_curve(params, 1, taus)
    path = tmp_path / "curve.csv"
    dyn.write_variance_curve(curve, path)
    lines = path.read_text().splitlines()
    assert lines[0] == "tau,variance"
    assert len(lines) == 22
