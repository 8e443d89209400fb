import math

import numpy as np
import pytest
from scipy.optimize import minimize_scalar

from phonon_forge import phase_space as ps
from phonon_forge.errors import ConfigError, GridError
from phonon_forge.params import UNITS_HETERODYNE, UNITS_ZERO_POINT

from conftest import exact_smoothed_ring_radius
from oracles import closed_form_marginal, fock_q_function, grid_to_heterodyne, \
    lossy_marginal_convolution, marginal_to_heterodyne

ETA_PAPER = 0.0091


class TestScalarRelations:
    def test_s_from_eta(self):
        assert ps.s_from_eta(1.0) == -1.0
        assert ps.s_from_eta(0.5) == -3.0
        s = ps.s_from_eta(ETA_PAPER)
        assert abs(s - (-218.78)) < 0.01
        assert abs(s - (-219.0)) < 0.5

    def test_s_domain(self):
        for bad in (0.0, -0.1, 1.5):
            with pytest.raises(ConfigError):
                ps.s_from_eta(bad)

    def test_eta_roundtrip(self):
        for eta in (1.0, 0.5, ETA_PAPER):
            assert ps.eta_from_s(ps.s_from_eta(eta)) == pytest.approx(eta)

    def test_added_noise_quanta(self):
        assert ps.added_noise_quanta(-1.0) == 0.5
        assert ps.added_noise_quanta(-3.0) == 1.5
        assert ps.added_noise_quanta(-219.0) == 109.5
        assert abs(ps.added_noise_quanta(ps.s_from_eta(ETA_PAPER)) - 110) < 1.0
        with pytest.raises(ConfigError):
            ps.added_noise_quanta(-0.5)

    @pytest.mark.parametrize("args", [
        (math.nan, 1, 1.0), (-5.0, 1, 1.0), (1.0, -3, 1.0), (1.0, 1.5, 1.0),
        (1.0, True, 1.0), (1.0, 1, math.inf), (1.0, 1, -1.0)], ids=repr)
    def test_state_window_refuses_values_outside_its_domain(self, args):
        with pytest.raises(ConfigError):
            ps.state_window(*args)

    @pytest.mark.parametrize("s", [math.nan, math.inf, -math.inf])
    @pytest.mark.parametrize("entry", [
        ps.gaussian_kernel, ps.eta_from_s, ps.added_noise_quanta,
        lambda s: ps.wigner_s(ps.StateSpec(nbar=1.0, n=1, eta=0.5), s_override=s)],
        ids=["gaussian_kernel", "eta_from_s", "added_noise_quanta", "wigner_s"])
    def test_non_finite_s_refused(self, entry, s):
        with pytest.raises(ConfigError, match="s must be finite"):
            entry(s)


class TestPFunction:
    def test_thermal_gaussian_variance(self):
        spec = ps.StateSpec(nbar=3.0, n=0, eta=0.5)
        f = ps.p_function(spec)   # effective occupation 1.5
        x = np.linspace(-15, 15, 1501)
        xx, pp = np.meshgrid(x, x, indexing="ij")
        vals = f(xx, pp)
        d = x[1] - x[0]
        assert vals.sum() * d * d == pytest.approx(1.0, abs=1e-6)
        var = np.sum(vals * xx ** 2) * d * d
        assert var == pytest.approx(1.5, rel=1e-6)

    def test_ring_maximum_radius(self):
        spec = ps.StateSpec(nbar=4.0, n=1, eta=1.0)
        f = ps.p_function(spec)
        res = minimize_scalar(lambda r: -f(r, 0.0), bounds=(0.1, 10), method="bounded")
        assert res.x == pytest.approx(math.sqrt(2 * 4.0), rel=1e-6)

    def test_zero_at_origin(self):
        f = ps.p_function(ps.StateSpec(nbar=2.0, n=2, eta=1.0))
        assert f(0.0, 0.0) == 0.0

    def test_needs_positive_occupation(self):
        # the bare P-function of the vacuum is singular for every order
        for n in (0, 1, 3):
            with pytest.raises(ConfigError, match="singular"):
                ps.p_function(ps.StateSpec(nbar=0.0, n=n, eta=1.0))


class TestGaussianKernel:
    @pytest.mark.parametrize("s", [-1.0, -3.0, -219.0])
    def test_normalized_and_variance(self, s):
        f = ps.gaussian_kernel(s)
        sig = math.sqrt((1.0 - s) / 2.0)
        x = np.linspace(-8 * sig, 8 * sig, 1001)
        xx, pp = np.meshgrid(x, x, indexing="ij")
        vals = f(xx, pp)
        d = x[1] - x[0]
        assert vals.sum() * d * d == pytest.approx(1.0, abs=1e-6)
        var = np.sum(vals * xx ** 2) * d * d
        assert var == pytest.approx((1.0 - s) / 2.0, rel=1e-6)


class TestWignerGrid:
    def test_thermal_variance(self):
        spec = ps.StateSpec(nbar=4.0, n=0, eta=0.5)
        grid = ps.wigner_s(spec, ps.GridConfig(npts=257))
        ax = grid.axis
        var = np.sum(grid.values * ax[:, None] ** 2) * grid.cell ** 2
        assert var == pytest.approx(4.0 + (1 - grid.s_param) / 2, rel=1e-3)
        assert grid.total_mass() == pytest.approx(1.0, abs=1e-3)

    def test_eta_one_gives_q_function(self):
        spec = ps.StateSpec(nbar=2.0, n=0, eta=1.0)
        grid = ps.wigner_s(spec, ps.GridConfig(npts=257))
        assert grid.s_param == -1.0
        ax = grid.axis
        var = np.sum(grid.values * ax[:, None] ** 2) * grid.cell ** 2
        assert var == pytest.approx(3.0, rel=1e-3)

    def test_rotational_symmetry(self):
        spec = ps.StateSpec(nbar=450.0, n=1, eta=ETA_PAPER)
        grid = ps.wigner_s(spec, ps.GridConfig(npts=129))
        rotated = np.rot90(grid.values)
        scale = np.abs(grid.values).max()
        assert np.max(np.abs(grid.values - rotated)) / scale < 1e-6

    def test_ring_radius_matches_fock_oracle(self):
        # exact maxima of the smoothed distribution, from the Fock expansion
        eta = ETA_PAPER
        for n in (1, 2):
            spec = ps.StateSpec(nbar=4.1 / eta, n=n, eta=eta)
            grid = ps.wigner_s(spec, ps.GridConfig(npts=513))
            expected = exact_smoothed_ring_radius(n, 4.1) / math.sqrt(eta)
            assert abs(grid.argmax_radius() - expected) <= grid.cell * math.sqrt(2)

    def test_sqrt2_lift_is_asymptotic(self):
        # the published sqrt(2) relation between marginal maxima and ring
        # radii holds only for eta*nbar >> 1; check convergence
        for m, tol in ((4.1, 0.25), (50.0, 0.02), (500.0, 0.002)):
            exact = exact_smoothed_ring_radius(1, m)
            approx = ps.ring_radius(1, m).wigner_radius
            assert abs(exact / approx - 1.0) < tol

    def test_heterodyne_and_zero_point_agree(self):
        eta = 0.25
        spec = ps.StateSpec(nbar=20.0, n=1, eta=eta)
        g_zp = ps.wigner_s(spec, ps.GridConfig(npts=129))
        g_het = grid_to_heterodyne(g_zp, eta)
        direct = ps.wigner_s(spec, ps.GridConfig(
            npts=129, half_width=g_het.half_width, units=UNITS_HETERODYNE))
        assert np.max(np.abs(g_het.values - direct.values)) \
            / direct.values.max() < 1e-6

    def test_q_function_matches_fock_oracle(self):
        # at eta = 1 the grid is the Husimi Q, sum_k p_sub(k) |<k|alpha>|^2 / 2 pi
        for n in range(1, 6):
            spec = ps.StateSpec(nbar=3.0, n=n, eta=1.0)
            grid = ps.wigner_s(spec, ps.GridConfig(
                npts=65, half_width=6.0 * math.sqrt(1.0 + (n + 1) * 3.0)))
            ax = grid.axis
            q = fock_q_function(3.0, n, ax[:, None], ax[None, :], m_max=400)
            assert np.max(np.abs(grid.values - q)) < 1e-12 * q.max(), n

    def test_too_small_grid_raises_with_suggestion(self):
        spec = ps.StateSpec(nbar=10.0, n=1, eta=1.0)
        with pytest.raises(GridError) as err:
            ps.wigner_s(spec, ps.GridConfig(npts=129, half_width=4.0))
        assert err.value.suggested_half_width > 4.0



class TestMeasuredMarginal:
    def test_thermal_variance_anchor(self):
        spec = ps.StateSpec(nbar=766.0, n=0, eta=ETA_PAPER)
        f = ps.measured_marginal(spec)
        xs = np.linspace(-30, 30, 4001)
        marg = ps.marginal_on_grid(f, xs)
        assert marg.integral() == pytest.approx(1.0, abs=1e-6)
        assert marg.variance() == pytest.approx(1.0 + ETA_PAPER * 766.0, rel=1e-6)

    def test_vanishing_signal_limit(self):
        spec = ps.StateSpec(nbar=1e-9, n=1, eta=1.0)
        f = ps.measured_marginal(spec)
        xs = np.linspace(-8, 8, 2001)
        marg = ps.marginal_on_grid(f, xs)
        assert marg.variance() == pytest.approx(1.0, rel=1e-4)

    def test_bimodal_maxima_position(self):
        spec = ps.StateSpec(nbar=4.1, n=2, eta=1.0)
        f = ps.measured_marginal(spec)
        res = minimize_scalar(lambda x: -f(x), bounds=(0.5, 8), method="bounded")
        assert res.x == pytest.approx(ps.ring_radius(2, 4.1).marginal_max, rel=1e-6)
        assert f(res.x) > f(0.0)

    def test_general_reduces_to_closed_forms(self):
        xs = np.linspace(-10, 10, 801)
        for n in (0, 1, 2):
            for eta_nbar in (0.5, 4.1, 10.0):
                spec = ps.StateSpec(nbar=eta_nbar, n=n, eta=1.0)
                a = closed_form_marginal(spec)(xs)
                b = ps.measured_marginal(spec)(xs)
                assert np.max(np.abs(a - b)) < 1e-10

    def test_general_normalization_high_order(self):
        for n in (3, 5, 8):
            spec = ps.StateSpec(nbar=3.0, n=n, eta=0.7)
            f = ps.measured_marginal(spec)
            sigma = math.sqrt(1.0 + (n + 1) * spec.eta_nbar)
            xs = np.linspace(-8 * sigma, 8 * sigma, 6001)
            assert np.trapezoid(f(xs), xs) == pytest.approx(1.0, abs=1e-6)

    @pytest.mark.parametrize("n", [20, 60, 150])
    def test_normalization_very_high_order(self, n):
        for eta_nbar in (4.1, 100.0):
            spec = ps.StateSpec(nbar=eta_nbar, n=n, eta=1.0)
            sigma = math.sqrt(1.0 + (n + 1) * eta_nbar)
            xs = np.linspace(-10 * sigma, 10 * sigma, 20001)
            vals = ps.measured_marginal(spec)(xs)
            assert np.isfinite(vals).all()
            assert np.trapezoid(vals, xs) == pytest.approx(1.0, abs=1e-9), eta_nbar

    def test_general_vacuum_limit(self):
        # at eta*nbar = 0 every subtraction order detects the vacuum, N(0, 1)
        xs = np.linspace(-8, 8, 801)
        f = ps.measured_marginal(ps.StateSpec(nbar=0.0, n=3))
        np.testing.assert_allclose(f(xs), np.exp(-xs**2 / 2) / math.sqrt(2 * math.pi),
                                   rtol=1e-12)


class TestGroundStateLimit:
    # at zero occupation every order is the ground state, so each smoothed
    # form is its vacuum form (the bare P-function refuses: TestPFunction)

    @pytest.mark.parametrize("n", [1, 3])
    def test_wigner_s_is_the_vacuum_kernel(self, n):
        spec = ps.StateSpec(nbar=0.0, n=n, eta=ETA_PAPER)
        for units in (UNITS_HETERODYNE, UNITS_ZERO_POINT):
            grid = ps.wigner_s(spec, ps.GridConfig(npts=129, units=units))
            # kernel variance (1 - s)/2, and one vacuum unit in heterodyne units
            width = 2.0 if units == UNITS_HETERODYNE else 1.0 - grid.s_param
            r2 = grid.axis[:, None] ** 2 + grid.axis[None, :] ** 2
            np.testing.assert_allclose(grid.values, np.exp(-r2 / width)
                                       / (math.pi * width), rtol=1e-12, atol=0)

    @pytest.mark.parametrize("n", [1, 3])
    def test_quadrature_marginal_is_the_vacuums(self, n):
        xs = np.linspace(-6, 6, 601)
        np.testing.assert_allclose(ps.quadrature_marginal(0.0, n)(xs),
                                   np.exp(-xs ** 2) / math.sqrt(math.pi),
                                   rtol=1e-12, atol=0)


class TestRingGeometry:
    def test_threshold_boundary(self):
        geo = ps.ring_radius(1, 2.0)
        assert geo.marginal_max == 0.0
        assert not geo.is_nongaussian

    def test_paper_point_values(self):
        geo1 = ps.ring_radius(1, 4.1)
        assert geo1.marginal_max == pytest.approx(1.616228, abs=1e-5)
        assert geo1.wigner_radius == pytest.approx(2.285693, abs=1e-5)
        geo2 = ps.ring_radius(2, 4.1)
        assert geo2.marginal_max == pytest.approx(2.854689, abs=1e-5)
        assert geo2.wigner_radius == pytest.approx(4.037140, abs=1e-5)

    def test_n2_threshold(self):
        thr = 2 * math.sqrt(6.0) - 4.0
        assert ps.ring_radius(2, thr * 0.999).marginal_max == 0.0
        assert ps.ring_radius(2, thr * 1.001).marginal_max > 0.0

    def test_r2_exceeds_r1(self):
        for m in np.linspace(2.05, 50, 40):
            r1 = ps.ring_radius(1, m).wigner_radius
            r2 = ps.ring_radius(2, m).wigner_radius
            assert r2 > r1

    def test_unsupported_order(self):
        with pytest.raises(ConfigError):
            ps.ring_radius(3, 4.0)


class TestGridMarginal:
    def test_thermal_marginal_variance(self):
        spec = ps.StateSpec(nbar=5.0, n=0, eta=0.5)
        grid = ps.wigner_s(spec, ps.GridConfig(npts=257))
        marg = ps.marginal_from_grid(grid)
        assert marg.integral() == pytest.approx(1.0, abs=1e-4)
        assert marg.variance() == pytest.approx(5.0 + (1 - grid.s_param) / 2,
                                                rel=1e-3)

    def test_matches_closed_form(self):
        eta = ps.eta_from_s(-3.0)
        # n = 3 against the series, on a window of seven of its widths
        cases = [(1, 4.1, None, closed_form_marginal)]
        cases += [(3, m, 7.0 * math.sqrt(4.0 * m / eta + 2.0),
                   ps.measured_marginal) for m in (0.5, 4.1, 10.0)]
        for n, eta_nbar, half_width, reference in cases:
            spec = ps.StateSpec(nbar=eta_nbar / eta, n=n, eta=eta)
            grid = ps.wigner_s(spec, ps.GridConfig(npts=513, half_width=half_width))
            mh = marginal_to_heterodyne(ps.marginal_from_grid(grid), eta)
            closed = reference(spec)(mh.xs)
            l1 = np.trapezoid(np.abs(mh.density - closed), mh.xs)
            assert l1 < 1e-3, (n, eta_nbar)

    def test_symmetric(self):
        spec = ps.StateSpec(nbar=3.0, n=2, eta=0.9)
        marg = ps.marginal_from_grid(ps.wigner_s(spec, ps.GridConfig(npts=129)))
        assert np.max(np.abs(marg.density - marg.density[::-1])) < 1e-10


class TestLossyConvolution:
    def test_identity_at_unit_efficiency(self):
        xs = np.linspace(-10, 10, 501)
        marg = ps.marginal_on_grid(ps.quadrature_marginal(4.0, 0), xs)
        out = lossy_marginal_convolution(marg, 1.0)
        np.testing.assert_array_equal(out.density, marg.density)

    def test_thermal_rescaling(self):
        xs = np.linspace(-25, 25, 3001)
        marg = ps.marginal_on_grid(ps.quadrature_marginal(4.0, 0), xs)
        out = lossy_marginal_convolution(marg, 0.25)
        expected = ps.quadrature_marginal(1.0, 0)(out.xs)
        l1 = np.trapezoid(np.abs(out.density - expected), out.xs)
        assert l1 < 1e-6

    def test_subtracted_rescaling_paper_point(self):
        nbar, eta = 453.0, ETA_PAPER
        sigma = math.sqrt(2 * 2 * nbar)
        xs = np.linspace(-5 * sigma, 5 * sigma, 4001)
        marg = ps.marginal_on_grid(ps.quadrature_marginal(nbar, 1), xs)
        out = lossy_marginal_convolution(marg, eta)
        expected = ps.quadrature_marginal(eta * nbar, 1)(out.xs)
        l1 = np.trapezoid(np.abs(out.density - expected), out.xs)
        assert l1 < 1e-6

    def test_bad_eta(self):
        xs = np.linspace(-5, 5, 101)
        marg = ps.marginal_on_grid(ps.quadrature_marginal(1.0, 0), xs)
        with pytest.raises(ConfigError):
            lossy_marginal_convolution(marg, 1.2)


class TestExports:
    def test_grid_files(self, tmp_path):
        spec = ps.StateSpec(nbar=1.0, n=0, eta=1.0)
        grid = ps.wigner_s(spec, ps.GridConfig(npts=65))
        csv = tmp_path / "g.csv"
        hdr = tmp_path / "g.json"
        ps.write_grid(grid, csv, hdr)
        lines = csv.read_text().splitlines()
        assert lines[0] == "X,P,value"
        assert len(lines) == 65 * 65 + 1
        import json
        doc = json.loads(hdr.read_text())
        assert doc["npts"] == 65
        assert doc["units"] == UNITS_ZERO_POINT

    def test_marginal_file(self, tmp_path):
        xs = np.linspace(-3, 3, 11)
        marg = ps.marginal_on_grid(ps.quadrature_marginal(1.0, 0), xs)
        path = tmp_path / "m.csv"
        ps.write_marginal(marg, path)
        assert path.read_text().splitlines()[0] == "X,density"
