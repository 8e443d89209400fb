import json
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from phonon_forge import budget as bud
from phonon_forge import dynamics as dyn
from phonon_forge import phase_space as ps
from phonon_forge import simulator as sim
from phonon_forge.errors import ConfigError

from conftest import exact_smoothed_ring_radius, grid_cell_masses, radial_peak


@pytest.fixture(scope="module")
def cfg():
    return sim.SimConfig(trace_len=2048, n_traces=500, seed=101,
                         chunk_traces=256)


@pytest.fixture(scope="module")
def big_single_ensemble():
    # shared across the histogram invariant and the empirical ring check
    c = sim.SimConfig(trace_len=1024, seed=310, chunk_traces=1024)
    return sim.run_ensemble(c, herald_kind="single", n_traces=240_000,
                            threads=2)


class TestConfigValidation:
    def test_default_dt_respects_bound(self, cfg):
        assert cfg.dt <= 1.0 / (20.0 * cfg.params.kappa2) * (1 + 1e-12)
        assert cfg.oversample == 2

    def test_coarse_dt_rejected(self, params):
        with pytest.raises(ConfigError):
            sim.SimConfig(dt=1.0 / 3.125e9)

    def test_nyquist_guard(self, params):
        with pytest.raises(ConfigError):
            sim.SimConfig(sample_rate=0.5e9)

    def test_bandwidth_guard(self):
        with pytest.raises(ConfigError):
            sim.SimConfig(demod_bandwidth=250e6)

    def test_non_integer_ratio_rejected(self):
        with pytest.raises(ConfigError):
            sim.SimConfig(dt=1.1e-10)


class TestFieldModel:
    def test_mean_occupation_matches_closed_form(self, cfg):
        model = sim.FieldModel(cfg)
        n_steps, n_traces = 200_000, 8
        a = sim.simulate_fields(cfg, n_steps, n_traces=n_traces, seed=3)
        emp = float(np.mean(np.abs(a) ** 2))
        expected = cfg.params.nbar_th * model.coupling ** 2 / (
            cfg.params.kappa2 * (cfg.params.kappa2 + cfg.params.gamma))
        t_total = n_steps * n_traces * cfg.dt
        se = expected * math.sqrt(2.0 * (1.0 / (2 * cfg.params.gamma)) / t_total)
        assert abs(emp - expected) < 3 * se

    def test_two_time_correlation(self, cfg):
        model = sim.FieldModel(cfg)
        a = sim.simulate_fields(cfg, 400_000, n_traces=8, seed=4)
        for lag_s in (0.0, 5e-9, 30e-9):
            lag = int(round(lag_s / cfg.dt))
            emp = np.mean(np.conj(a[:, :a.shape[1] - lag]) * a[:, lag:]).real
            ana = model.correlation_a(lag * cfg.dt)
            assert emp == pytest.approx(ana, rel=0.05)

    def test_sample_rate_step_correlation(self, cfg):
        # the propagator is exact at any step, so stepping at the sample rate
        # (as heralded ensembles do) keeps the analytic two-time correlation
        model = sim.FieldModel(cfg, dt=1.0 / cfg.sample_rate)
        rng = np.random.Generator(np.random.Philox(12))
        b0, a0 = model.stationary_sample(128, rng)
        _, a = model.evolve_block(b0, a0, 8192, rng)
        for lag in (0, 16, 94):
            per_trace = np.mean(np.conj(a[:, :a.shape[1] - lag]) * a[:, lag:],
                                axis=1).real
            se = per_trace.std(ddof=1) / math.sqrt(per_trace.size)
            ana = model.correlation_a(lag / cfg.sample_rate)
            assert abs(per_trace.mean() - ana) < 5 * se

    def test_zero_coupling_gives_vacuum(self, cfg):
        c = cfg.with_updates(params=cfg.params.with_updates(p_in=0.0))
        a = sim.simulate_fields(c, 2000, n_traces=3, seed=8)
        assert np.all(a == 0.0)

    def test_effective_linewidth_decay(self, cfg):
        c = cfg.with_updates(mech_linewidth="effective")
        model = sim.FieldModel(c)
        chain = dyn.characterize(c.params)
        assert model.rate == pytest.approx(chain.gamma_eff)
        a = sim.simulate_fields(c, 400_000, n_traces=12, seed=6)
        lags = np.arange(0, int(2.0 / chain.gamma_eff / c.dt), 40)
        corr = np.array([
            np.mean(np.conj(a[:, :a.shape[1] - k]) * a[:, k:]).real
            for k in lags])
        slope = np.polyfit(lags * c.dt, np.log(corr / corr[0]), 1)[0]
        assert 1.0 / abs(slope) == pytest.approx(1.0 / chain.gamma_eff, rel=0.10)

    def test_adiabatic_fast_path_statistics(self, cfg):
        c = cfg.with_updates(adiabatic=True)
        model = sim.FieldModel(c)
        a = sim.simulate_fields(c, 200_000, n_traces=4, seed=7)
        emp = float(np.mean(np.abs(a) ** 2))
        assert emp == pytest.approx(model.var_a, rel=0.05)
        # adiabatic amplitude sits within O(gamma/kappa) of the full model
        full = sim.FieldModel(cfg)
        assert model.var_a == pytest.approx(
            full.var_a, rel=2 * cfg.params.gamma / cfg.params.kappa2)


class TestHeterodyneAndDemod:
    def test_vacuum_anchor(self, cfg):
        c = cfg.with_updates(params=cfg.params.with_updates(p_in=0.0))
        a = np.zeros((300, c.trace_len), dtype=complex)
        v = sim.heterodyne_trace(a, c, seed=11)
        x, p, _ = sim.demodulate(v, c)
        m = sim.DemodPlan(c).margin_cols
        assert np.var(x[:, m:-m]) == pytest.approx(1.0, rel=0.02)
        assert np.var(p[:, m:-m]) == pytest.approx(1.0, rel=0.02)
        corr = np.corrcoef(x[:, m:-m].ravel(), p[:, m:-m].ravel())[0, 1]
        assert abs(corr) < 0.02

    def test_thermal_anchor(self, cfg):
        ens = sim.run_ensemble(cfg, herald_kind="none", n_traces=600)
        curve = sim.ensemble_variance(ens)
        m = ens.margin_cols
        mean_var = curve.values[m:-m].mean()
        assert mean_var == pytest.approx(dyn.steady_state_variance(cfg.params),
                                         rel=0.05)
        # stationarity: the curve stays flat within sampling noise
        assert curve.values[m:-m].std() / mean_var < 0.05

    def test_small_eta_approaches_vacuum(self, cfg):
        c = cfg.with_updates(params=cfg.params.with_updates(eta_total=1e-4))
        ens = sim.run_ensemble(c, herald_kind="none", n_traces=200)
        m = ens.margin_cols
        mean_var = sim.ensemble_variance(ens).values[m:-m].mean()
        assert abs(mean_var - 1.0) < 0.1

    def test_boxcar_filter_keeps_anchors(self, cfg):
        c = cfg.with_updates(demod_filter="boxcar")
        ens = sim.run_ensemble(c, herald_kind="none", n_traces=400)
        m = ens.margin_cols
        mean_var = sim.ensemble_variance(ens).values[m:-m].mean()
        assert mean_var == pytest.approx(dyn.steady_state_variance(c.params),
                                         rel=0.05)

    def test_pure_tone_gives_constant_quadratures(self, cfg):
        t = np.arange(cfg.trace_len) / cfg.sample_rate
        amp = 3.0 + 1.5j
        v = math.sqrt(2.0) * (amp.real * np.cos(cfg.params.omega_het * t)
                              + amp.imag * np.sin(cfg.params.omega_het * t))
        x, p, _ = sim.demodulate(v, cfg)
        m = sim.DemodPlan(cfg).margin_cols
        # constancy is limited by the filter's rejection of the 2*w_het image
        np.testing.assert_allclose(x[m:-m], amp.real, rtol=1e-4)
        np.testing.assert_allclose(p[m:-m], amp.imag, rtol=1e-4)


class TestHeraldedEnsembles:
    def test_single_and_coincidence_ratios(self, cfg):
        ens1 = sim.run_ensemble(cfg, herald_kind="single", n_traces=8000,
                                threads=2)
        rep1 = sim.variance_ratio_report(ens1)
        assert rep1["peak_ratio"] == pytest.approx(2.0, abs=0.25)
        ens2 = sim.run_ensemble(cfg, herald_kind="coincidence", n_traces=8000,
                                threads=2)
        rep2 = sim.variance_ratio_report(ens2)
        assert rep2["peak_ratio"] == pytest.approx(3.0, abs=0.45)

    def test_curve_matches_analytic_shape(self, cfg):
        # the default model realizes the same correlation shape as the
        # closed-form curve, so the whole curve should agree within noise
        ens = sim.run_ensemble(cfg, herald_kind="single", n_traces=8000,
                               threads=2)
        curve = sim.ensemble_variance(ens)
        m = ens.margin_cols
        analytic = dyn.heralded_variance(cfg.params, 1)(curve.taus)
        sel = slice(m, curve.values.size - m)
        resid = (curve.values[sel] - analytic[sel]) / analytic[sel]
        assert np.max(np.abs(resid)) < 0.10

    def test_deterministic_across_threads(self, cfg):
        a = sim.run_ensemble(cfg, herald_kind="single", n_traces=600, threads=1)
        b = sim.run_ensemble(cfg, herald_kind="single", n_traces=600, threads=2)
        assert np.array_equal(a.z, b.z)
        assert np.array_equal(a.weights, b.weights)

    @pytest.mark.parametrize("n_traces", [1.5, True, 0])
    def test_n_traces_must_be_a_positive_integer(self, cfg, n_traces):
        with pytest.raises(ConfigError):
            sim.run_ensemble(cfg, n_traces=n_traces)

    def test_herald_kinds_share_the_quadratures(self, cfg):
        # only the weights depend on the herald kind, so one simulation
        # could serve all three kinds
        ens = {kind: sim.run_ensemble(cfg, herald_kind=kind, n_traces=300)
               for kind in ("none", "single", "coincidence")}
        assert np.array_equal(ens["none"].z, ens["single"].z)
        assert np.array_equal(ens["none"].z, ens["coincidence"].z)
        np.testing.assert_allclose(ens["single"].weights ** 2,
                                   ens["coincidence"].weights, rtol=1e-12)

    def test_demod_calibration_independent_of_step(self, cfg):
        coarse = sim.DemodPlan(cfg, sim.FieldModel(cfg, dt=1.0 / cfg.sample_rate))
        fine = sim.DemodPlan(cfg)
        assert coarse.gain == fine.gain
        assert coarse.sigma_vac == fine.sigma_vac
        for order in (1, 2):
            assert coarse.predicted_ratio(order) == fine.predicted_ratio(order)

    def test_variance_matches_weighted_reference(self):
        rng = np.random.default_rng(5)
        z = rng.standard_normal((40, 9)) + 1j * rng.standard_normal((40, 9))
        w = rng.random(40)
        ens = sim.TraceEnsemble(z=z, taus=np.arange(9.0), herald_col=4,
                                weights=w, herald_kind="single", margin_cols=0)
        mean = np.average(z, axis=0, weights=w)
        ref = np.average(np.abs(z - mean) ** 2, axis=0, weights=w) / 2.0
        np.testing.assert_allclose(sim.ensemble_variance(ens).values, ref,
                                   rtol=1e-13)

    def test_variance_independent_of_blas_threads(self):
        script = ("from phonon_forge import simulator as sim\n"
                  "ens = sim.run_ensemble(sim.SimConfig(n_traces=32, seed=11),"
                  " 'single', threads=2)\n"
                  "print(sim.ensemble_variance(ens).values.tobytes().hex())\n")
        src = str(Path(sim.__file__).resolve().parents[1])
        out = []
        for blas_threads in ("1", "2"):
            path = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
            env = {**os.environ, "OPENBLAS_NUM_THREADS": blas_threads,
                   "PYTHONPATH": os.pathsep.join(filter(None, path))}
            out.append(subprocess.run([sys.executable, "-c", script], env=env,
                                      capture_output=True, text=True,
                                      check=True).stdout)
        assert out[0] == out[1]

    def test_filter_sensitivity_documented(self, cfg):
        # halving the demodulation bandwidth moves the predicted herald-time
        # enhancement by far less than the few-percent scale seen in practice
        plan_full = sim.DemodPlan(cfg)
        plan_half = sim.DemodPlan(cfg.with_updates(demod_bandwidth=50e6))
        r_full = plan_full.predicted_ratio(1)
        r_half = plan_half.predicted_ratio(1)
        assert abs(r_full - r_half) < 0.06
        assert 1.9 < r_half <= r_full < 2.0 + 1e-9

    def test_adiabatic_cross_check(self, cfg):
        c = cfg.with_updates(adiabatic=True, mech_linewidth="effective")
        ens = sim.run_ensemble(c, herald_kind="single", n_traces=4000)
        rep = sim.variance_ratio_report(ens)
        assert rep["peak_ratio"] == pytest.approx(2.0, abs=0.3)
        assert rep["sigma_sq_inf"] == pytest.approx(
            dyn.steady_state_variance(c.params), rel=0.05)


class TestHeraldHistogram:
    def test_unheralded_histogram_is_thermal(self, cfg):
        ens = sim.run_ensemble(cfg, herald_kind="none", n_traces=4000)
        grid = sim.herald_histogram(ens, npts=41)
        ax = grid.axis
        var_x = np.sum(grid.values * ax[:, None] ** 2) * grid.cell ** 2
        expected = dyn.steady_state_variance(cfg.params)
        assert var_x == pytest.approx(expected, rel=0.08)
        assert grid.units == ps.UNITS_HETERODYNE

    def test_single_phonon_histogram_converges(self, big_single_ensemble):
        ens = big_single_ensemble
        m_th = ens.meta["eta_total"] * ens.meta["nbar_th"]
        hw = 5.0 * math.sqrt(1.0 + 2 * m_th)
        npts = 41
        hist = sim.herald_histogram(ens, npts=npts, half_width=hw)

        spec = ps.StateSpec(nbar=ens.meta["nbar_th"], n=1,
                            eta=ens.meta["eta_total"])
        fine = ps.wigner_s(spec, ps.GridConfig(
            npts=4 * (npts - 1) + 1, half_width=hw,
            units=ps.UNITS_HETERODYNE))
        ana_masses = grid_cell_masses(fine.values, hw, npts)
        emp_masses = hist.values * hist.cell ** 2
        l1 = np.abs(emp_masses - ana_masses).sum()
        assert l1 < 0.05

    def test_single_phonon_ring_radius(self, big_single_ensemble):
        ens = big_single_ensemble
        m_th = ens.meta["eta_total"] * ens.meta["nbar_th"]
        z0 = ens.z[:, ens.herald_col]
        peak = radial_peak(np.abs(z0), ens.weights, 4.0 * math.sqrt(m_th))
        assert peak == pytest.approx(exact_smoothed_ring_radius(1, m_th),
                                     rel=0.05)

    def test_two_phonon_ring_radius_larger(self):
        c = sim.SimConfig(trace_len=1024, seed=311, chunk_traces=1024)
        ens = sim.run_ensemble(c, herald_kind="coincidence", n_traces=60_000,
                               threads=2)
        m_th = c.params.eta_total * c.params.nbar_th
        z0 = ens.z[:, ens.herald_col]
        peak = radial_peak(np.abs(z0), ens.weights, 5.0 * math.sqrt(m_th))
        expected = exact_smoothed_ring_radius(2, m_th)
        assert peak == pytest.approx(expected, rel=0.05)
        assert expected > exact_smoothed_ring_radius(1, m_th)


class TestClicks:
    def test_rate_matches_budget(self, cfg):
        duration = 4.0
        clicks = sim.gated_click_stream(cfg, duration, seed=77)
        report = bud.build_report(cfg.params, cfg.spad)
        expected = report.singles_rate * duration
        per_det = [(clicks.detector == d).sum() for d in (0, 1)]
        for counted in per_det:
            assert abs(counted - expected) < 3 * math.sqrt(expected)

    def test_dark_only_when_uncoupled(self, cfg):
        c = cfg.with_updates(params=cfg.params.with_updates(p_in=0.0))
        duration = 20.0
        clicks = sim.gated_click_stream(c, duration, seed=13)
        assert np.all(clicks.is_dark)
        expected = c.spad.dark_rate * c.spad.duty_cycle * duration
        per_det = [(clicks.detector == d).sum() for d in (0, 1)]
        for counted in per_det:
            assert abs(counted - expected) < 3 * math.sqrt(expected) + 3

    def test_coincidences_follow_product_law(self, cfg):
        duration = 40.0
        clicks = sim.gated_click_stream(cfg, duration, seed=21)
        coinc = sim.herald_select(clicks, "coincidence")
        report = bud.build_report(cfg.params, cfg.spad)
        expected = report.coincidence_rate * duration
        assert abs(coinc.size - expected) < 3 * math.sqrt(expected) + 3
        # order of magnitude of the laboratory coincidence rate
        assert 0.1 < coinc.size / duration < 20.0

    def test_dead_time_invariant(self, cfg):
        clicks = sim.gated_click_stream(cfg, 4.0, seed=55)
        for d in (0, 1):
            t = clicks.times[clicks.detector == d]
            if t.size > 1:
                assert np.diff(t).min() >= cfg.spad.dead_time

    @pytest.mark.parametrize("duration", [math.inf, math.nan, -1.0, 0.0, 1e-6])
    def test_click_stream_duration_checked(self, cfg, duration):
        with pytest.raises(ConfigError):
            sim.gated_click_stream(cfg, duration)

    def test_click_stream_deterministic(self, cfg):
        a = sim.gated_click_stream(cfg, 1.0, seed=3)
        b = sim.gated_click_stream(cfg, 1.0, seed=3)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.detector, b.detector)
        assert np.array_equal(a.is_dark, b.is_dark)

    def test_trajectory_thinning_rate(self, cfg):
        rate = 2.0e5
        n_steps = 400_000
        a_traj = np.ones(n_steps, dtype=complex)
        clicks = sim.spad_clicks(a_traj, cfg.dt, cfg.spad, seed=2,
                                 mean_registered_rate=rate, mean_intensity=1.0)
        duty = cfg.spad.duty_cycle
        expected = rate * duty * clicks.duration
        counted = int((~clicks.is_dark & (clicks.detector == 0)).sum())
        assert abs(counted - expected) < 3 * math.sqrt(expected) + 3

    def test_multi_photon_warning(self, cfg):
        a_traj = np.ones(2000, dtype=complex)
        with pytest.warns(UserWarning):
            sim.spad_clicks(a_traj, cfg.dt, cfg.spad, seed=2,
                            mean_registered_rate=8e7, mean_intensity=1.0)


class TestHeraldSelect:
    def _stream(self, times, detectors, gate_rate=5e4, gate_len=3.5e-9):
        times = np.asarray(times, dtype=float)
        det = np.asarray(detectors, dtype=np.int8)
        order = np.argsort(times)
        return sim.ClickStream(times[order], det[order],
                               np.zeros(times.size, dtype=bool),
                               duration=float(times.max() + 1e-3),
                               gate_rate=gate_rate, gate_len=gate_len)

    def test_single_detector_never_coincides(self):
        gate = 1.0 / 5e4
        clicks = self._stream([0.1 * gate, 5.2 * gate, 9.1 * gate], [0, 0, 0])
        assert sim.herald_select(clicks, "coincidence").size == 0
        assert sim.herald_select(clicks, "single").size == 3

    def test_same_gate_coincidence(self):
        gate = 1.0 / 5e4
        t0 = 7 * gate
        clicks = self._stream([t0 + 1e-9, t0 + 2e-9, 12 * gate], [0, 1, 0])
        heralds = sim.herald_select(clicks, "coincidence")
        assert heralds.size == 1
        assert abs(heralds[0] - (t0 + 0.5 * 3.5e-9)) < gate

    def test_cross_gate_events_do_not_coincide(self):
        gate = 1.0 / 5e4
        clicks = self._stream([3 * gate + 1e-9, 4 * gate + 1e-9], [0, 1])
        assert sim.herald_select(clicks, "coincidence").size == 0


class TestPersistence:
    def test_roundtrip(self, cfg, tmp_path):
        ens = sim.run_ensemble(cfg, herald_kind="single", n_traces=50)
        base = tmp_path / "ens"
        sim.save_ensemble(ens, base)
        loaded = sim.load_ensemble(base)
        np.testing.assert_array_equal(loaded.z, ens.z)
        np.testing.assert_array_equal(loaded.weights, ens.weights)
        assert loaded.herald_kind == ens.herald_kind
        assert loaded.herald_col == ens.herald_col

    def test_schema_checked(self, cfg, tmp_path):
        ens = sim.run_ensemble(cfg, herald_kind="none", n_traces=10)
        base = tmp_path / "ens"
        sim.save_ensemble(ens, base)
        doc = json.loads((tmp_path / "ens.json").read_text())
        doc["schema"] = "other"
        (tmp_path / "ens.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            sim.load_ensemble(base)

    # each case drops the last trace (row) or the last column of some arrays
    @pytest.mark.parametrize("rows,cols", [
        (("z_real", "z_imag"), ()),          # fewer traces than the sidecar says
        (("z_real",), ()),
        ((), ("z_imag",)),
        (("weights",), ()),
        ((), ("taus",)),
    ])
    def test_mismatched_parts_rejected(self, cfg, tmp_path, rows, cols):
        ens = sim.run_ensemble(cfg, herald_kind="single", n_traces=10)
        base = tmp_path / "ens"
        sim.save_ensemble(ens, base)
        with np.load(tmp_path / "ens.npz") as data:
            arrays = dict(data)
        for name in rows:
            arrays[name] = arrays[name][:-1]
        for name in cols:
            arrays[name] = arrays[name][..., :-1]
        np.savez(tmp_path / "ens.npz", **arrays)
        with pytest.raises(ConfigError):
            sim.load_ensemble(base)

    def test_sidecar_trace_count_checked(self, cfg, tmp_path):
        ens = sim.run_ensemble(cfg, herald_kind="single", n_traces=10)
        base = tmp_path / "ens"
        sim.save_ensemble(ens, base)
        doc = json.loads((tmp_path / "ens.json").read_text())
        doc["n_traces"] += 1
        (tmp_path / "ens.json").write_text(json.dumps(doc))
        with pytest.raises(ConfigError):
            sim.load_ensemble(base)
