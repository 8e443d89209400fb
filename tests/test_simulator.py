import json
import math
import os
import subprocess
import sys
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest

from phonon_forge import budget as bud
from phonon_forge import dynamics as dyn
from phonon_forge import phase_space as ps
from phonon_forge import simulator as sim
from phonon_forge.errors import ConfigError

from conftest import exact_smoothed_ring_radius, grid_cell_masses, radial_peak
from oracles import ar1_lfilter, gate_intensities_stepwise, simulate_fields, \
    simulate_chunk_allocating, time_domain_demodulate, time_domain_impulse_response


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
        assert cfg.dt == 1.0 / (2 * cfg.sample_rate)

    def test_nyquist_guard(self, params):
        with pytest.raises(ConfigError):
            sim.SimConfig(sample_rate=0.5e9)

    def test_bandwidth_guard(self):
        with pytest.raises(ConfigError):
            sim.SimConfig(demod_bandwidth=250e6)

    def test_decimate_within_the_trace(self):
        assert sim.SimConfig(trace_len=256, decimate=256).decimate == 256
        with pytest.raises(ConfigError, match="decimate"):
            sim.SimConfig(trace_len=256, decimate=257)

    def test_click_step_overflow_names_kappa2(self, params):
        c = sim.SimConfig(params=replace(params, kappa2=1e308))
        with pytest.raises(ConfigError, match="kappa2"):
            c.dt


class TestFieldModel:
    def test_mean_occupation_matches_closed_form(self, cfg):
        model = sim.FieldModel(cfg)
        n_steps, n_traces = 200_000, 8
        a = simulate_fields(cfg, n_steps, n_traces=n_traces, seed=3)
        emp = float(np.mean(np.abs(a) ** 2))
        expected = cfg.params.nbar_th * model.coupling ** 2 / (
            cfg.params.kappa2 * (cfg.params.kappa2 + cfg.params.gamma))
        t_total = n_steps * n_traces * cfg.dt
        se = expected * math.sqrt(2.0 * (1.0 / (2 * cfg.params.gamma)) / t_total)
        assert abs(emp - expected) < 3 * se

    def test_two_time_correlation(self, cfg):
        model = sim.FieldModel(cfg)
        a = simulate_fields(cfg, 400_000, n_traces=8, seed=4)
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
        a = simulate_fields(c, 2000, n_traces=3, seed=8)
        assert np.all(a == 0.0)

    def test_effective_linewidth_decay(self, cfg):
        c = cfg.with_updates(mech_linewidth="effective")
        model = sim.FieldModel(c)
        chain = dyn.characterize(c.params)
        assert model.rate == pytest.approx(chain.gamma_eff)
        a = simulate_fields(c, 400_000, n_traces=12, seed=6)
        lags = np.arange(0, int(2.0 / chain.gamma_eff / c.dt), 40)
        corr = np.array([
            np.mean(np.conj(a[:, :a.shape[1] - k]) * a[:, k:]).real
            for k in lags])
        slope = np.polyfit(lags * c.dt, np.log(corr / corr[0]), 1)[0]
        assert 1.0 / abs(slope) == pytest.approx(1.0 / chain.gamma_eff, rel=0.10)


class TestHeterodyneAndDemod:
    def test_vacuum_anchor(self, cfg):
        c = cfg.with_updates(params=cfg.params.with_updates(p_in=0.0))
        a = np.zeros((300, c.trace_len), dtype=complex)
        plan = sim.DemodPlan(c)
        v = plan.voltage_from_field(a, np.random.Generator(np.random.Philox(11)))
        z = plan.demodulate(v)
        x, p = z.real, z.imag
        m = plan.margin_cols
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
        plan = sim.DemodPlan(cfg)
        z = plan.demodulate(v)
        x, p = z.real, z.imag
        m = plan.margin_cols
        # constancy is limited by the filter's rejection of the 2*w_het image
        np.testing.assert_allclose(x[m:-m], amp.real, rtol=1e-4)
        np.testing.assert_allclose(p[m:-m], amp.imag, rtol=1e-4)


class TestFrequencyDomainFilter:
    """The NumPy kernels against the time-domain SciPy routes they replace."""

    def test_ar1_equals_lfilter_bit_for_bit(self, cfg):
        # the poles the propagator uses: complex entries of the step matrix
        model = sim.FieldModel(cfg)
        rng = np.random.Generator(np.random.Philox(21))
        drive = sim._circular_normal((64, 3125), rng)
        for pole in (model.E[0, 0], model.E[1, 1]):
            x = drive.T.copy()              # _ar1 runs in place, time-major
            sim._ar1(pole, x)
            assert np.array_equal(x.T, ar1_lfilter(pole, drive))

    @pytest.mark.parametrize("demod_filter", ["butter4", "boxcar"])
    @pytest.mark.parametrize("trace_len", [3125, 12500])
    def test_demodulate_matches_time_domain(self, demod_filter, trace_len):
        c = sim.SimConfig(trace_len=trace_len, demod_filter=demod_filter)
        model = sim.FieldModel(c, dt=1.0 / c.sample_rate)
        plan = sim.DemodPlan(c, model)
        rng = np.random.Generator(np.random.Philox(22))
        _, a = model.evolve_block(*model.stationary_sample(16, rng), trace_len, rng)
        v = plan.voltage_from_field(a, rng)
        z, ref = plan.demodulate(v), time_domain_demodulate(plan, v)
        assert z.shape == ref.shape == (16, plan.cols.size)
        m = plan.margin_cols
        rms = math.sqrt(np.mean(np.abs(z) ** 2))
        assert np.abs(z - ref)[:, m:plan.cols.size - m].max() < 1e-9 * rms
        # every column, the edges too, is the zero-padded linear filter by h
        cos_t, sin_t = plan.mix_phases()
        linear = [np.convolve(row * (cos_t + 1j * sin_t), plan.h)
                  [plan.h_center:plan.h_center + trace_len] for row in v]
        assert np.abs(z - math.sqrt(2.0) * np.array(linear)[:, plan.cols]).max() \
            < 1e-9 * rms
        # a single record is one row of the batch
        one = plan.demodulate(v[3])
        assert one.shape == (plan.cols.size,)
        assert np.abs(one - ref[3])[m:plan.cols.size - m].max() < 1e-9 * rms

    @pytest.mark.parametrize("demod_filter", ["butter4", "boxcar"])
    def test_impulse_response_matches_time_domain(self, cfg, demod_filter):
        plan = sim.DemodPlan(cfg.with_updates(demod_filter=demod_filter))
        h = time_domain_impulse_response(plan.cfg)
        support = np.nonzero(np.abs(h) > 1e-10 * np.abs(h).max())[0]
        h = h[support[0]:support[-1] + 1]
        assert plan.h.shape == h.shape
        assert plan.h_center == 8192 // 2 - support[0]
        assert np.abs(plan.h - h).max() < 1e-12 * np.abs(h).max()

    # the narrowest round bandwidths whose impulse response fits the 8192-point
    # grid: a boxcar of 8181 samples, and a butter4 just above 7.2114 MHz
    @pytest.mark.parametrize("demod_filter", ["butter4", "boxcar"])
    def test_response_is_finite_at_extreme_bandwidths(self, cfg, demod_filter):
        narrowest = {"butter4": 7.22e6, "boxcar": 1.91e5}[demod_filter]
        f_het = cfg.params.omega_het / (2 * math.pi)
        for bandwidth in (narrowest, math.nextafter(f_het, 0.0)):
            c = cfg.with_updates(demod_filter=demod_filter,
                                 demod_bandwidth=bandwidth)
            with np.errstate(over="raise", invalid="raise"):
                plan = sim.DemodPlan(c)
                z = plan.demodulate(np.ones((2, c.trace_len)))
            assert np.isfinite(plan.h).all() and np.isfinite(z).all()
            assert np.isfinite([plan.gain, plan.sigma_vac,
                                plan.predicted_ratio(1)]).all()
        # a response wrapped around the grid would give a wrong noise gain
        for bandwidth in (1.0, 0.98 * narrowest):
            with pytest.raises(ConfigError, match="too narrow"):
                sim.DemodPlan(cfg.with_updates(demod_filter=demod_filter,
                                               demod_bandwidth=bandwidth))

    def test_too_narrow_refusal_switches_at_one_bandwidth(self, cfg):
        # the wrapped tails of the 8192-point response used to cancel at the
        # grid ends, so acceptance flickered between 6.56 and 7.29 MHz
        accepted = []
        for bandwidth in np.linspace(6.5e6, 10e6, 200):
            try:
                sim.DemodPlan(cfg.with_updates(demod_bandwidth=float(bandwidth)))
                accepted.append(True)
            except ConfigError:
                accepted.append(False)
        assert np.count_nonzero(np.diff(accepted)) == 1 and accepted[-1]


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

    @pytest.mark.parametrize("demod_filter,mech_linewidth",
                             [("butter4", "bare"), ("boxcar", "effective")])
    def test_chunk_equals_the_allocating_oracle(self, cfg, monkeypatch,
                                                demod_filter, mech_linewidth):
        # 300 traces in chunks of 128 leave a short last chunk
        c = cfg.with_updates(demod_filter=demod_filter, chunk_traces=128,
                             mech_linewidth=mech_linewidth)
        runs = {(kind, threads): sim.run_ensemble(c, kind, n_traces=300,
                                                  threads=threads)
                for kind in ("none", "single", "coincidence") for threads in (1, 2)}
        monkeypatch.setattr(sim, "_simulate_chunk", simulate_chunk_allocating)
        for (kind, _), ens in runs.items():
            ref = sim.run_ensemble(c, kind, n_traces=300)
            assert np.array_equal(ens.z, ref.z)
            assert np.array_equal(ens.weights, ref.weights)

    @pytest.mark.parametrize("n,trace_len", [(1024, 3125), (256, 12500)])
    def test_chunk_holds_its_record_under_four_times(self, n, trace_len):
        # the propagator holds the two trajectories and the draws' float and
        # complex scratch, 3.5 records; the allocating oracle chunk holds 5
        c = sim.SimConfig(trace_len=trace_len, chunk_traces=n)
        model = sim.FieldModel(c, dt=1.0 / c.sample_rate)
        plan = sim.DemodPlan(c, model)
        rng = np.random.Generator(np.random.Philox(23))
        tracemalloc.start()
        try:
            sim._simulate_chunk(c, model, plan, n, 1, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 4 * 16 * n * trace_len

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


class TestHeraldHistogram:
    def test_unheralded_histogram_is_thermal(self, cfg):
        ens = sim.run_ensemble(cfg, herald_kind="none", n_traces=4000)
        grid = sim.herald_histogram(ens, npts=41)
        ax = grid.axis
        var_x = np.sum(grid.values * ax[:, None] ** 2) * grid.cell ** 2
        expected = dyn.steady_state_variance(cfg.params)
        assert var_x == pytest.approx(expected, rel=0.08)
        assert grid.units == ps.UNITS_HETERODYNE

    @pytest.mark.slow
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

    @pytest.mark.slow
    def test_single_phonon_ring_radius(self, big_single_ensemble):
        ens = big_single_ensemble
        m_th = ens.meta["eta_total"] * ens.meta["nbar_th"]
        z0 = ens.z[:, ens.herald_col]
        peak = radial_peak(np.abs(z0), ens.weights, 4.0 * math.sqrt(m_th))
        assert peak == pytest.approx(exact_smoothed_ring_radius(1, m_th),
                                     rel=0.05)

    @pytest.mark.slow
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


def _with_spad(cfg, **changes):
    return cfg.with_updates(spad=replace(cfg.spad, **changes))


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

    def test_click_stream_equals_the_stepwise_oracle(self, cfg, monkeypatch):
        # 205 000 gates: a full block of 200 000 and a partial one
        fast = sim.gated_click_stream(cfg, 4.1, seed=8)
        monkeypatch.setattr(sim, "_gate_intensities", gate_intensities_stepwise)
        slow = sim.gated_click_stream(cfg, 4.1, seed=8)
        assert fast.n_events > 100
        assert np.array_equal(fast.times, slow.times)
        assert np.array_equal(fast.detector, slow.detector)
        assert np.array_equal(fast.is_dark, slow.is_dark)

    def test_click_blocks_fit_the_byte_budget(self, cfg, monkeypatch):
        # 500 times the default gate holds 10 938 steps, so a 200 000-gate
        # block would be 17.5 GB; record the first block's shape and stop
        # before it is allocated
        class Stop(Exception):
            pass

        def first_block(c):
            shapes = []

            def record(model, n_gates, m_steps, rng):
                shapes.append((m_steps, n_gates))
                raise Stop

            monkeypatch.setattr(sim, "_gate_intensities", record)
            with pytest.raises(Stop):
                sim.gated_click_stream(c, 4.1, seed=8)
            return shapes[0]

        assert first_block(cfg) == (22, 200_000)
        m_steps, n_gates = first_block(_with_spad(cfg, gate_len=500 * cfg.spad.gate_len))
        assert m_steps == 10_938 and n_gates > 100
        assert 8 * m_steps * n_gates <= sim._CLICK_BLOCK_BYTES

    def test_fine_step_stream_runs_in_budgeted_blocks(self, cfg, monkeypatch):
        shapes = []
        intensities = sim._gate_intensities

        def record(model, n_gates, m_steps, rng):
            shapes.append((m_steps, n_gates))
            return intensities(model, n_gates, m_steps, rng)

        monkeypatch.setattr(sim, "_gate_intensities", record)
        monkeypatch.setattr(sim, "_CLICK_BLOCK_BYTES", 1 << 20)
        # a gate 50 times the default's holds 1094 steps of the click step
        c = _with_spad(cfg, gate_len=50 * cfg.spad.gate_len)
        clicks = sim.gated_click_stream(c, 0.01, seed=8)
        assert shapes == [(1094, 119)] * 4 + [(1094, 24)]
        assert np.all(np.diff(clicks.times) >= 0) and clicks.times.max() < 0.01
        with pytest.raises(ConfigError, match="too fine"):
            sim.gated_click_stream(_with_spad(cfg, gate_len=5e-5, gate_rate=1e4),
                                   0.01)

    def test_click_stream_holds_its_block_about_once(self):
        # the field stage peaks near 1.75 blocks of intensities; drawing the
        # clicks must not add a copy of the block on top of that
        c = sim.SimConfig()
        m_steps = math.ceil(c.spad.gate_len / c.dt)
        block_bytes = 8 * m_steps * 200_000
        tracemalloc.start()
        try:
            sim.gated_click_stream(c, 4.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert m_steps == 22
        assert peak < 2 * block_bytes

    def test_trajectory_thinning_rate(self, cfg):
        # one constant-intensity row per gate, as gated_click_stream lays out
        rate = 2.0e5
        spad = cfg.spad
        n_gates = 200_000
        m_steps = math.ceil(spad.gate_len / cfg.dt)
        lam = np.full((n_gates, m_steps), rate)
        starts = np.arange(n_gates) / spad.gate_rate
        duration = n_gates / spad.gate_rate
        _, det, dark = sim._draw_events(lam, starts, spad.gate_len / m_steps,
                                        spad, duration,
                                        np.random.Generator(np.random.Philox(2)))
        expected = rate * spad.duty_cycle * duration
        counted = int((~dark & (det == 0)).sum())
        assert abs(counted - expected) < 3 * math.sqrt(expected) + 3


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


class _Missing:
    def __repr__(self):
        return "missing"


_MISSING = _Missing()


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
        _reject_sidecar(_saved(cfg, tmp_path, "none"),
                        lambda doc: doc.update(schema="other"))

    # each case drops the last trace (row) or the last column of some arrays
    @pytest.mark.parametrize("rows,cols", [
        (("z_real", "z_imag"), ()),          # fewer traces than the sidecar says
        (("z_real",), ()),
        ((), ("z_imag",)),
        (("weights",), ()),
        ((), ("taus",)),
    ])
    def test_mismatched_parts_rejected(self, cfg, tmp_path, rows, cols):
        base = _saved(cfg, tmp_path)
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
        _reject_sidecar(_saved(cfg, tmp_path),
                        lambda doc: doc.update(n_traces=doc["n_traces"] + 1))

    @pytest.mark.parametrize("key,value", [
        ("herald_kind", "triple"), ("herald_col", 1_000_000), ("herald_col", -1),
        ("herald_col", 2.5), ("margin_cols", 1_000_000), ("margin_cols", -3)])
    def test_sidecar_columns_and_kind_checked(self, cfg, tmp_path, key, value):
        _reject_sidecar(_saved(cfg, tmp_path), lambda doc: doc.update({key: value}))

    @pytest.mark.parametrize("key,value", [
        ("units", _MISSING), ("units", "volts"), ("units", None),
        ("meta", _MISSING), ("meta", {}), ("meta", [])], ids=str)
    def test_sidecar_units_and_meta_checked(self, cfg, tmp_path, key, value):
        _reject_sidecar(_saved(cfg, tmp_path), lambda doc: _set(doc, key, value))

    @pytest.mark.parametrize("value", [_MISSING, "x", True, None, float("nan"),
                                       float("inf"), -1.0], ids=str)
    @pytest.mark.parametrize("name", ["eta_total", "predicted_ratio",
                                      "sigma_inf_expected", "slow_rate"])
    def test_sidecar_meta_entries_checked(self, cfg, tmp_path, name, value):
        _reject_sidecar(_saved(cfg, tmp_path), lambda doc: _set(doc["meta"], name, value))

    def test_unheralded_sidecar_loads(self, cfg, tmp_path):
        ens = sim.load_ensemble(_saved(cfg, tmp_path, "none"))
        assert ens.units == ps.UNITS_HETERODYNE and ens.meta["predicted_ratio"] == 1.0


def _set(doc, key, value):
    """doc[key] = value, or drop the key when value is _MISSING."""
    if value is _MISSING:
        doc.pop(key)
    else:
        doc[key] = value


def _saved(cfg, tmp_path, kind="single"):
    """Save a 10-trace ensemble under tmp_path and return its path base."""
    base = tmp_path / "ens"
    sim.save_ensemble(sim.run_ensemble(cfg, herald_kind=kind, n_traces=10), base)
    return base


def _reject_sidecar(base, edit):
    """load_ensemble refuses the saved ensemble once edit has changed its sidecar."""
    path = base.with_name(base.name + ".json")
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        sim.load_ensemble(base)
