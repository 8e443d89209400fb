import collections
import json
import math
import os
import re
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
from phonon_forge.params import UNITS_HETERODYNE

from conftest import assert_uniform, assert_within_se, exact_smoothed_ring_radius, \
    grid_cell_masses, radial_peak
from oracles import dead_time_greedy, direct_cross_sums, direct_noise, \
    draw_block_stepwise, herald_column_cdf, riccati_gains, simulate_fields, \
    time_domain_demodulate, time_domain_impulse_response


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
        with pytest.raises(ConfigError, match="kappa2"):
            sim.SimConfig(params=replace(params, kappa2=1e308))


class TestFieldModel:
    def test_mean_occupation_matches_closed_form(self, cfg):
        model = sim.FieldModel(cfg, cfg.dt)
        n_steps, n_traces = 200_000, 8
        a = simulate_fields(cfg, n_steps, n_traces=n_traces, seed=3)
        emp = float(np.mean(np.abs(a) ** 2))
        expected = cfg.params.nbar_th * model.coupling ** 2 / (
            cfg.params.kappa2 * (cfg.params.kappa2 + cfg.params.gamma))
        t_total = n_steps * n_traces * cfg.dt
        se = expected * math.sqrt(2.0 * (1.0 / (2 * cfg.params.gamma)) / t_total)
        assert_within_se(emp, expected, se, "mean occupation", k=3)

    def test_two_time_correlation(self, cfg):
        model = sim.FieldModel(cfg, cfg.dt)
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

    @pytest.mark.parametrize("rel_gap", [1e-3, 1e-6, 1e-9, 1.1e-9, 1e-12, 0.0])
    def test_step_matrix_equals_expm_near_degeneracy(self, cfg, rel_gap):
        # (e_bb - e_aa) / (k - r) cancelled to 7.4e-7 relative just above
        # its old 1e-9 cut-off; the expm1 form keeps every entry exact
        from scipy.linalg import expm
        p = cfg.params
        c = replace(cfg, params=replace(p, gamma=p.kappa2 * (1.0 - rel_gap)))
        model = sim.FieldModel(c, dt=1.0 / c.sample_rate)
        g, r, k = model.coupling, model.rate, model.kappa
        ref = expm(np.array([[-r, 0.0], [-1j * g, -k]]) * model.dt)
        np.testing.assert_allclose(model.E, ref, rtol=1e-14, atol=0.0)

    @pytest.mark.parametrize("linewidth,system", [
        ("bare", {}), ("effective", {}), ("bare", {"p_in": 0.0}),
        ("bare", {"nbar_th": 0.0}), ("effective", {"nbar_th": 0.0})])
    def test_noise_factors_are_lower_triangular_and_exact(self, cfg, linewidth,
                                                         system):
        c = replace(cfg, mech_linewidth=linewidth,
                    params=replace(cfg.params, **system))
        for dt in (c.dt, 1.0 / c.sample_rate):       # the click and sample steps
            model = sim.FieldModel(c, dt=dt)
            q = model.Sigma - model.E @ model.Sigma @ model.E.conj().T
            for mat in (q, model.Sigma):
                l = sim._chol_psd(mat)
                assert l[0, 1] == 0.0
                assert l[0, 0].imag == 0.0 and l[1, 1].imag == 0.0
                # Q's upper triangle is its lower one's conjugate only to the
                # rounding of Sigma - E Sigma E^dag; like LAPACK, the factor
                # reads the lower triangle
                lower = np.tril(mat) + np.tril(mat, -1).conj().T
                np.testing.assert_allclose(l @ l.conj().T, lower, rtol=0.0,
                                           atol=1e-15 * np.abs(mat).max())
                try:
                    ref = np.linalg.cholesky(mat)
                except np.linalg.LinAlgError:
                    continue                          # singular: no reference
                assert np.array_equal(l, ref)

    @pytest.mark.parametrize("linewidth,system", [
        ("bare", {}), ("effective", {}), ("bare", {"nbar_th": 0.0}),
        ("bare", {"p_in": 0.0})], ids=["bare", "effective", "nbar_th0", "p_in0"])
    def test_propagator_law_is_exact(self, cfg, linewidth, system, monkeypatch):
        # evolve_block is linear in its normals.  Run on one trace per
        # normal, trace k fed normal k alone as 1, it returns each a_t's
        # coefficients, whose Gram matrix is the record's covariance: its
        # whole law with nothing drawn, here across slabs of 5 steps
        c = replace(cfg, mech_linewidth=linewidth,
                    params=replace(cfg.params, **system))
        model = sim.FieldModel(c, dt=1.0 / c.sample_rate)
        n_steps = 64
        n = 4 + 2 * (n_steps - 1)
        monkeypatch.setattr(sim, "_SLAB_BYTES", 5 * 16 * n)
        rng = _ImpulseNormals(n)
        _, a = model.evolve_block(*model.stationary_sample(n, rng), n_steps, rng)
        assert rng.drawn == n
        coef = a.T
        lags = np.arange(n_steps)
        toeplitz = model.correlation_a(np.abs(lags[:, None] - lags) * model.dt)
        atol = 1e-12 * model.var_a
        assert np.all(np.isfinite(coef))
        np.testing.assert_allclose(coef @ coef.conj().T, toeplitz, rtol=0, atol=atol)
        np.testing.assert_allclose(coef @ coef.T, 0.0, rtol=0, atol=atol)
        if system:          # no thermal drive or no coupling: no field at all
            assert np.all(coef == 0.0)

    def test_propagator_draws_one_complex_normal_per_step(self, cfg, monkeypatch):
        # a's innovations are all that evolve_block draws, 2 n (n_steps - 1)
        # real normals after stationary_sample's 4 n, and nothing for b's
        # noise.  Neither the count nor the record moves with the slab layout
        model = sim.FieldModel(cfg, dt=1.0 / cfg.sample_rate)
        n, n_steps = 44, 300
        records = []
        for slab_steps in (1, 7, 300, 1000):
            monkeypatch.setattr(sim, "_SLAB_BYTES", slab_steps * 16 * n)
            rng = _CountingRng(np.random.Generator(np.random.Philox(9)))
            b0, a0 = model.stationary_sample(n, rng)
            assert rng.counts == {"normals": 4 * n}
            records.append(model.evolve_block(b0, a0, n_steps, rng))
            assert rng.counts == {"normals": 4 * n + 2 * n * (n_steps - 1)}
        for b_last, a in records[1:]:
            assert np.array_equal(b_last, records[0][0])
            assert np.array_equal(a, records[0][1])

    @pytest.mark.parametrize("linewidth,system", [
        ("bare", {}), ("effective", {}), ("bare", {"p_in": 0.0})],
        ids=["bare", "effective", "p_in0"])
    def test_innovation_gains_equal_the_plain_riccati_loop(self, cfg, linewidth,
                                                           system):
        # the gains stop being computed at the Riccati fixed point; a
        # simulate record's 12 500 of them, at the click step and the
        # sample step, are still the plain loop's bit for bit, and that
        # loop's gains are one value from step 20 on
        c = replace(cfg, mech_linewidth=linewidth,
                    params=replace(cfg.params, **system))
        for dt in (c.dt, 1.0 / c.sample_rate):
            model = sim.FieldModel(c, dt=dt)
            gains, ref = (np.array(list(g), dtype=complex).reshape(-1, 2)
                          for g in (model.innovation_gains(12_500),
                                    riccati_gains(model, 12_500)))
            assert gains.shape == (12_499, 2)
            assert np.array_equal(gains.view(np.int64), ref.view(np.int64))
            assert np.all(ref[20:] == ref[-1])

    def test_zero_coupling_gives_vacuum(self, cfg):
        c = replace(cfg, params=replace(cfg.params, p_in=0.0))
        a = simulate_fields(c, 2000, n_traces=3, seed=8)
        assert np.all(a == 0.0)

    @pytest.mark.parametrize("linewidth", ["bare", "effective"])
    @pytest.mark.parametrize("p_in", [9e-3, 0.0])
    def test_rate_is_the_relaxation_rate(self, cfg, linewidth, p_in):
        c = replace(cfg, params=replace(cfg.params, p_in=p_in), mech_linewidth=linewidth)
        assert sim.FieldModel(c).rate == dyn.relaxation_rate(c)

    def test_effective_linewidth_decay(self, cfg):
        c = replace(cfg, mech_linewidth="effective")
        model = sim.FieldModel(c, c.dt)
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
        c = replace(cfg, params=replace(cfg.params, p_in=0.0))
        # at 1500 traces the sampled variances scatter by about 0.003 from
        # seed to seed, so rel=0.02 is a gate of at least 5 standard deviations
        a = np.zeros((1500, c.trace_len), dtype=complex)
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
        c = replace(cfg, params=replace(cfg.params, eta_total=1e-4))
        ens = sim.run_ensemble(c, herald_kind="none", n_traces=200)
        m = ens.margin_cols
        mean_var = sim.ensemble_variance(ens).values[m:-m].mean()
        assert abs(mean_var - 1.0) < 0.1

    def test_boxcar_filter_keeps_anchors(self, cfg):
        c = replace(cfg, demod_filter="boxcar")
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
        # the same tone as a constant field through the noiseless voltage,
        # which carries the calibration gain
        plan.sigma_vac = 0.0
        a = np.full(cfg.trace_len, amp)
        v_field = plan.voltage_from_field(a, np.random.Generator(np.random.SFC64(0)))
        m = plan.margin_cols
        for z, expected in ((plan.demodulate(v), amp),
                            (plan.demodulate(v_field), plan.gain * amp)):
            # constancy is limited by the filter's rejection of the 2*w_het image
            np.testing.assert_allclose(z.real[m:-m], expected.real, rtol=1e-4)
            np.testing.assert_allclose(z.imag[m:-m], expected.imag, rtol=1e-4)


class TestFrequencyDomainFilter:
    """The NumPy kernels against the time-domain SciPy routes they replace."""

    @pytest.mark.parametrize("demod_filter", ["butter4", "boxcar"])
    @pytest.mark.parametrize("trace_len", [3125, 12500])
    def test_demodulate_matches_time_domain(self, demod_filter, trace_len):
        c = sim.SimConfig(trace_len=trace_len, demod_filter=demod_filter)
        plan = sim.DemodPlan(c)
        model = plan.model
        rng = np.random.Generator(np.random.Philox(22))
        _, a = model.evolve_block(*model.stationary_sample(16, rng), trace_len, rng)
        v = plan.voltage_from_field(a, rng)
        z, ref = plan.demodulate(v), time_domain_demodulate(plan, v)
        assert z.shape == ref.shape == (16, plan.cols.size)
        m = plan.margin_cols
        rms = math.sqrt(np.mean(np.abs(z) ** 2))
        assert np.abs(z - ref)[:, m:plan.cols.size - m].max() < 1e-9 * rms
        # every column, the edges too, is the zero-padded linear filter by h
        linear = [np.convolve(row * plan.phasor, plan.h)
                  [plan.h_center:plan.h_center + trace_len] for row in v]
        assert np.abs(z - math.sqrt(2.0) * np.array(linear)[:, plan.cols]).max() \
            < 1e-9 * rms
        # a single record is one row of the batch
        one = plan.demodulate(v[3])
        assert one.shape == (plan.cols.size,)
        assert np.abs(one - ref[3])[m:plan.cols.size - m].max() < 1e-9 * rms

    @pytest.mark.parametrize("demod_filter", ["butter4", "boxcar"])
    def test_impulse_response_matches_time_domain(self, cfg, demod_filter):
        plan = sim.DemodPlan(replace(cfg, demod_filter=demod_filter))
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
            c = replace(cfg, demod_filter=demod_filter,
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
                sim.DemodPlan(replace(cfg, demod_filter=demod_filter,
                                      demod_bandwidth=bandwidth))

    @pytest.mark.parametrize("order", [math.nan, -1, 1.5, True], ids=repr)
    def test_predicted_ratio_refuses_a_non_integer_order(self, cfg, order):
        with pytest.raises(ConfigError, match="^order must be an integer"):
            sim.DemodPlan(cfg).predicted_ratio(order)

    def test_too_narrow_refusal_switches_at_one_bandwidth(self, cfg):
        # the wrapped tails of the 8192-point response used to cancel at the
        # grid ends, so acceptance flickered between 6.56 and 7.29 MHz
        accepted = []
        for bandwidth in np.linspace(6.5e6, 10e6, 200):
            try:
                sim.DemodPlan(replace(cfg, demod_bandwidth=float(bandwidth)))
                accepted.append(True)
            except ConfigError:
                accepted.append(False)
        assert np.count_nonzero(np.diff(accepted)) == 1 and accepted[-1]


class _NoSpawn(np.random.SeedSequence):
    """A SeedSequence that refuses to spawn, so each stream must be made alone."""

    def spawn(self, n_children):
        raise AssertionError(f"spawn({n_children}) made every stream up front")


def _assert_node_equals_spawned(seed, branch, n):
    """SeedSequence(seed, spawn_key=branch + (i,)) is the ith of n spawned
    from node branch, bit for bit, and sim._stream of that node draws what
    an SFC64 generator of the spawned child draws."""
    children = np.random.SeedSequence(seed, spawn_key=branch).spawn(n)
    for i, child in enumerate(children):
        alone = np.random.SeedSequence(seed, spawn_key=branch + (i,))
        assert np.array_equal(alone.generate_state(8), child.generate_state(8))
        ref = np.random.Generator(np.random.SFC64(child))
        rng = sim._stream(seed, branch + (i,))
        assert np.array_equal(rng.standard_normal(64), ref.standard_normal(64))
        assert np.array_equal(rng.random(64), ref.random(64))


def _herald_fields(plan):
    """A list that receives a0, the field at the herald sample, of each chunk
    that plan's model propagates, in chunk order on one thread."""
    a0, evolve = [], plan.model.evolve_block

    def evolve_block(*args):
        b, a = evolve(*args)
        a0.append(a[:, plan.center].copy())
        return b, a

    plan.model.evolve_block = evolve_block
    return a0


def _assert_conditioned(z, z0, a0, plan):
    """z - z0 = K delta + L delta* within 1e-12 and delta / a0 real, with (K, L)
    the law's gains on a0, the field at the herald sample: delta is read off the
    herald column, so an update that turns a0's phase, or reads a0 at another
    sample, fails."""
    k, l = plan.cross
    k, l, hc = k / plan.model.var_a, l / plan.model.var_a, plan.herald_col
    ratio = (z - z0)[:, hc] / (a0 * k[hc] + a0.conj() * l[hc])
    assert np.all(np.abs(ratio.imag) <= 1e-12 * (1.0 + np.abs(ratio.real)))
    delta = ratio.real * a0
    assert np.abs(z - z0 - np.outer(delta, k) - np.outer(delta.conj(), l)).max() < 1e-12


class TestHeraldedEnsembles:
    @pytest.mark.parametrize("empty", ["p_in", "nbar_th"])
    @pytest.mark.parametrize("kind", ["single", "coincidence"])
    def test_empty_field_is_refused_before_any_chunk(self, cfg, monkeypatch, kind, empty):
        # a0 would be 0, so no herald could condition it
        def evolve_block(*args):
            raise AssertionError("a chunk was simulated")

        monkeypatch.setattr(sim.FieldModel, "evolve_block", evolve_block)
        c = replace(cfg, params=replace(cfg.params, **{empty: 0.0}))
        with pytest.raises(ConfigError, match="no herald signal"):
            sim.run_ensemble(c, kind, n_traces=16)

    @pytest.mark.parametrize("empty", ["p_in", "nbar_th"])
    def test_empty_field_runs_unheralded(self, cfg, empty):
        # the unheralded ensemble of an empty field is the vacuum calibration
        c = replace(cfg, params=replace(cfg.params, **{empty: 0.0}))
        ens = sim.run_ensemble(c, "none", n_traces=16)
        assert np.all(ens.weights == 1.0) and np.all(np.isfinite(ens.z))

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

    @pytest.mark.parametrize("n,trace_len", [(1024, 3125), (256, 12500)])
    def test_chunk_holds_its_record_about_once(self, n, trace_len):
        # the propagator stores only a, one record, and carries b through a
        # slab-sized scratch; the voltage and its FFT buffer exist a slab of
        # traces at a time, so the chunk's peak is a quarter above a's
        c = sim.SimConfig(trace_len=trace_len, chunk_traces=n)
        plan = sim.DemodPlan(c)
        rng = np.random.Generator(np.random.Philox(23))
        tracemalloc.start()
        try:
            sim._simulate_chunk(plan, n, rng)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 1.25 * 16 * n * trace_len

    def test_ensemble_calls_every_traced_layer(self, cfg, monkeypatch):
        # the traced benchmark times these layers in its ensemble pass, and
        # reads the field samples off evolve_block's result, and fails when
        # a layer is never called: an ensemble and its report call each
        calls = collections.defaultdict(list)
        for owner, name in ((sim.FieldModel, "stationary_sample"),
                            (sim.FieldModel, "evolve_block"),
                            (sim.DemodPlan, "voltage_from_field"),
                            (sim.DemodPlan, "demodulate"), (sim, "ensemble_variance")):
            method = getattr(owner, name)

            def counted(*args, _name=name, _method=method):
                out = _method(*args)
                calls[_name].append(out)
                return out

            monkeypatch.setattr(owner, name, counted)
        c = replace(cfg, chunk_traces=4)
        ens = sim.run_ensemble(c, sim.HERALD_SINGLE, n_traces=6)
        sim.variance_ratio_report(ens)
        assert len(calls["stationary_sample"]) == 2
        assert [out[1].shape for out in calls["evolve_block"]] == [(4, c.trace_len),
                                                                   (2, c.trace_len)]
        assert len(calls["voltage_from_field"]) == len(calls["demodulate"]) == 2
        assert len(calls["ensemble_variance"]) == 1
        # the record is those layers' outputs: the demodulated rows in order,
        # each conditioned on its a at the herald sample
        a0 = [a[:, c.trace_len // 2] for _, a in calls["evolve_block"]]
        _assert_conditioned(ens.z, np.concatenate(calls["demodulate"]),
                            np.concatenate(a0), sim.DemodPlan(c))

    def test_deterministic_across_threads(self, cfg, monkeypatch):
        # nor does the slab layout move a bit: the default, and one voltage
        # row per slab, which also steps the field in slabs of 11 and 32 steps
        # (chunks of 256 and 88 traces)
        runs = []
        for slab_bytes in (sim._SLAB_BYTES, 16 * sim.DemodPlan(cfg).n_fft):
            monkeypatch.setattr(sim, "_SLAB_BYTES", slab_bytes)
            runs += [sim.run_ensemble(cfg, herald_kind="single", n_traces=600,
                                      threads=threads) for threads in (1, 2)]
        for ens in runs[1:]:
            assert np.array_equal(ens.z, runs[0].z)
            assert np.array_equal(ens.weights, runs[0].weights)

    def test_chunk_streams_are_made_one_at_a_time(self, cfg, monkeypatch):
        # a huge n_traces must not make all its chunks' streams before its
        # first allocation; chunk i still draws from node (i,), as spawn gives
        for seed in (0, 101, 4242, 20210):
            _assert_node_equals_spawned(seed, (), 3)
        c = replace(cfg, chunk_traces=4)
        ref = sim.run_ensemble(c, sim.HERALD_SINGLE, n_traces=10)
        monkeypatch.setattr(np.random, "SeedSequence", _NoSpawn)
        ens = sim.run_ensemble(c, sim.HERALD_SINGLE, n_traces=10)
        assert np.array_equal(ens.z, ref.z)
        assert np.array_equal(ens.weights, ref.weights)

    @pytest.mark.parametrize("n_traces", [1.5, True, 0])
    def test_n_traces_must_be_a_positive_integer(self, cfg, n_traces):
        with pytest.raises(ConfigError):
            sim.run_ensemble(cfg, n_traces=n_traces)

    def test_herald_kinds_share_the_quadratures(self, cfg):
        # every order conditions the same unheralded records by a rank-two
        # update along a0, and weighs each trace alike
        plan = sim.DemodPlan(cfg)
        a0 = _herald_fields(plan)
        ens = [sim.run_ensemble(cfg, kind, n_traces=300, plan=plan)
               for kind in sim.HERALD_KINDS]
        a0 = np.concatenate(a0[:len(a0) // 3])
        for order, e in enumerate(ens):
            _assert_conditioned(e.z, ens[0].z, a0, plan)
            assert np.array_equal(e.weights, np.ones(300))
            if order:
                assert sim.variance_ratio_report(e)["effective_samples"] == 300

    def test_demod_calibration_independent_of_step(self, cfg):
        # the plan's calibration reads its model's var_a, rate and
        # correlation_a, none of which depends on the step
        click, sample = (sim.FieldModel(cfg, dt) for dt in (cfg.dt, 1.0 / cfg.sample_rate))
        assert click.var_a == sample.var_a
        assert click.rate == sample.rate
        lags = np.arange(-2000, 2001) / cfg.sample_rate
        assert np.array_equal(click.correlation_a(lags), sample.correlation_a(lags))

    def test_plan_model_steps_at_the_sample_rate(self, cfg):
        # run_ensemble propagates with the plan's own model, one step per sample
        plan = sim.DemodPlan(cfg)
        assert plan.model.dt == 1.0 / cfg.sample_rate
        assert np.array_equal(plan.model.E, sim.FieldModel(cfg, 1.0 / cfg.sample_rate).E)
        given = sim.DemodPlan(cfg, sim.FieldModel(cfg))
        assert given.model.dt == plan.model.dt and given.gain == plan.gain

    def test_variance_matches_weighted_reference(self):
        # every record has weight 1, so the reference is a plain mean
        rng = np.random.default_rng(5)
        z = rng.standard_normal((40, 9)) + 1j * rng.standard_normal((40, 9))
        ens = sim.TraceEnsemble(z=z, taus=np.arange(9.0), herald_col=4,
                                weights=np.ones(40), herald_kind="single", margin_cols=0)
        mean = np.mean(z, axis=0)
        ref = np.mean(np.abs(z - mean) ** 2, axis=0) / 2.0
        np.testing.assert_allclose(sim.ensemble_variance(ens).values, ref,
                                   rtol=1e-13)

    def test_variance_holds_no_array_of_the_ensembles_size(self):
        # a 62.7 MB z reduced in blocks of about _SLAB_BYTES: each block's
        # deviation and its |.|^2 are the only scratch of any size, and the
        # blocked sums agree with one pass over z at rounding level
        rng = np.random.default_rng(6)
        z = rng.standard_normal((20_000, 196)) + 1j * rng.standard_normal((20_000, 196))
        ens = sim.TraceEnsemble(z=z, taus=np.arange(196.0), herald_col=98,
                                weights=np.ones(20_000), herald_kind="single",
                                margin_cols=0)
        tracemalloc.start()
        try:
            values = sim.ensemble_variance(ens).values
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 3 * sim._SLAB_BYTES
        mean = np.mean(z, axis=0)
        ref = np.mean(np.abs(z - mean) ** 2, axis=0) / 2.0
        np.testing.assert_allclose(values, ref, rtol=1e-12)

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
        plan_half = sim.DemodPlan(replace(cfg, demod_bandwidth=50e6))
        r_full = plan_full.predicted_ratio(1)
        r_half = plan_half.predicted_ratio(1)
        assert abs(r_full - r_half) < 0.06
        assert 1.9 < r_half <= r_full < 2.0 + 1e-9


def _chain_moments(plan):
    """The sample-rate chain's (cov, pseudo, k, l) by linear algebra, nothing
    drawn: demodulate is linear in the voltage, so unit impulses pushed through
    it give its map D, and the voltage's Toeplitz covariance T, with
    v = sqrt(2) g Re[a e^(-i w t)] + sigma_vac noise, gives E[z z^dag] = D T D^dag
    and E[z z^T] = D T D^T; E[v a0*] and E[v a0] give k and l."""
    n, g, w_het = plan.cfg.trace_len, plan.gain, plan.cfg.params.omega_het
    eye = np.eye(n)
    d_map = np.concatenate([plan.demodulate(eye[lo:lo + 256])
                            for lo in range(0, n, 256)]).T
    t = np.arange(n) * plan.dt_s
    lag = t[:, None] - t
    toeplitz = g ** 2 * plan.model.correlation_a(lag) * np.cos(w_het * lag) \
        + plan.sigma_vac ** 2 * eye
    c_a = plan.model.correlation_a(t - t[plan.center])
    with_a0 = g / math.sqrt(2.0) * c_a * np.exp(-1j * w_het * t)
    return (d_map @ toeplitz @ d_map.conj().T, d_map @ toeplitz @ d_map.T,
            d_map @ with_a0, d_map @ with_a0.conj())


class TestRecordLaw:
    """DemodPlan.cov and DemodPlan.cross, the demodulated record's second moments,
    against the chain they describe: by linear algebra, and by Monte-Carlo at its se."""

    def test_the_law_is_computed_once_per_plan(self, monkeypatch):
        # DemodPlan() builds the law from one _sums call per kernel, and a heralded
        # run_ensemble conditions on plan.cross without asking for it again
        calls, sums = [], sim.DemodPlan._sums
        monkeypatch.setattr(sim.DemodPlan, "_sums",
                            lambda plan, *args: calls.append(args) or sums(plan, *args))
        c = sim.SimConfig(trace_len=1024, chunk_traces=64)
        plan = sim.DemodPlan(c)
        sim.run_ensemble(c, "single", n_traces=64, plan=plan)
        assert len(calls) == 2

    @pytest.mark.parametrize("changes", [
        {}, {"demod_filter": "boxcar"}, {"mech_linewidth": "effective"},
        {"decimate": 7}], ids=["butter4", "boxcar", "effective", "decimate7"])
    def test_law_is_the_chains_by_linear_algebra(self, changes):
        plan = sim.DemodPlan(sim.SimConfig(trace_len=1024, **changes))
        cov, (k, l) = plan.cov, plan.cross
        chain_cov, pseudo, chain_k, chain_l = _chain_moments(plan)
        usable = np.flatnonzero(sim.steady_columns(plan.taus, plan.margin_cols,
                                                   plan.model.rate, 0))
        lags = usable[None, :] - usable[:, None]
        law = np.where(lags >= 0, cov[np.abs(lags)], np.conj(cov[np.abs(lags)]))
        # the 1e-10 cut of the filter's support (_support) bounds the gap
        gap = np.abs(chain_cov[np.ix_(usable, usable)] - law).max()
        assert gap < 1e-10 * cov[0].real
        hc = plan.herald_col
        assert np.abs(chain_k - k)[usable].max() < 1e-10 * abs(k[hc])
        assert np.abs(chain_l - l)[usable].max() < 1e-10 * abs(k[hc])
        l_share = abs(l[hc]) / abs(k[hc])
        pseudo_share = np.abs(pseudo[np.ix_(usable, usable)]).max() / cov[0].real
        print(f"{changes}: gap {gap / cov[0].real:.2g} of cov[0], |l| {l_share:.2g} "
              f"of |k| at the herald, pseudo-covariance {pseudo_share:.2g} of cov[0]")
        # a 16-sample boxcar passes much of the 2 w_het image, so only the
        # Butterworth's record is circular
        if "demod_filter" not in changes:
            assert l_share < 1e-3 and pseudo_share < 1e-3

    @pytest.mark.parametrize("changes,kernel", [
        (changes, kernel) for kernel in ("h", "r_h") for changes in (
            {}, {"demod_filter": "boxcar"}, {"mech_linewidth": "effective"},
            {"decimate": 7})],
        ids=[name + suffix for suffix in ("", "-r_h")
             for name in ("butter4", "boxcar", "effective", "decimate7")])
    def test_cross_sums_equal_the_direct_sums(self, changes, kernel):
        # the convolutions add the same terms as the per-lag sums, in another
        # order: within the rounding of a kernel.size-term sum; h at every
        # column's lag from the herald, r_h at every lag of plan.cov
        plan = sim.DemodPlan(sim.SimConfig(trace_len=3125, **changes))
        eps = np.finfo(float).eps
        if kernel == "h":
            args = plan.h, plan.h_center, range(-plan.herald_col,
                                                plan.cols.size - plan.herald_col)
        else:
            args = plan.r_h, plan.h.size - 1, range(plan.cols.size)
        fast, direct = plan._sums(*args), direct_cross_sums(plan, *args)
        scale = np.abs(direct[0]).max()
        gap = np.abs(fast - direct).max()
        print(f"{changes}: gap {gap / scale:.2g} of max|sum| over {args[0].size} terms")
        assert gap <= args[0].size * eps * scale
        if kernel == "r_h":
            # plan.cov's vacuum term, r_h(k d) read by index, past the
            # filter's support too, against the direct per-lag sums
            cov = plan.cov
            noise = (cov - plan.gain ** 2 * fast.sum(axis=0)) / (2.0 * plan.sigma_vac ** 2)
            ref = direct_noise(plan, args[2])
            gap = np.abs(noise - ref).max()
            print(f"{changes}: noise gap {gap / ref[0]:.2g} of r_h(0)")
            assert gap <= plan.h.size * eps * ref[0]

    @pytest.mark.parametrize("changes", [
        {}, {"demod_filter": "boxcar"}, {"decimate": 7},
        {"demod_bandwidth": 180e6}, {"demod_bandwidth": 20e6},
        {"demod_bandwidth": 8e6}], ids=repr)
    def test_every_steady_column_sees_the_whole_filter(self, changes):
        # where the report reads, the law is exact: no column's support is cut
        plan = sim.DemodPlan(sim.SimConfig(**changes))
        cols = plan.cols[sim.steady_columns(plan.taus, plan.margin_cols,
                                            plan.model.rate, 0)]
        assert (cols - (plan.h.size - 1 - plan.h_center)).min() >= 0
        assert (cols + plan.h_center).max() < plan.cfg.trace_len

    @pytest.mark.parametrize("changes,values", [
        ({}, ("0x1.47e2a66520e1fp-1", "0x1.0aed704480af7p+2", "0x1.ffb3ae564d90fp+0")),
        ({"demod_filter": "boxcar"},
         ("0x1.47e9c4c576f9bp-1", "0x1.0000000000000p+2", "0x1.ff99bbbbfa570p+0")),
        ({"mech_linewidth": "effective"},
         ("0x1.4f63b1bbbbb8dp-1", "0x1.0aed704480af7p+2", "0x1.ff79f642357d2p+0"))],
        ids=["butter4", "boxcar", "effective"])
    def test_calibration_reads_the_law_unchanged(self, changes, values):
        # gain, sigma_vac and predicted_ratio are pinned bit for bit, and they
        # are entries of the law: the calibration counts the image term, 0.65%
        # of the variance for the 16-sample boxcar, so an unheralded record
        # reads 1 + eta nbar_th for every filter
        plan = sim.DemodPlan(sim.SimConfig(**changes))
        assert (plan.gain.hex(), plan.sigma_vac.hex(),
                plan.predicted_ratio(1).hex()) == values
        cov, (k, l) = plan.cov, plan.cross
        assert cov[0].real == pytest.approx(2.0 * plan.sigma_inf, rel=1e-12)
        hc = plan.herald_col
        rho_sq = (abs(k[hc]) ** 2 + abs(l[hc]) ** 2) \
            / (plan.model.var_a * (cov[0].real - 2.0))
        assert plan.predicted_ratio(1) == pytest.approx(1.0 + rho_sq, rel=1e-12)

    @pytest.fixture(scope="class")
    def unheralded(self, cfg):
        """8192 unheralded traces of cfg, with a0, the field at each one's
        herald sample, read from the chain as run_ensemble runs it."""
        plan = sim.DemodPlan(cfg)
        a0 = _herald_fields(plan)
        ens = sim.run_ensemble(cfg, "none", n_traces=8192, plan=plan)
        return plan, ens, np.concatenate(a0)

    @pytest.mark.parametrize("lag", [0, 1, 2, 5])
    def test_lag_covariance_matches_the_law(self, unheralded, lag):
        plan, ens, _ = unheralded
        cov = plan.cov
        usable = np.flatnonzero(sim.steady_columns(plan.taus, plan.margin_cols,
                                                   plan.model.rate, 0))
        j = usable[usable + lag <= usable[-1]]
        per_trace = np.mean(ens.z[:, j] * ens.z[:, j + lag].conj(), axis=1).real
        assert_within_se(per_trace.mean(), cov[lag].real,
                         per_trace.std(ddof=1) / math.sqrt(per_trace.size),
                         f"E[z_j z*_(j+{lag})]")

    def test_herald_column_regresses_on_a0_as_the_law_says(self, unheralded):
        plan, ens, a0 = unheralded
        z = ens.z[:, plan.herald_col]
        norm = np.sum(np.abs(a0) ** 2)
        beta = np.sum(z * a0.conj()) / norm
        resid = (z - beta * a0) * a0.conj()
        assert_within_se(beta.real, plan.cross[0, plan.herald_col].real
                         / plan.model.var_a, math.sqrt(np.sum(resid.real ** 2)) / norm,
                         "herald column's coefficient on a0")

    @pytest.mark.parametrize("order", [0, 1, 2])
    def test_herald_column_follows_the_mixture_law(self, order):
        # conditioned with unit weights, the herald column's |z|^2 is exactly
        # the law's Binomial(n, p)-Gamma(k + 1) mixture, so its transform is
        # uniform and the KS gate's false-alarm chance is at most 1e-3
        c = sim.SimConfig(trace_len=1024, seed=39, chunk_traces=1024)
        plan = sim.DemodPlan(c)
        ens = sim.run_ensemble(c, sim.HERALD_KINDS[order], n_traces=4096,
                               threads=2, plan=plan)
        cov, k = plan.cov, plan.cross[0]
        k_h, var_a = k[plan.herald_col], plan.model.var_a
        u = herald_column_cdf(np.abs(ens.z[:, plan.herald_col]) ** 2, order,
                              k_h / var_a, cov[0].real - abs(k_h) ** 2 / var_a, var_a)
        assert_uniform(u, f"order {order} herald column against its law")


class TestSteadyColumns:
    # 21 columns 0.1 apart, 3 at each edge unusable: the usable |tau| <= 0.7,
    # so the wings lie beyond 0.42, or beyond three relaxation times
    taus = np.linspace(-1.0, 1.0, 21)

    def test_unheralded_reads_every_usable_column(self):
        for rate in (None, 100.0):
            steady = sim.steady_columns(self.taus, 3, rate, 0)
            assert np.array_equal(np.flatnonzero(steady), np.arange(3, 18))

    @pytest.mark.parametrize("order", [1, 2])
    def test_heralded_reads_the_wings(self, order):
        for rate, cols in ((None, [3, 4, 5, 15, 16, 17]), (10.0, [3, 4, 5, 15, 16, 17]),
                           (5.0, [3, 4, 16, 17])):
            steady = sim.steady_columns(self.taus, 3, rate, order)
            assert np.array_equal(np.flatnonzero(steady), cols)

    @pytest.mark.parametrize("order,margin,rate,message", [
        (0, 11, None, "no column is clear of the filter's edge transients"),
        (1, 11, None, "too short to estimate the steady-state wings"),
        (1, 3, 2.0, "too short to estimate the steady-state wings"),
        (2, 8, None, "too short to estimate the steady-state wings")])
    def test_too_short_a_trace_is_refused(self, order, margin, rate, message):
        with pytest.raises(ConfigError, match=message):
            sim.steady_columns(self.taus, margin, rate, order)

    def test_unheralded_report_reads_the_usable_columns(self, cfg):
        ens = sim.run_ensemble(cfg, "none", n_traces=16)
        values = sim.ensemble_variance(ens).values
        usable = values[ens.margin_cols:values.size - ens.margin_cols]
        report = sim.variance_ratio_report(ens)
        assert report["sigma_sq_inf"] == float(usable.mean())
        assert report["ideal_ratio"] == 1.0


class TestHeraldHistogram:
    @pytest.mark.parametrize("bad", [{"npts": 1}, {"npts": True}, {"npts": 2.5},
                                     {"npts": 0}, {"half_width": -1.0},
                                     {"half_width": math.nan}], ids=str)
    def test_bad_grid_is_refused(self, cfg, bad):
        ens = sim.run_ensemble(cfg, "single", n_traces=16)
        with pytest.raises(ConfigError):
            sim.herald_histogram(ens, **bad)

    def test_unheralded_histogram_is_thermal(self, cfg):
        ens = sim.run_ensemble(cfg, herald_kind="none", n_traces=4000)
        grid = sim.herald_histogram(ens, npts=41)
        ax = grid.axis
        var_x = np.sum(grid.values * ax[:, None] ** 2) * grid.cell ** 2
        expected = dyn.steady_state_variance(cfg.params)
        assert var_x == pytest.approx(expected, rel=0.08)
        assert grid.units == UNITS_HETERODYNE

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
            units=UNITS_HETERODYNE))
        ana_masses = grid_cell_masses(fine.values, hw, npts)
        emp_masses = hist.values * hist.cell ** 2
        l1 = np.abs(emp_masses - ana_masses).sum()
        assert l1 < 0.05

    @pytest.mark.slow
    def test_single_phonon_ring_radius(self, big_single_ensemble):
        ens = big_single_ensemble
        m_th = ens.meta["eta_total"] * ens.meta["nbar_th"]
        z0 = ens.z[:, ens.herald_col]
        peak = radial_peak(np.abs(z0), 4.0 * math.sqrt(m_th))
        assert peak == pytest.approx(exact_smoothed_ring_radius(1, m_th),
                                     rel=0.05)

    @pytest.mark.slow
    def test_two_phonon_ring_radius_larger(self):
        c = sim.SimConfig(trace_len=1024, seed=311, chunk_traces=1024)
        ens = sim.run_ensemble(c, herald_kind="coincidence", n_traces=60_000,
                               threads=2)
        m_th = c.params.eta_total * c.params.nbar_th
        z0 = ens.z[:, ens.herald_col]
        peak = radial_peak(np.abs(z0), 5.0 * math.sqrt(m_th))
        expected = exact_smoothed_ring_radius(2, m_th)
        assert peak == pytest.approx(expected, rel=0.05)
        assert expected > exact_smoothed_ring_radius(1, m_th)


def _with_spad(cfg, **changes):
    return replace(cfg, spad=replace(cfg.spad, **changes))


class _ImpulseNormals:
    """A Generator stand-in for n gates (or traces) whose normals are unit
    impulses: counting one gate's normals in the order drawn, normal k is 1
    in gate k and 0 in every other.  A draw of shape (rows, n) gives each
    gate one normal per row; a draw into an out of rows of 2n, the real and
    imaginary parts of n complex normals, gives each gate a pair per row."""

    def __init__(self, n):
        self.n, self.drawn = n, 0

    def standard_normal(self, size=None, out=None):
        out = np.empty(size) if out is None else out
        per_row = 1 if out.shape[-1] == self.n else 2
        out[...] = 0.0
        for row in out.reshape(-1, self.n, per_row):
            for part in range(per_row):
                if self.drawn < self.n:
                    row[self.drawn, part] = 1.0
                self.drawn += 1
        return out


class _CountingRng:
    """A Generator proxy that counts the normals, chi-squares, gammas and
    uniforms drawn, by it and by the children it spawns, in one Counter."""

    def __init__(self, rng, counts=None):
        self.rng = rng
        self.counts = collections.Counter() if counts is None else counts

    def _counted(self, kind, out):
        self.counts[kind] += np.size(out)
        return out

    def standard_normal(self, *args, **kwargs):
        return self._counted("normals", self.rng.standard_normal(*args, **kwargs))

    def chisquare(self, *args, **kwargs):
        return self._counted("chisquares", self.rng.chisquare(*args, **kwargs))

    def standard_gamma(self, *args, **kwargs):
        return self._counted("gammas", self.rng.standard_gamma(*args, **kwargs))

    def random(self, *args, **kwargs):
        return self._counted("uniforms", self.rng.random(*args, **kwargs))

    def spawn(self, n):
        return [_CountingRng(child, self.counts) for child in self.rng.spawn(n)]

    def __getattr__(self, name):
        return getattr(self.rng, name)


def _gate_paths(model, m_steps, n, rng):
    """The (m_steps, n) optical paths of n gates, stepped on the fly."""
    stepped = sim._stepped(model, *model.stationary_sample(n, rng), m_steps, rng)
    return np.array([a.copy() for a in stepped])


def _assert_path_covariance(draw, expected):
    """Every <a_i* a_j> (i <= j) over 200 000 paths drawn by draw(n), an
    (m_steps, n) array, within 4.5 standard errors of expected[i, j] (and
    its imaginary part of 0), a bound that the 506 comparisons of a 22-step
    path pass by chance with probability above 99.6%."""
    m_steps = expected.shape[0]
    n, chunks = 50_000, 4
    # per pair (i <= j): the sums of Re and Im of a_i* a_j, and of their squares
    sums = np.zeros((4, m_steps, m_steps))
    for _ in range(chunks):
        path = draw(n)
        for i, ai in enumerate(path):
            prod = ai.conj() * path[i:]
            for k, part in enumerate((prod.real, prod.imag)):
                sums[k, i, i:] += part.sum(axis=1)
                sums[2 + k, i, i:] += np.square(part).sum(axis=1)
    total = n * chunks
    upper = np.triu_indices(m_steps)
    mean = sums[:2, upper[0], upper[1]] / total
    se = np.sqrt((sums[2:, upper[0], upper[1]] / total - mean ** 2) / total)
    assert np.all(np.abs(mean[0] - expected[upper]) < 4.5 * se[0])
    assert np.all(np.abs(mean[1]) < 4.5 * se[1])


def _stream_args(cfg, monkeypatch):
    """The (model, m_steps, hit_scale) that gated_click_stream hands
    _draw_block for cfg."""
    seen = []

    def record(model, first, n, m_steps, hit_scale, *args):
        seen.append((model, m_steps, hit_scale))
        empty = np.empty(0)
        return empty, empty.astype(np.int8), empty.astype(bool)

    with monkeypatch.context() as patch:
        patch.setattr(sim, "_draw_block", record)
        sim.gated_click_stream(cfg, 2.0 / cfg.spad.gate_rate)
    return seen[0]


def _hit_moments(draw, n_blocks, m_steps, dt, gate_rate):
    """(n, s1, s2): the number of gates and the sums over gates of each
    per-gate statistic and of its square, for n_blocks blocks of 2^16 gates
    drawn by draw(starts, block) with no dark counts.

    The statistics are, per detector, a hit at step j (for every j), exactly
    k hits (k = 0, 1, 2) and 3 or more, then a hit on both detectors, then
    the number of hits per detector."""
    n = sim._CLICK_BLOCK_GATES
    s1 = s2 = 0.0
    for block in range(n_blocks):
        starts = np.arange(block * n, (block + 1) * n) / gate_rate
        times, det, dark = draw(starts, block)
        assert not dark.any()
        det = det.astype(np.intp)
        gate = np.floor(times * gate_rate).astype(np.intp) - block * n
        step = np.minimum(((times - starts[gate]) / dt).astype(np.intp), m_steps - 1)
        per_step = np.bincount(det * m_steps + step, minlength=2 * m_steps)
        counts = np.bincount(det * n + gate, minlength=2 * n).reshape(2, n)
        flags = np.concatenate([
            per_step,
            np.stack([(counts == k).sum(axis=1) for k in range(3)]
                     + [(counts >= 3).sum(axis=1)], axis=1).ravel(),
            [np.count_nonzero(counts.all(axis=0))]])
        s1 = s1 + np.concatenate([flags, counts.sum(axis=1)])
        s2 = s2 + np.concatenate([flags, np.square(counts).sum(axis=1)])
    return n * n_blocks, s1, s2


def _assert_same_law(model, m_steps, hit_scale, spad, scale, n_blocks):
    """The kernel and draw_block_stepwise, on independent draws of n_blocks
    blocks at scale times hit_scale, give the same law: each detector's hits
    per step, its gates with 0, 1, 2 and 3+ hits, the gates with a hit on
    both and the hits per detector.  Each is a sum over independent gates,
    so its standard error comes from the per-gate spread, which carries the
    overdispersion of hits that share one field.  The bound, 4.5 standard
    errors, is passed by chance by 165 comparisons with probability 99.9%."""
    args = (m_steps, scale * hit_scale)

    def kernel(starts, block):
        rng = np.random.Generator(np.random.Philox([scale, block, 0]))
        return sim._draw_block(model, block * starts.size, starts.size, *args, spad,
                               1e9, rng)

    def oracle(starts, block):
        rng = np.random.Generator(np.random.Philox([scale, block, 1]))
        return draw_block_stepwise(model, starts, *args, spad, 1e9, rng)

    sides = [_hit_moments(draw, n_blocks, m_steps, model.dt, spad.gate_rate)
             for draw in (kernel, oracle)]
    means = [s1 / n for n, s1, _ in sides]
    errs = [(s2 / n - mean ** 2) / n for (n, _, s2), mean in zip(sides, means)]
    diff, se = means[0] - means[1], np.sqrt(errs[0] + errs[1])
    assert np.all(np.abs(diff) <= 4.5 * se), (scale, np.max(np.abs(diff) / se))
    hits_per_detector = sides[0][1][-2:]
    assert hits_per_detector.min() > 2000


class TestClicks:
    def test_rate_matches_budget(self, cfg):
        duration = 4.0
        clicks = sim.gated_click_stream(replace(cfg, seed=77), duration)
        report = bud.build_report(cfg.params, cfg.spad)
        expected = report.singles_rate * duration
        # the budget's singles rate holds real clicks only
        per_det = [((clicks.detector == d) & ~clicks.is_dark).sum() for d in (0, 1)]
        for counted in per_det:
            assert abs(counted - expected) < 3 * math.sqrt(expected)

    def test_dark_only_when_uncoupled(self, cfg):
        c = replace(cfg, params=replace(cfg.params, p_in=0.0))
        duration = 20.0
        clicks = sim.gated_click_stream(replace(c, seed=13), duration)
        assert np.all(clicks.is_dark)
        expected = c.spad.dark_rate * c.spad.duty_cycle * duration
        per_det = [(clicks.detector == d).sum() for d in (0, 1)]
        for counted in per_det:
            assert abs(counted - expected) < 3 * math.sqrt(expected) + 3

    def test_coincidences_follow_product_law(self, cfg):
        duration = 40.0
        clicks = sim.gated_click_stream(replace(cfg, seed=21), duration)
        coinc = sim.herald_select(clicks, "coincidence")
        report = bud.build_report(cfg.params, cfg.spad)
        expected = report.coincidence_rate * duration
        assert abs(coinc.size - expected) < 3 * math.sqrt(expected) + 3
        # order of magnitude of the laboratory coincidence rate
        assert 0.1 < coinc.size / duration < 20.0

    def test_dead_time_invariant(self, cfg):
        clicks = sim.gated_click_stream(replace(cfg, seed=55), 4.0)
        for d in (0, 1):
            t = clicks.times[clicks.detector == d]
            if t.size > 1:
                assert np.diff(t).min() >= cfg.spad.dead_time

    @pytest.mark.parametrize("duration", [math.inf, math.nan, -1.0, 0.0, 1e-6])
    def test_click_stream_duration_checked(self, cfg, duration):
        with pytest.raises(ConfigError):
            sim.gated_click_stream(cfg, duration)

    def test_click_stream_deterministic(self, cfg):
        c = replace(cfg, seed=3)
        a = sim.gated_click_stream(c, 1.0)
        b = sim.gated_click_stream(c, 1.0)
        assert np.array_equal(a.times, b.times)
        assert np.array_equal(a.detector, b.detector)
        assert np.array_equal(a.is_dark, b.is_dark)

    def test_click_stream_equals_the_stepwise_oracle(self, cfg, monkeypatch):
        # in law: the kernel against the per-step Bernoulli oracle, on
        # independent draws, at the stream's hit_scale (2^20 gates a side),
        # at 60x (2^17), where about 1 gate in 4 is proposed, and at 300x
        # and 3000x (2^16), where every gate is stepped and p caps at 1, so
        # that a detector hits several times a gate
        spad = replace(cfg.spad, dark_rate=0.0)
        args = _stream_args(replace(cfg, spad=spad), monkeypatch)
        for scale, n_blocks in ((1, 16), (60, 2), (300, 1), (3000, 1)):
            _assert_same_law(*args, spad, scale, n_blocks)

    def test_effective_linewidth_stream_equals_the_stepwise_oracle(self, cfg,
                                                                   monkeypatch):
        # the path decorrelates faster across the gate at the effective
        # linewidth; at 60x about 1 gate in 4 is proposed
        spad = replace(cfg.spad, dark_rate=0.0)
        args = _stream_args(replace(cfg, spad=spad, mech_linewidth="effective"),
                            monkeypatch)
        _assert_same_law(*args, spad, 60, 2)

    @pytest.mark.parametrize("scale,n_blocks", [(60, 4), (200, 2)])
    def test_fast_mechanics_stream_equals_the_stepwise_oracle(self, cfg, monkeypatch,
                                                              scale, n_blocks):
        # at gamma = 2 pi 300 MHz a's correlation across the gate falls to
        # 0.44, so a candidate's size-biased step J must be uniform over the
        # gate and the rest of its path conditioned on a_J: a J anchored at
        # step 0 passes every test above and fails these.  At 60x (2^18
        # gates) and 200x (2^17) about 4% and 13% of gates are proposed
        spad = replace(cfg.spad, dark_rate=0.0)
        c = replace(cfg, spad=spad, params=replace(cfg.params, gamma=2 * math.pi * 300e6))
        model, m_steps, hit_scale = args = _stream_args(c, monkeypatch)
        lag = model.correlation_a((m_steps - 1) * model.dt) / model.var_a
        assert 0.4 < lag < 0.5
        _assert_same_law(*args, spad, scale, n_blocks)

    @pytest.mark.parametrize("linewidth", ["bare", "effective"])
    def test_raw_hits_per_gate_match_the_closed_form(self, cfg, monkeypatch, linewidth):
        # each detector's mean hits per gate is sum_j E p_j = hit_scale
        # m_steps var_a, p_j never capped at 1 at the stream's hit_scale.
        # On 2^24 gates, within 4.5 standard errors from the per-gate spread,
        # this sees a rate bias of about 2.4%, which the law tests cannot
        spad = replace(cfg.spad, dark_rate=0.0)
        model, m_steps, hit_scale = _stream_args(
            replace(cfg, spad=spad, mech_linewidth=linewidth), monkeypatch)

        def kernel(starts, block):
            rng = np.random.Generator(np.random.Philox([block, 4]))
            return sim._draw_block(model, block * starts.size, starts.size, m_steps,
                                   hit_scale, spad, 1e9, rng)

        n, s1, s2 = _hit_moments(kernel, 256, m_steps, model.dt, spad.gate_rate)
        mean = s1[-2:] / n
        se = np.sqrt((s2[-2:] / n - mean ** 2) / n)
        expected = hit_scale * m_steps * model.var_a
        assert np.all(np.abs(mean - expected) <= 4.5 * se), (mean - expected) / se

    @pytest.mark.parametrize("linewidth,system", [
        ("bare", {}), ("effective", {}), ("bare", {"nbar_th": 0.0}),
        ("bare", {"p_in": 0.0})], ids=["bare", "effective", "nbar_th0", "p_in0"])
    def test_click_path_law_is_exact(self, cfg, linewidth, system):
        # the kernel is linear in its normals.  Run on one gate per normal,
        # gate k fed normal k alone as 1, it returns each a_j's coefficients
        # on the normals, whose Gram matrix is the path's covariance: the
        # whole law of a gate's path with nothing drawn
        c = replace(cfg, mech_linewidth=linewidth,
                    params=replace(cfg.params, **system))
        m_steps = math.ceil(c.spad.gate_len / c.dt)
        assert m_steps == 22
        model = sim.FieldModel(c, dt=c.spad.gate_len / m_steps)
        n = 4 + 2 * (m_steps - 1)
        rng = _ImpulseNormals(n)
        coef = _gate_paths(model, m_steps, n, rng)
        assert rng.drawn == n
        lags = np.arange(m_steps)
        toeplitz = model.correlation_a(np.abs(lags[:, None] - lags) * model.dt)
        atol = 1e-12 * model.var_a
        assert np.all(np.isfinite(coef))
        np.testing.assert_allclose(coef @ coef.conj().T, toeplitz, rtol=0, atol=atol)
        np.testing.assert_allclose(coef @ coef.T, 0.0, rtol=0, atol=atol)
        if system:          # no thermal drive or no coupling: no field at all
            assert np.all(coef == 0.0)

    @pytest.mark.parametrize("linewidth", ["bare", "effective"])
    def test_click_path_covariance_sampled(self, cfg, linewidth):
        # 200 000 gates stepped by the kernel against the model's correlation
        c = replace(cfg, mech_linewidth=linewidth)
        m_steps = math.ceil(c.spad.gate_len / c.dt)
        model = sim.FieldModel(c, dt=c.spad.gate_len / m_steps)
        rng = np.random.Generator(np.random.Philox(12))
        lags = np.arange(m_steps)
        _assert_path_covariance(
            lambda n: _gate_paths(model, m_steps, n, rng),
            model.correlation_a(np.abs(lags[:, None] - lags) * model.dt))

    @pytest.mark.parametrize("m_steps", [2, 22, 5000])
    def test_stored_and_stepped_paths_agree_bit_for_bit(self, cfg, m_steps):
        # the candidates' stored paths (evolve_block) and the gates stepped
        # on the fly (_stepped) are one kernel: from one generator state
        # they draw the same normals and give the same path and final b,
        # also across the four slabs that 5000 steps of 40 gates take
        model = sim.FieldModel(cfg, dt=cfg.spad.gate_len / 22)
        n = 40
        b0, a0 = model.stationary_sample(n, np.random.Generator(np.random.Philox(31)))
        rngs = [np.random.Generator(np.random.Philox(32)) for _ in range(2)]
        b_last, a = model.evolve_block(b0, a0, m_steps, rngs[0])
        b = b0.copy()
        rows = [row.copy() for row in sim._stepped(model, b, a0.copy(), m_steps, rngs[1])]
        assert m_steps < 5000 or m_steps > 3 * sim._slab_rows(16 * n)
        assert np.array_equal(np.array(rows), a.T)
        assert np.array_equal(b, b_last)
        assert rngs[0].random() == rngs[1].random()

    @pytest.mark.parametrize("linewidth,system", [
        ("bare", {}), ("effective", {}), ("bare", {"gamma": 2 * math.pi * 300e6})],
        ids=["bare", "effective", "fast"])
    def test_candidate_paths_follow_the_size_biased_law(self, cfg, linewidth, system):
        # a circular Gaussian path of covariance C, size-biased by sum_j
        # |a_j|^2, has covariance C + C^2 / tr C (Isserlis): 200 000
        # candidates from _biased_paths against it, at both linewidths and
        # at gamma = 2 pi 300 MHz, where C falls to 0.44 across the gate
        c = replace(cfg, mech_linewidth=linewidth, params=replace(cfg.params, **system))
        m_steps = math.ceil(c.spad.gate_len / c.dt)
        model = sim.FieldModel(c, dt=c.spad.gate_len / m_steps)
        rng = np.random.Generator(np.random.Philox(13))
        lags = np.arange(m_steps)
        cov = model.correlation_a(np.abs(lags[:, None] - lags) * model.dt)
        _assert_path_covariance(lambda n: sim._biased_paths(model, n, m_steps, rng),
                                cov + cov @ cov / np.trace(cov))

    @pytest.mark.parametrize("m_steps", [2, 22, 50])
    def test_draw_block_draws_one_complex_normal_per_step(self, cfg, m_steps,
                                                          monkeypatch):
        # at hit_scale 0 no gate may click, so nothing is drawn for any gate
        # and none is stepped.  At 1e300 every gate is stepped on the fly:
        # it draws its exact (b_0, a_0), 4 real normals, its two thresholds,
        # 2 uniforms, and then one complex normal per step, read once, with
        # no chi-square or gamma; it hits at every step, and each hit draws a
        # fresh threshold and a jitter.  No dark counts
        spad = replace(cfg.spad, dark_rate=0.0)
        model = sim.FieldModel(cfg, dt=spad.gate_len / m_steps)
        n = 1000
        stepped = []
        step_states = sim.FieldModel.step_states

        def counted(self, b, a, *args):
            stepped.append(b.size * (len(a) - 1))
            return step_states(self, b, a, *args)

        monkeypatch.setattr(sim.FieldModel, "step_states", counted)
        for hit_scale, taken in ((0.0, 0), (1e300, n)):
            stepped.clear()
            rng = _CountingRng(np.random.Generator(np.random.Philox(3)))
            times, _, _ = sim._draw_block(model, 0, n, m_steps, hit_scale, spad, 1.0,
                                          rng)
            assert times.size == 2 * m_steps * taken
            assert sum(stepped) == (m_steps - 1) * taken
            assert rng.counts["normals"] == (4 + 2 * (m_steps - 1)) * taken
            assert rng.counts["chisquares"] == rng.counts["gammas"] == 0
            assert rng.counts["uniforms"] == 2 * taken + 2 * times.size

    def test_candidates_draw_their_normals_once(self, cfg, monkeypatch):
        # at 60x the stream's hit_scale about 1 gate in 4 is a candidate.
        # The candidates are stepped together through every gain in one
        # slab, and each draws its (b_0, a_0), 4 real normals, its
        # 2 (m_steps - 1) innovation normals, once, and one gamma for its size-biased step:
        # no chi-square, and no normal read twice, by it or by a child stream
        model, m_steps, hit_scale = _stream_args(cfg, monkeypatch)
        n, gains = 500, [k for _, k in model.innovation_gains(m_steps)]
        stepped = []
        step_states = sim.FieldModel.step_states

        def recorded(self, b, a, step_gains, rng):
            stepped.append((b.size, step_gains[:, 1].tolist()))
            return step_states(self, b, a, step_gains, rng)

        monkeypatch.setattr(sim.FieldModel, "step_states", recorded)
        rng = _CountingRng(np.random.Generator(np.random.Philox(6)))
        sim._draw_block(model, 0, n, m_steps, 60 * hit_scale, cfg.spad, 1.0, rng)
        k = stepped[0][0]
        assert 50 < k < n
        assert stepped == [(k, gains)]
        assert rng.counts["normals"] == (4 + 2 * (m_steps - 1)) * k
        assert rng.counts["gammas"] == k and rng.counts["chisquares"] == 0

    def test_click_stream_memory_is_bounded_whatever_the_gate(self, monkeypatch):
        # blocks hold a fixed number of gates, and their candidates' paths
        # only up to _CLICK_PATH_BYTES on average: 7 times the default gate
        # (154 steps) is the longest whose full blocks store them, while 8
        # and 500 times (10 938 steps) step every gate on the fly and store
        # no path
        c = sim.SimConfig()
        stored = []
        biased_paths = sim._biased_paths

        def recorded(model, k, *args):
            stored.append(k)
            return biased_paths(model, k, *args)

        monkeypatch.setattr(sim, "_biased_paths", recorded)
        block = (sim._CLICK_BLOCK_GATES + 0.5) / c.spad.gate_rate
        for scale, duration, blocks_stored in ((1, 4.0, 4), (7, 4.0, 4), (8, block, 0),
                                               (500, 0.05, 0)):
            stored.clear()
            tracemalloc.start()
            try:
                sim.gated_click_stream(_with_spad(c, gate_len=scale * c.spad.gate_len),
                                       duration)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < 16e6, (scale, peak)
            assert len(stored) == blocks_stored, scale

    def test_click_stream_memory_scales_with_events_not_gates(self):
        # a default 8 s stream opens 400 000 gates in 7 blocks and registers
        # about 1 700 events: its peak stays below one block's 2^16 float64
        # gate starts, so no per-gate array is made.  A short stream first
        # runs the lazy imports (SeedSequence's), which are no stream's cost
        sim.gated_click_stream(sim.SimConfig(), 1e-3)
        tracemalloc.start()
        try:
            sim.gated_click_stream(sim.SimConfig(), 8.0)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak < 8 * sim._CLICK_BLOCK_GATES, peak

    def test_fine_step_stream_runs_in_budgeted_blocks(self, cfg, monkeypatch):
        shapes = []
        draw_block = sim._draw_block

        def record(model, first, n, m_steps, *args):
            shapes.append((m_steps, n))
            return draw_block(model, first, n, m_steps, *args)

        monkeypatch.setattr(sim, "_draw_block", record)
        monkeypatch.setattr(sim, "_CLICK_BLOCK_GATES", 119)
        # a gate 50 times the default's holds 1094 steps of the click step
        c = _with_spad(cfg, gate_len=50 * cfg.spad.gate_len)
        clicks = sim.gated_click_stream(c, 0.01)
        assert shapes == [(1094, 119)] * 4 + [(1094, 24)]
        assert np.all(np.diff(clicks.times) >= 0) and clicks.times.max() < 0.01

    def test_too_fine_a_gate_is_refused_before_any_work(self, cfg, monkeypatch):
        def never(*args):
            raise AssertionError("a block was drawn")

        monkeypatch.setattr(sim, "_draw_block", never)
        # 2e-3 s of 0.16 ns steps: 12.5 million, beyond 2^23
        with pytest.raises(ConfigError, match="too fine"):
            sim.gated_click_stream(_with_spad(cfg, gate_len=2e-3, gate_rate=100.0),
                                   0.05)

    def test_trajectory_thinning_rate(self, cfg):
        # a stand-in Gaussian field, a ~ CN(0, 1) constant across the gate
        # (correlation 1 at every lag, no innovations), so every step of a
        # gate thins at rate dt |a|^2 and a gate has rate gate_len hits on
        # average.  A candidate's size-biased path is alpha at every step
        rate = 2.0e5
        spad = cfg.spad
        m_steps = math.ceil(spad.gate_len / cfg.dt)

        class ConstantField:
            dt = spad.gate_len / m_steps
            var_a = 1.0

            def correlation_a(self, tau):
                return np.ones(np.shape(tau))

            def stationary_sample(self, n, rng):
                return np.zeros(n, dtype=complex), sim._circular_normal(n, rng)

            def innovation_gains(self, m_steps):
                return iter([(0.0, 0j)] * (m_steps - 1))

            def step_states(self, b, a, gains, rng):
                a[1:] = a[0]

            evolve_block = sim.FieldModel.evolve_block

        field_ = ConstantField()
        n_gates = 200_000
        duration = n_gates / spad.gate_rate
        _, det, dark = sim._draw_block(field_, 0, n_gates, m_steps, rate * field_.dt,
                                       spad, duration,
                                       np.random.Generator(np.random.Philox(2)))
        expected = rate * spad.duty_cycle * duration
        counted = int((~dark & (det == 0)).sum())
        assert abs(counted - expected) < 3 * math.sqrt(expected) + 3

    def test_dark_counts_are_poisson_per_gate(self, cfg):
        # an all-dark block at about 0.5 dark counts per gate and detector:
        # each detector's gates with 0, 1, 2 and 3+ counts match Poisson(mu)
        # within 4.5 standard errors, offsets are uniform within the gate
        # (ten bins, each within 4.5 standard errors) and no event lies at or
        # past t_end, which cuts the last gate in half
        c = replace(cfg, params=replace(cfg.params, p_in=0.0))
        spad = replace(c.spad, dark_rate=0.5 / c.spad.gate_len)
        model, m_steps = sim.FieldModel(c, c.dt), 22
        n = sim._CLICK_BLOCK_GATES
        starts = np.arange(n) / spad.gate_rate
        t_end = starts[-1] + 0.5 * spad.gate_len
        rng = np.random.Generator(np.random.Philox(8))
        times, det, dark = sim._draw_block(model, 0, n, m_steps, 0.0, spad, t_end, rng)
        assert np.all(dark) and np.all(times < t_end)
        gate = np.floor(times * spad.gate_rate).astype(np.intp)
        offset = (times - starts[gate]) / spad.gate_len
        assert np.all((offset >= 0.0) & (offset < 1.0))
        assert np.any(gate == n - 1) and offset[gate == n - 1].max() < 0.5
        whole = gate < n - 1
        mu = spad.dark_rate * spad.gate_len
        pmf = [math.exp(-mu) * mu ** k / math.factorial(k) for k in range(3)]
        expected = np.array(pmf + [1.0 - sum(pmf)])
        for d in range(2):
            counts = np.bincount(gate[(det == d) & whole], minlength=n - 1)
            seen = np.array([np.count_nonzero(counts == k) for k in range(3)]
                            + [np.count_nonzero(counts >= 3)]) / (n - 1)
            se = np.sqrt(expected * (1.0 - expected) / (n - 1))
            assert np.all(np.abs(seen - expected) <= 4.5 * se), (d, seen, expected)
        binned = np.bincount((offset[whole] * 10).astype(np.intp), minlength=10)
        share = binned / binned.sum()
        assert np.all(np.abs(share - 0.1) <= 4.5 * math.sqrt(0.09 / binned.sum()))

    def test_default_stream_calls_both_field_layers(self, monkeypatch):
        # the traced benchmark times FieldModel.stationary_sample and
        # step_states in its clicks pass and fails when either is never
        # called, so a default 1 s stream must call both.  Its one block of
        # 50 000 gates takes the size-biased route, so the benchmark measures
        # that route: about 220 candidates, drawn and stepped together
        # through the gate's 21 steps in one slab
        calls = collections.defaultdict(list)
        for owner, name in ((sim.FieldModel, "stationary_sample"),
                            (sim.FieldModel, "step_states"), (sim, "_biased_paths")):
            method = getattr(owner, name)

            def counted(first, second, *args, _name=name, _method=method):
                calls[_name].append(np.size(second) if np.ndim(second) else second)
                if _name == "step_states":
                    calls["slab_rows"].append(len(args[0]))
                return _method(first, second, *args)

            monkeypatch.setattr(owner, name, counted)
        sim.gated_click_stream(sim.SimConfig(), 1.0)
        (k,) = calls["_biased_paths"]
        assert 0 < k < 0.01 * 50_000
        assert calls["stationary_sample"] == [k]
        assert calls["step_states"] == [k] and calls["slab_rows"] == [22]

    @pytest.mark.parametrize("linewidth", ["bare", "effective"])
    def test_path_bound_is_the_path_maps_norms(self, cfg, linewidth, monkeypatch):
        # a gate's chance of a hit is at most nu = 2 hit_scale sum_j |a_j|^2,
        # and a block proposes each gate with nu's mean: 2 hit_scale times
        # the squared Frobenius norm of the map from a gate's normals to its
        # path, read off unit impulses as in test_click_path_law_is_exact
        c = replace(cfg, mech_linewidth=linewidth)
        model, m_steps, hit_scale = _stream_args(c, monkeypatch)
        n = 4 + 2 * (m_steps - 1)
        frobenius_sq = np.sum(np.abs(_gate_paths(model, m_steps, n, _ImpulseNormals(n))) ** 2)
        proposed = []

        class ProposalRng(_CountingRng):
            def binomial(self, n, q):
                proposed.append(q)
                return self.rng.binomial(n, q)

        rng = ProposalRng(np.random.Generator(np.random.Philox(1)))
        sim._draw_block(model, 0, 100, m_steps, hit_scale, c.spad, 1.0, rng)
        (q,) = proposed
        assert frobenius_sq > 0
        assert abs(q - 2 * hit_scale * frobenius_sq) <= 1e-12 * q

    @pytest.mark.parametrize("system", [{"nbar_th": 0.0}, {"p_in": 0.0}],
                             ids=["nbar_th0", "p_in0"])
    def test_fieldless_gates_are_never_stepped(self, cfg, system, monkeypatch):
        def never(*args):
            raise AssertionError("a gate was stepped")

        c = replace(cfg, params=replace(cfg.params, **system), seed=4)
        model, m_steps, hit_scale = _stream_args(c, monkeypatch)
        assert hit_scale == 0.0
        monkeypatch.setattr(sim.FieldModel, "step_states", never)
        # two detectors at 1 dark count/s expect 26 events in 13 s, so a
        # stream holds none with chance e^-26, about 5e-12
        clicks = sim.gated_click_stream(c, 13.0)
        assert clicks.n_events > 0 and np.all(clicks.is_dark)
        assert np.all(np.isfinite(clicks.times))

    def test_click_blocks_draw_apart_from_ensemble_chunks(self, cfg, monkeypatch):
        # block i of a click stream and chunk i of an ensemble once shared a
        # generator; now no block's starts like any chunk's, at 8 of each
        firsts = {"block": set(), "chunk": set(), "herald": set()}

        def block(model, first, n, m_steps, hit_scale, spad, t_end, rng):
            firsts["block"].add(tuple(rng.bit_generator.random_raw(4)))
            empty = np.empty(0)
            return empty, empty.astype(np.int8), empty.astype(bool)

        def chunk(plan, n, rng):
            firsts["chunk"].add(tuple(rng.bit_generator.random_raw(4)))
            return np.zeros((n, plan.cols.size), complex), np.ones(n, complex)

        def condition(z, a0, order, var_a, gains, rng):
            firsts["herald"].add(tuple(rng.bit_generator.random_raw(4)))

        monkeypatch.setattr(sim, "_draw_block", block)
        monkeypatch.setattr(sim, "_simulate_chunk", chunk)
        monkeypatch.setattr(sim, "_condition", condition)
        for seed in (5, 4242):
            c = replace(cfg, seed=seed, chunk_traces=1)
            sim.gated_click_stream(c, 8 * sim._CLICK_BLOCK_GATES / c.spad.gate_rate)
            for kind in sim.HERALD_KINDS:
                sim.run_ensemble(c, kind, n_traces=8)
        # each order's herald draws, node (i, order), start like no other stream
        assert len(firsts["block"]) == len(firsts["chunk"]) == 16
        assert len(firsts["herald"]) == 32
        assert not (firsts["block"] & firsts["chunk"] or firsts["herald"]
                    & (firsts["block"] | firsts["chunk"]))

    def test_block_streams_are_made_one_at_a_time(self, cfg, monkeypatch):
        # block i still draws from node (_CLICK_SEED_BRANCH, i), as spawn gives
        for seed in (0, 101, 4242, 20210):
            _assert_node_equals_spawned(seed, (sim._CLICK_SEED_BRANCH,), 3)
        duration = (sim._CLICK_BLOCK_GATES + 10) / cfg.spad.gate_rate   # two blocks
        ref = sim.gated_click_stream(cfg, duration)
        monkeypatch.setattr(np.random, "SeedSequence", _NoSpawn)
        clicks = sim.gated_click_stream(cfg, duration)
        assert ref.n_events > 0
        for name in ("times", "detector", "is_dark"):
            assert np.array_equal(getattr(clicks, name), getattr(ref, name))


def _dead_time_streams():
    """(times, dead_time) pairs: no event, one, two at one time, and sorted
    streams of gaps in quarters of a dyadic dead time, where repeated times
    (0), dense bursts (1 and 2) and gaps of exactly the dead time (4) are
    exact, and of exponential gaps at 1e-3, 1 and 3 dead times, each also
    at dead time 0."""
    rng = np.random.Generator(np.random.Philox(34))
    dead = 2.0 ** -14
    streams = [np.empty(0), np.array([0.5]), np.array([0.5, 0.5])]
    for _ in range(100):
        n = int(rng.integers(2, 300))
        streams.append(np.cumsum(rng.choice([0, 1, 2, 4, 5, 8, 16], n)) * (dead / 4))
        scale = rng.choice([1e-3, 1.0, 3.0]) * dead
        streams.append(np.cumsum(rng.exponential(scale, n)))
    return [(t, d) for t in streams for d in (dead, 0.0)]


class TestDeadTime:
    def test_dead_time_equals_the_greedy_loop(self):
        kept = dropped = 0
        for times, dead in _dead_time_streams():
            keep = sim._apply_dead_time(times, dead)
            assert keep.dtype == bool
            assert np.array_equal(keep, dead_time_greedy(times, dead))
            kept += np.count_nonzero(keep[1:] & (np.diff(times) == dead))
            dropped += np.count_nonzero(~keep)
        # the streams hold kept gaps of exactly the dead time and dropped events
        assert kept > 100 and dropped > 1000


class TestHeraldSelect:
    def test_coincidences_equal_the_set_intersection(self):
        # sorted random streams against np.intersect1d of each detector's
        # gates: no events, one detector empty and repeated same-gate hits
        # (up to 60 events over 40 gates)
        rng = np.random.Generator(np.random.Philox(35))
        gate_rate, gate_len = 5e4, 3.5e-9
        sizes = collections.Counter()
        for trial in range(300):
            n = int(rng.integers(0, 60))
            times = np.sort(rng.integers(0, 40, n) + rng.random(n) * 0.5) / gate_rate
            det = rng.integers(0, 2, n, dtype=np.int8) if trial % 3 else \
                np.full(n, trial % 2, dtype=np.int8)
            clicks = sim.ClickStream(times, det, np.zeros(n, dtype=bool), 1e-3,
                                     gate_rate, gate_len)
            gates = np.floor(times * gate_rate).astype(np.int64)
            both = np.intersect1d(gates[det == 0], gates[det == 1])
            expected = both / gate_rate + 0.5 * gate_len
            heralds = sim.herald_select(clicks, "coincidence")
            assert heralds.dtype == expected.dtype
            assert np.array_equal(heralds, expected)
            sizes[min(n, 1), min(both.size, 1)] += 1
        assert sizes[0, 0] > 0 and sizes[1, 0] > 50 and sizes[1, 1] > 100

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

    @pytest.mark.parametrize("times", [[1.1, 3.1, 3.2, 1.2], [1.1, math.nan, 3.2, 4.2]])
    def test_times_out_of_order_are_refused(self, times):
        # herald_select's merge reads each detector's gates in time order: this
        # stream has coincidences in gates 1 and 3, which the merge would miss
        with pytest.raises(ConfigError, match="time order"):
            sim.ClickStream(np.array(times) / 5e4, np.array([0, 0, 1, 1], dtype=np.int8),
                            np.zeros(4, dtype=bool), 1e-3, 5e4, 3.5e-9)

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
        (("z",), ()),                        # fewer traces than the sidecar says
        (("z", "weights"), ()),              # z and weights agree, the sidecar not
        ((), ("z",)),
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

    @pytest.mark.parametrize("reshape", [
        lambda z: z.real.copy(),             # the right shape, but real
        lambda z: z.ravel(),
        lambda z: z[..., None],
    ], ids=["real", "1d", "3d"])
    def test_z_must_be_a_complex_matrix(self, cfg, tmp_path, reshape):
        base = _saved(cfg, tmp_path)
        with np.load(tmp_path / "ens.npz") as data:
            arrays = dict(data)
        arrays["z"] = reshape(arrays["z"])
        np.savez(tmp_path / "ens.npz", **arrays)
        with pytest.raises(ConfigError, match="complex"):
            sim.load_ensemble(base)

    def test_v1_sidecar_refused(self, cfg, tmp_path):
        # the split z_real/z_imag layout has no reader
        base = _saved(cfg, tmp_path)
        with np.load(tmp_path / "ens.npz") as data:
            z, taus, weights = data["z"], data["taus"], data["weights"]
        np.savez(tmp_path / "ens.npz", z_real=z.real, z_imag=z.imag, taus=taus,
                 weights=weights)
        _reject_sidecar(base, lambda doc: doc.update(schema="phonon-forge/ensemble-v1"))

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
        # every record is in heterodyne units, so a sidecar naming others is refused
        ("units", "zero_point"),
        ("meta", _MISSING), ("meta", {}), ("meta", []), ("n_traces", _MISSING)],
        ids=str)
    def test_sidecar_units_and_meta_checked(self, cfg, tmp_path, key, value):
        _reject_sidecar(_saved(cfg, tmp_path), lambda doc: _set(doc, key, value))

    @pytest.mark.parametrize("value", [_MISSING, "x", True, None, float("nan"),
                                       float("inf"), -1.0], ids=str)
    @pytest.mark.parametrize("name", ["eta_total", "predicted_ratio",
                                      "sigma_inf_expected", "slow_rate"])
    def test_sidecar_meta_entries_checked(self, cfg, tmp_path, name, value):
        _reject_sidecar(_saved(cfg, tmp_path), lambda doc: _set(doc["meta"], name, value))

    # each case plants values no ensemble holds; a slab of one row makes the
    # check of z walk every row
    @pytest.mark.parametrize("name,index,value,slab_bytes,match", [
        ("z", (3, 5), complex(math.nan, 0.0), None, "finite"),
        ("z", (9, -1), complex(0.0, math.inf), 1, "finite"),
        ("z", (0, 0), complex(-math.inf, math.nan), 1, "finite"),
        ("taus", (0,), math.nan, None, "finite"),
        ("weights", (2,), -1.0, None, "weights must be all 1"),
        ("weights", (4,), math.nan, None, "weights must be all 1"),
        ("weights", (0,), math.inf, None, "weights must be all 1"),
        ("weights", slice(None), 0.0, None, "weights must be all 1"),
    ], ids=["z-nan", "z-inf-last-slab", "z-first", "taus-nan", "weight-negative",
            "weight-nan", "weight-inf", "weights-zero"])
    def test_values_checked(self, cfg, tmp_path, monkeypatch, name, index, value,
                            slab_bytes, match):
        base = _saved(cfg, tmp_path)
        with np.load(tmp_path / "ens.npz") as data:
            arrays = dict(data)
        arrays[name][index] = value
        np.savez(tmp_path / "ens.npz", **arrays)
        if slab_bytes is not None:
            monkeypatch.setattr(sim, "_SLAB_BYTES", slab_bytes)
        with pytest.raises(ConfigError, match=match):
            sim.load_ensemble(base)

    # a file whose records carry other weights, as the size-biased |a0|^(2n) of
    # an ensemble weighted rather than conditioned, is refused, not read weighted
    @pytest.mark.parametrize("weigh", [
        lambda z, col: np.where(np.arange(len(z)) == 3, 2.0, 1.0),
        lambda z, col: np.abs(z[:, col]) ** 2,
    ], ids=["one-weight-two", "positive-weights"])
    def test_weighted_file_refused(self, cfg, tmp_path, weigh):
        base = _saved(cfg, tmp_path)
        # as run_ensemble wrote it, the file round-trips
        loaded = sim.load_ensemble(base)
        assert np.array_equal(loaded.weights, np.ones(10))
        with np.load(tmp_path / "ens.npz") as data:
            arrays = dict(data)
        arrays["weights"] = weigh(arrays["z"], loaded.herald_col)
        assert (arrays["weights"] > 0).all() and (arrays["weights"] != 1).any()
        np.savez(tmp_path / "ens.npz", **arrays)
        with pytest.raises(ConfigError, match="weights"):
            sim.load_ensemble(base)

    @pytest.mark.parametrize("suffix,damage", [
        (".json", lambda path: path.write_text("[]")),
        (".json", lambda path: path.write_text("{not json")),
        (".json", lambda path: path.unlink()),
        (".npz", lambda path: path.write_bytes(path.read_bytes()[:100])),
        (".npz", lambda path: path.unlink()),
        (".npz", lambda path: _resave(path, "weights")),
    ], ids=["sidecar-list", "sidecar-not-json", "no-sidecar", "npz-truncated",
            "no-npz", "npz-without-weights"])
    def test_unreadable_parts_rejected(self, cfg, tmp_path, suffix, damage):
        base = _saved(cfg, tmp_path)
        damage(base.with_name(base.name + suffix))
        # the refusal names the damaged part
        with pytest.raises(ConfigError, match=re.escape("ens" + suffix)):
            sim.load_ensemble(base)

    def test_meta_json_cannot_hold_is_refused_before_any_write(self, cfg, tmp_path):
        # an array was once saved as its str(), '[1. 2.]', and loaded back so
        ens = sim.run_ensemble(cfg, herald_kind="single", n_traces=10)
        ens.meta["extra"] = np.array([1.0, 2.0])
        with pytest.raises(ConfigError, match=re.escape(str(tmp_path / "ens.json"))):
            sim.save_ensemble(ens, tmp_path / "ens")
        assert not any(tmp_path.iterdir())

    def test_numpy_scalars_in_meta_load_back_as_numbers(self, cfg, tmp_path):
        ens = sim.run_ensemble(cfg, herald_kind="single", n_traces=10)
        plain = dict(ens.meta)
        ens.meta.update(seed=np.int64(ens.meta["seed"]),
                        eta_total=np.float64(ens.meta["eta_total"]))
        sim.save_ensemble(ens, tmp_path / "ens")
        assert sim.load_ensemble(tmp_path / "ens").meta == plain

    def test_unheralded_sidecar_loads(self, cfg, tmp_path):
        ens = sim.load_ensemble(_saved(cfg, tmp_path, "none"))
        assert ens.units == UNITS_HETERODYNE and ens.meta["predicted_ratio"] == 1.0


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


def _resave(path, drop):
    """Save the .npz at path again without its array drop."""
    with np.load(path) as data:
        arrays = {k: data[k] for k in data.files if k != drop}
    np.savez(path, **arrays)


def _reject_sidecar(base, edit):
    """load_ensemble refuses the saved ensemble once edit has changed its sidecar."""
    path = base.with_name(base.name + ".json")
    doc = json.loads(path.read_text())
    edit(doc)
    path.write_text(json.dumps(doc))
    with pytest.raises(ConfigError):
        sim.load_ensemble(base)
