"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with `pytest tests/test_acceptance.py -v -s` to see the lines as they
appear.  Criterion 6 carries a known analytic caveat: the sqrt(2) lift from
the marginal maxima to the 2D ridge radius is an asymptotic statement, and at
eta*nbar = 4.1 the exact single-subtraction ridge sits ~21% outside it (the
two-subtraction ridge happens to agree within a default grid cell).  The
first clause of that criterion therefore fails for a faithful implementation.
The exact ridge used for comparison is derived independently in conftest via
a Fock-space expansion and reproduced by the closed-form grid, which matches
the number-distribution Q-function oracle to 1e-12 of its peak, so the
mismatch is a property of the stated target, not of the grids.  Criterion 5
checks the grid's marginal against the hand-written n <= 2 forms in
tests/oracles.py, not against the package's own series.
"""

import math
from dataclasses import replace

import numpy as np
import pytest

from phonon_forge import budget as bud
from phonon_forge import dynamics as dyn
from phonon_forge import phase_space as ps
from phonon_forge import phonon_stats as stats
from phonon_forge import simulator as sim
from phonon_forge.params import TWO_PI, default_params, default_spad

from conftest import exact_smoothed_ring_radius
from oracles import closed_form_marginal, fock_oracle, marginal_to_heterodyne, \
    wick_oracle

THREADS = 2


def _report(num, ok, detail):
    print(f"\nACCEPTANCE {num}: {'PASS' if ok else 'FAIL'} ({detail})")
    return ok


def test_criterion_01_s_parameter():
    s = ps.s_from_eta(0.0091)
    ok = abs(s - (-218.78)) < 0.5 and abs(s - (-219.0)) < 0.5
    assert _report(1, ok, f"s(0.0091) = {s:.4f}, quoted -219")


def test_criterion_02_occupation_transforms():
    spec = stats.ThermalSpec(453.0)
    exact = (stats.mean_occupation(spec, 1) == 906.0
             and stats.mean_occupation(spec, 2) == 1359.0)
    m1 = fock_oracle(spec, 1).mean()
    m2 = fock_oracle(spec, 2).mean()
    oracle_ok = (abs(m1 - 906.0) / 906.0 < 1e-6
                 and abs(m2 - 1359.0) / 1359.0 < 1e-6)
    assert _report(2, exact and oracle_ok,
                   f"mean 453 -> {m1:.6f}, {m2:.6f} (oracle)")


def test_criterion_03_steady_state_variance():
    params = default_params()
    analytic = dyn.steady_state_variance(params)
    assert abs(analytic - 7.9706) < 1e-9
    cfg = sim.SimConfig(trace_len=2048, seed=2024, chunk_traces=1024)
    ens = sim.run_ensemble(cfg, herald_kind="none", n_traces=10_000,
                           threads=THREADS)
    curve = sim.ensemble_variance(ens)
    m = ens.margin_cols
    mc = float(curve.values[m:-m].mean())
    ok = abs(mc - analytic) <= 0.15
    assert _report(3, ok, f"analytic {analytic:.4f} (measured 7.96), "
                          f"Monte Carlo {mc:.4f} within +-0.15")


@pytest.mark.slow
def test_criterion_04_variance_doubling_tripling():
    params = default_params()
    sig_inf = dyn.steady_state_variance(params)
    exact_ok = True
    for n in (1, 2):
        r = (dyn.heralded_variance(params, n)(0.0) - 1.0) / (sig_inf - 1.0)
        exact_ok &= abs(r - (1 + n)) < 1e-12

    cfg = sim.SimConfig(trace_len=3125, seed=40926, chunk_traces=1024)
    ens1 = sim.run_ensemble(cfg, herald_kind="single", n_traces=50_000,
                            threads=THREADS)
    rep1 = sim.variance_ratio_report(ens1)
    ens2 = sim.run_ensemble(cfg, herald_kind="coincidence", n_traces=50_000,
                            threads=THREADS)
    rep2 = sim.variance_ratio_report(ens2)
    r1, r2 = rep1["peak_ratio"], rep2["peak_ratio"]
    mc_ok = abs(r1 - 2.0) <= 0.1 and abs(r2 - 3.0) <= 0.2
    # documented, not asserted: with the default demodulation filter the
    # model's own expectation sits between the ideal 2/3 and the measured
    # 1.94/2.94
    note = (f"filter-adjusted expectations {rep1['predicted_ratio']:.4f}, "
            f"{rep2['predicted_ratio']:.4f}; measured references 1.94, 2.94")
    assert _report(4, exact_ok and mc_ok,
                   f"analytic exact; MC ratios {r1:.4f} (2 +- 0.1), "
                   f"{r2:.4f} (3 +- 0.2); {note}")


def test_criterion_05_convolution_vs_closed_form():
    worst = 0.0
    for s_target in (-1.0, -3.0, -219.0):
        eta = ps.eta_from_s(s_target)
        for eta_nbar in (0.5, 2.0, 4.1, 10.0):
            for n in (1, 2):
                spec = ps.StateSpec(nbar=eta_nbar / eta, n=n, eta=eta)
                grid = ps.wigner_s(spec, ps.GridConfig(npts=513))
                marg = marginal_to_heterodyne(ps.marginal_from_grid(grid), eta)
                closed = closed_form_marginal(spec)(marg.xs)
                l1 = float(np.trapezoid(np.abs(marg.density - closed),
                                        marg.xs))
                worst = max(worst, l1)
    ok = worst < 1e-3
    assert _report(5, ok, f"24 cases, worst L1 = {worst:.2e} < 1e-3")


def test_criterion_06_ring_geometry():
    eta = 0.0091
    cell_info = []
    ring_ok = True
    for n in (1, 2):
        spec = ps.StateSpec(nbar=4.1 / eta, n=n, eta=eta)
        # the thermal window, whose cell sets this criterion's tolerance
        half_width = 5.0 * math.sqrt(spec.nbar + (1.0 - ps.s_from_eta(eta)) / 2.0)
        grid = ps.wigner_s(spec, ps.GridConfig(npts=513, half_width=half_width))
        stated = ps.ring_radius(n, 4.1).wigner_radius / math.sqrt(eta)
        measured = grid.argmax_radius()
        within = abs(measured - stated) <= grid.cell
        ring_ok &= within
        exact = exact_smoothed_ring_radius(n, 4.1) / math.sqrt(eta)
        cell_info.append(
            f"n={n}: argmax {measured:.2f} vs sqrt(2)X{n} {stated:.2f} "
            f"(cell {grid.cell:.2f}, exact ridge {exact:.2f})"
            f" {'ok' if within else 'MISMATCH'}")

    # bifurcation of the marginal extremum structure at the two thresholds
    def central_peak(n, m):
        spec = ps.StateSpec(nbar=m, n=n, eta=1.0)
        f = ps.measured_marginal(spec)
        return float(f(0.0)) >= float(np.max(f(np.linspace(0.01, 6.0, 2000))))

    thr_ok = (central_peak(1, 2.0 * 0.98) and not central_peak(1, 2.0 * 1.02))
    thr2 = 2.0 * math.sqrt(6.0) - 4.0
    thr_ok &= (central_peak(2, thr2 * 0.98) and not central_peak(2, thr2 * 1.02))
    thr_ok &= (ps.ring_radius(1, 4.1).is_nongaussian
               and ps.ring_radius(2, 4.1).is_nongaussian)

    detail = ("thresholds 2 and 2*sqrt(6)-4 verified as bifurcations; "
              + "; ".join(cell_info))
    ok = ring_ok and thr_ok
    if not ok:
        detail += (" -- the sqrt(2) lift from marginal maxima to the ridge "
                   "radius is asymptotic in eta*nbar and does not hold to "
                   "one grid cell for n=1 at eta*nbar=4.1; the grid argmax "
                   "is confirmed by an independent Fock-space expansion")
    assert _report(6, ok, detail)


def test_criterion_07_wick_oracle():
    params = default_params()
    devs = []
    ok = True
    for n in (1, 2):
        for tau in (0.0, 1.0 / params.kappa2, 1.0 / params.gamma):
            ratio, se = wick_oracle(params, n, tau,
                                    n_samples=1_000_000, seed=77 + n)
            b = dyn.correlation_bracket(params.kappa2, params.gamma, tau)
            dev = abs(ratio - (1 + n * b * b))
            ok &= dev < 3 * se + 1e-9
            devs.append(dev / se if se > 0 else 0.0)
    assert _report(7, ok, "max deviation %.2f sigma at 1e6 samples"
                   % max(devs))


def test_criterion_08_characterization_chain():
    params = default_params()
    n_cav_power = params.intracavity_photons()
    chain = dyn.characterize(params, n_cav=1.2e9)
    g_mhz = chain.coupling / TWO_PI / 1e6
    ok = (abs(n_cav_power - 1.2e9) / 1.2e9 < 0.15
          and abs(g_mhz - 10.3) <= 0.2
          and abs(chain.cooperativity - 0.69) <= 0.02
          and abs(chain.nbar_cooled - 453.0) <= 2.0)
    g0_fit, _ = dyn.fit_g0_from_spectra(
        params, np.linspace(0.2, 1.0, 5) * 1.2e9)
    fit_ok = abs(g0_fit - params.g0) / params.g0 < 0.05
    assert _report(8, ok and fit_ok,
                   f"N_cav(power) = {n_cav_power:.3e}; from 1.2e9: "
                   f"G/2pi = {g_mhz:.3f} MHz, C = {chain.cooperativity:.4f}, "
                   f"nbar = {chain.nbar_cooled:.2f}; g0 fit error "
                   f"{abs(g0_fit - params.g0) / params.g0:.2%}")


def test_criterion_09_budget():
    report = bud.build_report(default_params(), default_spad())
    ok = (0.5e8 <= report.f_cav <= 5e8
          and 1e-3 <= report.n_det <= 1e-1
          and bud.herald_fidelity(260.0, 1.0) < 0.01
          and report.dark_fraction < 0.01)
    assert _report(9, ok, f"F_cav = {report.f_cav:.3e}, "
                          f"N_det = {report.n_det:.3e}, dark fraction "
                          f"{report.dark_fraction:.3%} (<1%), at table rates "
                          f"{bud.herald_fidelity(260.0, 1.0):.3%}")


def test_criterion_10_property_suite():
    rng = np.random.default_rng(20260808)
    cases = 0

    # pmf normalization, mean, shift identity, fidelity bound, variance match
    for _ in range(60):
        nbar = float(rng.uniform(0.01, 1000.0))
        n = int(rng.integers(0, 5))
        pmf = stats.subtracted_pmf(stats.ThermalSpec(nbar), n)
        assert abs(pmf.total_mass() - 1.0) < 1e-10
        cases += 1
    for _ in range(40):
        nbar = float(rng.uniform(0.01, 500.0))
        n = int(rng.integers(1, 5))
        spec = stats.ThermalSpec(nbar)
        sub = stats.subtracted_pmf(spec, n)
        add = stats.added_pmf(spec, n, m_max=sub.m_max + n)
        assert np.array_equal(add.probs[n:], sub.probs)
        assert abs(add.variance() - sub.variance()) <= 1e-8 * sub.variance()
        cases += 1
    for _ in range(40):
        nbar = float(rng.uniform(0.01, 500.0))
        n = int(rng.integers(1, 5))
        f = stats.add_sub_fidelity(stats.ThermalSpec(nbar), n)
        x = nbar / (1 + nbar)
        assert x ** (n / 2) < f < 1.0
        cases += 1

    # grid normalization and fourfold symmetry
    for _ in range(12):
        eta = float(rng.uniform(0.005, 1.0))
        nbar = float(rng.uniform(0.5, 20.0)) / eta
        n = int(rng.integers(0, 3))
        spec = ps.StateSpec(nbar=nbar, n=n, eta=eta)
        grid = ps.wigner_s(spec, ps.GridConfig(npts=129))
        assert abs(grid.total_mass() - 1.0) < 1e-3
        assert np.max(np.abs(grid.values - np.rot90(grid.values))) \
            < 1e-6 * grid.values.max()
        cases += 1

    # closed-form marginal normalization and evenness
    for _ in range(20):
        eta_nbar = float(rng.uniform(0.01, 30.0))
        n = int(rng.integers(0, 6))
        spec = ps.StateSpec(nbar=eta_nbar, n=n, eta=1.0)
        f = ps.measured_marginal(spec)
        sigma = math.sqrt(1.0 + (n + 1) * eta_nbar)
        xs = np.linspace(-8 * sigma, 8 * sigma, 4001)
        vals = f(xs)
        assert abs(np.trapezoid(vals, xs) - 1.0) < 1e-6
        assert np.max(np.abs(vals - vals[::-1])) < 1e-12 * vals.max()
        cases += 1

    # dead time on synthetic streams
    from phonon_forge.simulator import _apply_dead_time
    for _ in range(30):
        t = np.sort(rng.uniform(0, 1e-3, size=rng.integers(10, 300)))
        dead = float(rng.uniform(1e-7, 5e-5))
        kept = t[_apply_dead_time(t, dead)]
        if kept.size > 1:
            assert np.diff(kept).min() >= dead
        cases += 1

    # determinism of the stochastic pipelines
    cfg = sim.SimConfig(trace_len=1024, seed=9090, chunk_traces=128)
    e1 = sim.run_ensemble(cfg, herald_kind="single", n_traces=300, threads=1)
    e2 = sim.run_ensemble(cfg, herald_kind="single", n_traces=300, threads=2)
    assert np.array_equal(e1.z, e2.z) and np.array_equal(e1.weights, e2.weights)
    c1 = sim.gated_click_stream(replace(cfg, seed=4), 0.5)
    c2 = sim.gated_click_stream(replace(cfg, seed=4), 0.5)
    assert np.array_equal(c1.times, c2.times)
    assert np.array_equal(c1.detector, c2.detector)
    cases += 2

    assert _report(10, cases >= 200,
                   f"{cases} randomized invariant cases, all passed")
