"""Stochastic heterodyne experiment emulator.

The scattered optical mode is driven by the thermal mechanical mode through
the beam-splitter interaction; the pair forms a linear system

    db/dt = -r b + noise(nbar_th),      da/dt = -kappa a - iG b,

whose stationary two-time correlation <a*(0) a(tau)> reproduces the closed
forms in :mod:`phonon_forge.dynamics` exactly (r = gamma).  Integration uses
the exact one-step discretization x[k+1] = E x[k] + w with E = expm(M dt) and
noise covariance Q = Sigma - E Sigma E^dag, so there is no step-size bias at
any dt; heralded ensembles therefore step at the sample rate.  The measured
heterodyne voltage is

    v(t) = sqrt(2) g Re[a(t) e^(-i w_het t)] + vacuum noise,

with the vacuum term calibrated to unit demodulated quadrature variance and
the signal gain g calibrated so the unconditional demodulated variance equals
1 + eta nbar_th, mirroring how the lumped efficiency is defined against the
measured steady state.

Heralded ensembles use click-conditioned (Palm) statistics: conditioning on a
photon detection at t0 weights each realization by the instantaneous detected
intensity, |a(t0)|^2 for single heralds and |a(t0)|^4 for two-detector
coincidences within one gate.  This is statistically identical to triggering
on the rare thinned click process but needs no rejection sampling.  The
explicit gated click machinery (Poisson thinning, dark counts, dead time) is
exercised separately at realistic rates via per-gate field snapshots, valid
because gates are spaced by thousands of field correlation times.
"""

from __future__ import annotations

import json
import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace

import numpy as np
from scipy.ndimage import uniform_filter1d
from scipy.signal import butter, sosfiltfilt

from . import budget as budget_mod
from ._formats import write_csv, write_json
from .dynamics import VarianceCurve, correlation_amplitude, correlation_bracket, \
    cooperativity, effective_linewidth, steady_state_variance
from .errors import ConfigError, NumericsError
from .params import SpadConfig, SystemParams, TWO_PI, default_params, \
    default_spad, require_integer, require_positive
from .phase_space import PhaseSpaceGrid, UNITS_HETERODYNE, s_from_eta

HERALD_NONE = "none"
HERALD_SINGLE = "single"
HERALD_COINCIDENCE = "coincidence"
_HERALD_KINDS = (HERALD_NONE, HERALD_SINGLE, HERALD_COINCIDENCE)

_HERALD_ORDER = {HERALD_NONE: 0, HERALD_SINGLE: 1, HERALD_COINCIDENCE: 2}


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    params: SystemParams = field(default_factory=default_params)
    spad: SpadConfig = field(default_factory=default_spad)
    sample_rate: float = 3.125e9
    dt: float | None = None
    trace_len: int = 12500
    n_traces: int = 1000
    demod_bandwidth: float = 100e6
    demod_filter: str = "butter4"        # or "boxcar"
    decimate: int = 16
    mech_linewidth: str = "bare"         # or "effective"
    adiabatic: bool = False
    seed: int = 202104
    chunk_traces: int = 256

    def __post_init__(self):
        require_positive("sample_rate", self.sample_rate)
        require_positive("demod_bandwidth", self.demod_bandwidth)
        if self.dt is not None:
            require_positive("dt", self.dt)
        for name, minimum in (("trace_len", 256), ("n_traces", 1),
                              ("decimate", 1), ("chunk_traces", 1), ("seed", 0)):
            require_integer(name, getattr(self, name), minimum)
        if not isinstance(self.adiabatic, bool):
            raise ConfigError(f"adiabatic must be true or false, got {self.adiabatic!r}")
        if self.sample_rate < 4.0 * self.params.omega_het / TWO_PI:
            raise ConfigError("sample_rate below 4x the heterodyne frequency")
        dt_max = 1.0 / (20.0 * self.params.kappa2)
        if self.dt is None:
            k = max(1, math.ceil(1.0 / (self.sample_rate * dt_max)))
            object.__setattr__(self, "dt", 1.0 / (k * self.sample_rate))
        ratio = 1.0 / (self.dt * self.sample_rate)
        if abs(ratio - round(ratio)) > 1e-9:
            raise ConfigError("1/dt must be an integer multiple of sample_rate")
        if self.dt > dt_max * (1 + 1e-12):
            raise ConfigError(
                f"dt={self.dt:.3e} too coarse; need dt <= 1/(20 kappa2) = {dt_max:.3e}")
        if not 0 < self.demod_bandwidth < self.params.omega_het / TWO_PI:
            raise ConfigError("demod_bandwidth must be positive and below "
                              "the heterodyne frequency")
        if self.demod_filter not in ("butter4", "boxcar"):
            raise ConfigError("demod_filter must be 'butter4' or 'boxcar'")
        if self.mech_linewidth not in ("bare", "effective"):
            raise ConfigError("mech_linewidth must be 'bare' or 'effective'")

    @property
    def oversample(self):
        return int(round(1.0 / (self.dt * self.sample_rate)))

    def with_updates(self, **kwargs):
        return replace(self, **kwargs)


# ---------------------------------------------------------------------------
# exact linear field model
# ---------------------------------------------------------------------------

class FieldModel:
    """Exact one-step propagator of the driven (mechanics, optics) pair."""

    def __init__(self, cfg: SimConfig, dt=None):
        p = cfg.params
        self.kappa = p.kappa2
        self.coupling = p.pump_enhanced_coupling()
        self.nbar_th = p.nbar_th
        self.dt = cfg.dt if dt is None else float(dt)
        self.adiabatic = cfg.adiabatic
        self.rate = p.gamma if cfg.mech_linewidth == "bare" \
            else effective_linewidth(p, cooperativity(p, self.coupling))

        r, k, g, dt = self.rate, self.kappa, self.coupling, self.dt
        if self.adiabatic:
            self.e_b = math.exp(-r * dt)
            self.q_b = self.nbar_th * (1.0 - self.e_b ** 2)
            self.a_of_b = -1j * g / k
            self.var_a = abs(self.a_of_b) ** 2 * self.nbar_th
        else:
            e_bb = math.exp(-r * dt)
            e_aa = math.exp(-k * dt)
            if abs(k - r) / max(k, r) < 1e-9:
                e_ab = -1j * g * dt * e_aa
            else:
                e_ab = -1j * g * (e_bb - e_aa) / (k - r)
            self.E = np.array([[e_bb, 0.0], [e_ab, e_aa]], dtype=complex)
            sig_ba = 1j * g * self.nbar_th / (k + r)
            sig_aa = correlation_amplitude(p, g, r)
            self.Sigma = np.array([[self.nbar_th, sig_ba],
                                   [np.conj(sig_ba), sig_aa]], dtype=complex)
            q = self.Sigma - self.E @ self.Sigma @ self.E.conj().T
            self.L_q = _chol_psd(q)
            self.L_s = _chol_psd(self.Sigma)
            self.var_a = sig_aa

    def step_states(self, b, a, rng):
        """Advance bare state vectors by one exact step of self.dt."""
        z = _circular_normal((2, b.size), rng)
        if self.adiabatic:
            b_new = self.e_b * b + math.sqrt(self.q_b) * z[0]
            return b_new, self.a_of_b * b_new
        wb = self.L_q[0, 0] * z[0] + self.L_q[0, 1] * z[1]
        wa = self.L_q[1, 0] * z[0] + self.L_q[1, 1] * z[1]
        a_new = self.E[1, 1] * a + self.E[1, 0] * b + wa
        b_new = self.E[0, 0] * b + wb
        return b_new, a_new

    def correlation_a(self, tau):
        """Analytic <a*(0) a(tau)> of this model (real valued)."""
        tau = np.asarray(tau, dtype=float)
        if self.adiabatic:
            return self.var_a * np.exp(-self.rate * np.abs(tau))
        return self.var_a * correlation_bracket(self.kappa, self.rate, tau)

    def stationary_sample(self, n, rng):
        """Draw n joint stationary (b, a) pairs."""
        z = _circular_normal((2, n), rng)
        if self.adiabatic:
            b = math.sqrt(self.nbar_th) * z[0]
            return b, self.a_of_b * b
        x = self.L_s @ z
        return x[0], x[1]

    def evolve_block(self, b0, a0, n_steps, rng):
        """Exact trajectories of shape (n_traces, n_steps); index 0 holds t=0."""
        n = b0.size
        if self.adiabatic:
            w = math.sqrt(self.q_b) * _circular_normal((n, n_steps), rng)
            w[:, 0] = b0
            b = _ar1(self.e_b, w)
            return b, self.a_of_b * b
        z1 = _circular_normal((n, n_steps), rng)
        z2 = _circular_normal((n, n_steps), rng)
        l_step = self.L_q
        wb = l_step[0, 0] * z1 + l_step[0, 1] * z2
        wa = l_step[1, 0] * z1 + l_step[1, 1] * z2
        del z1, z2
        wb[:, 0] = b0
        wa[:, 0] = a0
        b = _ar1(self.E[0, 0], wb)
        del wb
        # drive for a: coupling acts on the previous b sample
        wa[:, 1:] += self.E[1, 0] * b[:, :-1]
        a = _ar1(self.E[1, 1], wa)
        del wa
        return b, a


def _ar1(pole, drive):
    """x[t] = pole * x[t-1] + drive[t] along the last axis, x[-1] = 0."""
    from scipy.signal import lfilter
    return lfilter([1.0], [1.0, -pole], drive, axis=-1)


def _chol_psd(mat):
    """Factor L with L L^dag = mat for Hermitian PSD mat, singular allowed."""
    try:
        return np.linalg.cholesky(mat)
    except np.linalg.LinAlgError:
        vals, vecs = np.linalg.eigh(mat)
        return vecs @ np.diag(np.sqrt(np.clip(vals, 0.0, None)))


def _circular_normal(shape, rng):
    """Complex normals with <z z*> = 1, <z z> = 0."""
    return ((rng.standard_normal(shape) + 1j * rng.standard_normal(shape))
            / math.sqrt(2.0))


def simulate_fields(cfg: SimConfig, n_steps, n_traces=1, seed=None):
    """Stationary scattered-field trajectories sampled every cfg.dt.

    Returns a complex array of shape (n_traces, n_steps).
    """
    model = FieldModel(cfg)
    rng = np.random.Generator(np.random.Philox(cfg.seed if seed is None else seed))
    b0, a0 = model.stationary_sample(n_traces, rng)
    return model.evolve_block(b0, a0, n_steps, rng)[1]


# ---------------------------------------------------------------------------
# demodulation plan (filters and calibration)
# ---------------------------------------------------------------------------

class DemodPlan:
    """Filter design plus the vacuum and signal calibration constants."""

    def __init__(self, cfg: SimConfig, model: FieldModel | None = None):
        self.cfg = cfg
        model = model or FieldModel(cfg)
        self.model = model
        fs = cfg.sample_rate
        self.dt_s = 1.0 / fs
        self.n_samp = cfg.trace_len
        self.center = cfg.trace_len // 2
        self.offset = self.center % cfg.decimate
        self.cols = np.arange(self.offset, cfg.trace_len, cfg.decimate)
        self.herald_col = int(np.nonzero(self.cols == self.center)[0][0])

        if cfg.demod_filter == "butter4":
            self.sos = butter(4, cfg.demod_bandwidth, fs=fs, output="sos")
            self.box_len = None
        else:
            self.sos = None
            self.box_len = max(1, int(round(fs / (2.0 * cfg.demod_bandwidth))))

        # effective zero-phase impulse response, used for all calibrations
        n_imp = 8192
        imp = np.zeros(n_imp)
        imp[n_imp // 2] = 1.0
        h = self._filter(imp)
        support = np.nonzero(np.abs(h) > 1e-10 * np.abs(h).max())[0]
        lo, hi = support[0], support[-1] + 1
        self.h = h[lo:hi]
        self.h_center = n_imp // 2 - lo
        self.noise_gain = float(np.sum(self.h ** 2))
        self.sigma_vac = 1.0 / math.sqrt(self.noise_gain)
        # edge transients only matter where the response carries real weight
        core = np.nonzero(np.abs(h) > 1e-4 * np.abs(h).max())[0]
        self._core_half_width = max(core[-1] - n_imp // 2, n_imp // 2 - core[0])

        lags = np.arange(-(self.h.size - 1), self.h.size)
        r_h = np.correlate(self.h, self.h, mode="full")
        c_a = model.correlation_a(lags * self.dt_s)
        self.var_a_filtered = float(np.sum(r_h * c_a))
        offsets = (np.arange(self.h.size) - self.h_center) * self.dt_s
        self.cross_a_filtered = float(np.sum(self.h * model.correlation_a(offsets)))

        if self.var_a_filtered > 0:
            eta_nbar_th = cfg.params.eta_total * cfg.params.nbar_th
            self.gain = math.sqrt(2.0 * eta_nbar_th / self.var_a_filtered)
        else:
            self.gain = 0.0          # no scattered signal, pure vacuum record
        self.sigma_inf = steady_state_variance(cfg.params)
        # margin wide enough for filter transients at both trace edges
        margin_time = (3 * self._core_half_width + 16) * self.dt_s
        self.margin_cols = int(math.ceil(margin_time / (self.dt_s * cfg.decimate)))

    def _filter(self, arr):
        if self.sos is not None:
            return sosfiltfilt(self.sos, arr, axis=-1)
        return uniform_filter1d(arr, size=self.box_len, axis=-1, mode="constant")

    def predicted_ratio(self, order):
        """Conditional variance enhancement after demodulation filtering.

        The ideal herald-time factor 1 + n degrades to 1 + n rho^2 where rho
        is the correlation between the instantaneous detected amplitude and
        its filtered copy; this reproduces the small theory/experiment gap
        attributed to post-processing filtering.
        """
        denom = self.model.var_a * self.var_a_filtered
        if denom <= 0:
            return 1.0
        return 1.0 + order * self.cross_a_filtered ** 2 / denom

    def mix_phases(self):
        t = np.arange(self.n_samp) * self.dt_s
        theta = self.cfg.params.omega_het * t
        return np.cos(theta), np.sin(theta)

    def voltage_from_field(self, a_sampled, rng):
        """sqrt(2) g Re[a e^(-i w t)] plus calibrated vacuum noise."""
        cos_t, sin_t = self.mix_phases()
        v = math.sqrt(2.0) * self.gain * (a_sampled.real * cos_t
                                          + a_sampled.imag * sin_t)
        v += self.sigma_vac * rng.standard_normal(v.shape)
        return v

    def demodulate(self, v):
        """Complex quadrature record z = X + iP, decimated."""
        cos_t, sin_t = self.mix_phases()
        mixed = v * (cos_t + 1j * sin_t)
        zf = math.sqrt(2.0) * (self._filter(mixed.real)
                               + 1j * self._filter(mixed.imag))
        return zf[..., self.cols]


def heterodyne_trace(a_sampled, cfg: SimConfig, seed=0):
    """Voltage-like record of a field trajectory given at the sample rate."""
    plan = DemodPlan(cfg)
    rng = np.random.Generator(np.random.Philox(seed))
    return plan.voltage_from_field(np.asarray(a_sampled), rng)


def demodulate(trace, cfg: SimConfig):
    """Extract (X(t), P(t), t) from a voltage record by IQ demodulation."""
    plan = DemodPlan(cfg)
    z = plan.demodulate(np.asarray(trace, dtype=float))
    t = plan.cols * plan.dt_s
    return z.real, z.imag, t


# ---------------------------------------------------------------------------
# herald-aligned ensembles
# ---------------------------------------------------------------------------

@dataclass
class TraceEnsemble:
    """Herald-aligned demodulated quadrature records.

    z[i, j] = X + iP of trace i at taus[j] relative to the herald; weights
    carry the click-conditioning (uniform for an unheralded ensemble).
    """

    z: np.ndarray
    taus: np.ndarray
    herald_col: int
    weights: np.ndarray
    herald_kind: str
    margin_cols: int
    units: str = UNITS_HETERODYNE
    meta: dict = field(default_factory=dict)

    @property
    def n_traces(self):
        return self.z.shape[0]

    @property
    def order(self):
        return _HERALD_ORDER[self.herald_kind]

    def effective_samples(self):
        w = self.weights
        return float(w.sum() ** 2 / np.sum(w ** 2))


def run_ensemble(cfg: SimConfig, herald_kind=HERALD_SINGLE, n_traces=None,
                 threads=None) -> TraceEnsemble:
    """Simulate an ensemble of herald-aligned traces.

    Work is split into fixed chunks, each with its own counter-based random
    stream and run on a pool of max(1, threads) workers, so results are
    bit-identical for a given (cfg, seed) regardless of the thread count.
    """
    if herald_kind not in _HERALD_KINDS:
        raise ConfigError(f"herald_kind must be one of {_HERALD_KINDS}")
    n_traces = cfg.n_traces if n_traces is None else n_traces
    require_integer("n_traces", n_traces, 1)

    # the propagator is exact at any step, so step at the sample rate
    model = FieldModel(cfg, dt=1.0 / cfg.sample_rate)
    plan = DemodPlan(cfg, model)
    order = _HERALD_ORDER[herald_kind]

    n_chunks = (n_traces + cfg.chunk_traces - 1) // cfg.chunk_traces
    seeds = np.random.SeedSequence(cfg.seed).spawn(n_chunks)
    n_out = plan.cols.size
    z = np.empty((n_traces, n_out), dtype=complex)
    weights = np.empty(n_traces)

    def work(ci):
        lo = ci * cfg.chunk_traces
        hi = min(lo + cfg.chunk_traces, n_traces)
        rng = np.random.Generator(np.random.Philox(seeds[ci]))
        zc, wc = _simulate_chunk(cfg, model, plan, hi - lo, order, rng)
        z[lo:hi] = zc
        weights[lo:hi] = wc

    with ThreadPoolExecutor(max_workers=max(1, threads or 1)) as pool:
        list(pool.map(work, range(n_chunks)))

    taus = (plan.cols - plan.center) * plan.dt_s
    meta = {
        "schema": ENSEMBLE_SCHEMA,
        "seed": cfg.seed,
        "herald_kind": herald_kind,
        "sample_rate": cfg.sample_rate,
        "decimate": cfg.decimate,
        "eta_total": cfg.params.eta_total,
        "nbar_th": cfg.params.nbar_th,
        "sigma_inf_expected": plan.sigma_inf,
        "predicted_ratio": plan.predicted_ratio(order) if order else 1.0,
        "mech_linewidth": cfg.mech_linewidth,
        "adiabatic": cfg.adiabatic,
        "slow_rate": model.rate,
    }
    return TraceEnsemble(z=z, taus=taus, herald_col=plan.herald_col,
                         weights=weights, herald_kind=herald_kind,
                         margin_cols=plan.margin_cols, meta=meta)


def _simulate_chunk(cfg, model, plan, n, order, rng):
    b0, a0 = model.stationary_sample(n, rng)
    _, a = model.evolve_block(b0, a0, cfg.trace_len, rng)
    a_center = a[:, plan.center].copy()
    v = plan.voltage_from_field(a, rng)
    del a
    zc = plan.demodulate(v)
    if order:
        wc = np.abs(a_center) ** (2 * order)
    else:
        wc = np.ones(n)
    return zc, wc


def ensemble_variance(ens: TraceEnsemble) -> VarianceCurve:
    """Pooled X/P sample variance versus herald-relative time."""
    if ens.n_traces < 2:
        raise ConfigError("need at least 2 traces for a variance estimate")
    w = ens.weights
    wsum = w.sum()
    if wsum <= 0:
        raise ConfigError("ensemble weights sum to zero (no herald signal)")
    # einsum without optimize never calls BLAS, whose reduction order
    # depends on its thread count; these sums are the same on any host
    mean = np.einsum("i,ij->j", w, ens.z) / wsum
    dev = ens.z - mean
    var = np.einsum("i,ij->j", w, dev.real ** 2 + dev.imag ** 2) / (2.0 * wsum)
    return VarianceCurve(ens.taus.copy(), var, order=ens.order)


def variance_ratio_report(ens: TraceEnsemble) -> dict:
    """Herald-time enhancement relative to the ensemble's own wings.

    Wings are the usable columns beyond 0.6 of the usable half-span from the
    herald and beyond three relaxation times of it, so the denominator is
    genuinely the steady state; shorter traces are refused.
    """
    curve = ensemble_variance(ens)
    m = ens.margin_cols
    usable = np.zeros(curve.taus.size, dtype=bool)
    usable[m:curve.taus.size - m] = True
    usable_max = np.abs(curve.taus[usable]).max() if usable.any() else 0.0
    slow_rate = ens.meta.get("slow_rate")
    tau_wing = 0.6 * usable_max
    if slow_rate:
        tau_wing = max(tau_wing, 3.0 / slow_rate)
    wings = usable & (np.abs(curve.taus) >= tau_wing)
    if wings.sum() < 4:
        raise NumericsError("trace too short to estimate the steady-state wings")
    sigma_inf = float(curve.values[wings].mean())
    sigma_peak = float(curve.values[ens.herald_col])
    report = {
        "sigma_sq_peak": sigma_peak,
        "sigma_sq_inf": sigma_inf,
        "peak_ratio": (sigma_peak - 1.0) / (sigma_inf - 1.0),
        "ideal_ratio": 1.0 + ens.order,
        "predicted_ratio": ens.meta.get("predicted_ratio"),
        "sigma_sq_inf_expected": ens.meta.get("sigma_inf_expected"),
        "effective_samples": ens.effective_samples(),
    }
    return report


def herald_histogram(ens: TraceEnsemble, npts=41, half_width=None) -> PhaseSpaceGrid:
    """Weighted 2D histogram of (X, P) at the herald time, as a density grid."""
    z0 = ens.z[:, ens.herald_col]
    w = ens.weights
    if half_width is None:
        var = float(np.average(np.abs(z0) ** 2, weights=w)) / 2.0
        half_width = 5.0 * math.sqrt(var)
    d = 2.0 * half_width / (npts - 1)
    edges = np.linspace(-half_width - d / 2, half_width + d / 2, npts + 1)
    counts, _, _ = np.histogram2d(z0.real, z0.imag, bins=(edges, edges),
                                  weights=w)
    values = counts / (w.sum() * d * d)
    s_tag = s_from_eta(ens.meta.get("eta_total", 1.0))
    return PhaseSpaceGrid(half_width=half_width, npts=npts, values=values,
                          s_param=s_tag, units=ens.units)


# ---------------------------------------------------------------------------
# gated click generation
# ---------------------------------------------------------------------------

@dataclass
class ClickStream:
    """Registered detector events with dark/real provenance."""

    times: np.ndarray
    detector: np.ndarray
    is_dark: np.ndarray
    duration: float
    gate_rate: float
    gate_len: float
    meta: dict = field(default_factory=dict)

    @property
    def n_events(self):
        return self.times.size


def _apply_dead_time(times, dead_time):
    """Keep events separated by at least dead_time; earlier events win."""
    keep = np.zeros(times.size, dtype=bool)
    last = -math.inf
    for i, t in enumerate(times):
        if t - last >= dead_time:
            keep[i] = True
            last = t
    return keep


def _draw_events(lam, row_starts, dt, gate_starts, spad: SpadConfig, t_end, rng):
    """Raw (times, detector, is_dark) of both detectors for one block, unsorted.

    lam[i, j] is the registered intensity in the step of width dt from
    row_starts[i] + j*dt.  Each detector draws, in this order: thinning per
    step, jitter within it, dark counts per gate, dark offsets within it.
    """
    p_hit = np.clip(lam * dt, 0.0, 1.0)
    times, det, dark = [], [], []
    for d in range(2):
        rows, steps = np.nonzero(rng.random(p_hit.shape) < p_hit)
        t_hit = row_starts[rows] + (steps + rng.random(rows.size)) * dt
        counts = rng.poisson(spad.dark_rate * spad.gate_len, size=gate_starts.size)
        t_dark = np.repeat(gate_starts, counts) \
            + rng.random(counts.sum()) * spad.gate_len
        t_dark = t_dark[t_dark < t_end]          # a last gate may overrun t_end
        times += [t_hit, t_dark]
        dark += [np.zeros(t_hit.size, dtype=bool), np.ones(t_dark.size, dtype=bool)]
        det.append(np.full(t_hit.size + t_dark.size, d, dtype=np.int8))
    return np.concatenate(times), np.concatenate(det), np.concatenate(dark)


def _register_events(times, det, dark, dead_time):
    """Per detector: stable time sort and dead time; then a stable time merge."""
    kept = []
    for d in range(2):
        sel = np.nonzero(det == d)[0]
        order = sel[np.argsort(times[sel], kind="stable")]
        kept.append(order[_apply_dead_time(times[order], dead_time)])
    kept = np.concatenate(kept)
    kept = kept[np.argsort(times[kept], kind="stable")]
    return times[kept], det[kept], dark[kept]


def spad_clicks(a_traj, dt, spad: SpadConfig, seed, mean_registered_rate,
                mean_intensity) -> ClickStream:
    """Thin a field trajectory into gated detector events.

    a_traj has one row per detector-time series is shared: shape (n_steps,).
    The per-detector registered intensity is
    mean_registered_rate * |a(t)|^2 / mean_intensity inside gates, plus dark
    events at the intrinsic dark rate; events within the dead time of an
    accepted one vanish.  The trajectory and the first gate start at t = 0.
    """
    a_traj = np.asarray(a_traj)
    n_steps = a_traj.size
    duration = n_steps * dt
    rng = np.random.Generator(np.random.Philox(seed))

    intensity = mean_registered_rate * np.abs(a_traj) ** 2 / mean_intensity
    n_det_per_gate = mean_registered_rate * spad.gate_len
    if n_det_per_gate > 0.1:
        import warnings
        warnings.warn("mean counts per gate %.3g > 0.1; single-photon "
                      "approximation is strained" % n_det_per_gate)

    gate_period = 1.0 / spad.gate_rate
    t = np.arange(n_steps) * dt
    # one row per step, so each hit is jittered within its own step
    lam = np.where(np.mod(t, gate_period) < spad.gate_len, intensity, 0.0)[:, None]
    n_gates = int(math.floor(duration / gate_period)) + 1
    gate_starts = np.arange(n_gates) * gate_period
    events = _draw_events(lam, t, dt, gate_starts, spad, duration, rng)
    times, det, dark = _register_events(*events, spad.dead_time)
    return ClickStream(times, det, dark, duration, spad.gate_rate, spad.gate_len)


def gated_click_stream(cfg: SimConfig, duration, seed=None) -> ClickStream:
    """Click stream over a long duration via per-gate field snapshots.

    Gates are free running at spad.gate_rate.  Successive gates are separated
    by far more than the field correlation time, so each gate gets an
    independent stationary field snippet evolved exactly across the gate.
    Gates are processed in blocks of 200 000 with per-block random streams.
    """
    require_positive("duration", duration)
    spad = cfg.spad
    m_steps = max(2, int(math.ceil(spad.gate_len / cfg.dt)))
    dt = spad.gate_len / m_steps
    # stationary statistics do not depend on the step, so one model serves
    model = FieldModel(cfg, dt=dt)
    corr_time = 1.0 / min(model.rate, model.kappa)
    if 1.0 / spad.gate_rate < 20.0 * corr_time:
        raise ConfigError("gates too dense for independent-gate sampling")

    n_gates = int(math.floor(duration * spad.gate_rate))
    if n_gates < 1:
        raise ConfigError("duration shorter than one gate period")
    r_registered = budget_mod.build_report(cfg.params, cfg.spad).singles_rate_ungated

    per_block = 200_000
    n_blocks = (n_gates + per_block - 1) // per_block
    seeds = np.random.SeedSequence(cfg.seed if seed is None else seed).spawn(n_blocks)

    blocks = []
    for bi in range(n_blocks):
        lo = bi * per_block
        hi = min(lo + per_block, n_gates)
        rng = np.random.Generator(np.random.Philox(seeds[bi]))
        nb = hi - lo
        b, a = model.stationary_sample(nb, rng)
        intens = np.empty((nb, m_steps))
        for j in range(m_steps):
            intens[:, j] = np.abs(a) ** 2
            if j + 1 < m_steps:
                b, a = model.step_states(b, a, rng)
        lam = r_registered * intens / model.var_a if model.var_a > 0 \
            else np.zeros_like(intens)
        gate_starts = (lo + np.arange(nb)) / spad.gate_rate
        blocks.append(_draw_events(lam, gate_starts, dt, gate_starts, spad,
                                   duration, rng))

    times, det, dark = _register_events(*map(np.concatenate, zip(*blocks)),
                                        spad.dead_time)
    meta = {"registered_rate_per_detector": r_registered,
            "n_gates": n_gates}
    return ClickStream(times, det, dark, duration, spad.gate_rate,
                       spad.gate_len, meta)


def herald_select(clicks: ClickStream, kind=HERALD_SINGLE):
    """Herald times: every event, or two-detector coincidences within a gate."""
    if kind == HERALD_SINGLE:
        return clicks.times.copy()
    if kind != HERALD_COINCIDENCE:
        raise ConfigError("kind must be 'single' or 'coincidence'")
    gate_idx = np.floor(clicks.times * clicks.gate_rate).astype(np.int64)
    both = np.intersect1d(gate_idx[clicks.detector == 0],
                          gate_idx[clicks.detector == 1])
    return both / clicks.gate_rate + 0.5 * clicks.gate_len


def write_clicks_csv(clicks: ClickStream, path):
    write_csv(path, "time,detector,is_dark",
              [clicks.times, clicks.detector, clicks.is_dark])


def write_heralds_csv(times, path):
    write_csv(path, "herald_time", [times])


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

ENSEMBLE_SCHEMA = "phonon-forge/ensemble-v1"


def save_ensemble(ens: TraceEnsemble, path_base):
    """Binary columnar store (.npz) plus a JSON sidecar (.json)."""
    np.savez(str(path_base) + ".npz",
             z_real=ens.z.real, z_imag=ens.z.imag,
             taus=ens.taus, weights=ens.weights)
    sidecar = {
        "schema": ENSEMBLE_SCHEMA,
        "herald_kind": ens.herald_kind,
        "herald_col": ens.herald_col,
        "margin_cols": ens.margin_cols,
        "units": ens.units,
        "n_traces": int(ens.n_traces),
        "meta": _jsonable(ens.meta),
    }
    write_json(str(path_base) + ".json", sidecar)


def load_ensemble(path_base) -> TraceEnsemble:
    """Read what save_ensemble wrote; ConfigError if its parts disagree."""
    with open(str(path_base) + ".json") as fh:
        sidecar = json.load(fh)
    if sidecar.get("schema") != ENSEMBLE_SCHEMA:
        raise ConfigError("unrecognized ensemble schema "
                          f"{sidecar.get('schema')!r}")
    with np.load(str(path_base) + ".npz") as data:
        z_real, z_imag, taus, weights = (data[k] for k in
                                         ("z_real", "z_imag", "taus", "weights"))
    if z_real.shape != z_imag.shape:
        raise ConfigError(f"z_real {z_real.shape} and z_imag {z_imag.shape} "
                          "differ in shape")
    if z_real.ndim != 2 or z_real.shape[0] != sidecar["n_traces"]:
        raise ConfigError(f"z has shape {z_real.shape}, the sidecar says "
                          f"{sidecar['n_traces']!r} traces")
    if weights.shape != z_real.shape[:1] or taus.shape != z_real.shape[1:]:
        raise ConfigError(f"weights {weights.shape} and taus {taus.shape} "
                          f"do not match z {z_real.shape}")
    z = z_real + 1j * z_imag
    return TraceEnsemble(z=z, taus=taus,
                         herald_col=int(sidecar["herald_col"]),
                         weights=weights,
                         herald_kind=sidecar["herald_kind"],
                         margin_cols=int(sidecar["margin_cols"]),
                         units=sidecar["units"], meta=sidecar["meta"])


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)
