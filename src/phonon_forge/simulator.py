"""Stochastic heterodyne experiment emulator.

The scattered optical mode is driven by the thermal mechanical mode through
the beam-splitter interaction; the pair forms a linear system

    db/dt = -r b + noise(nbar_th),      da/dt = -kappa a - iG b,

whose stationary two-time correlation <a*(0) a(tau)> reproduces the closed
forms in :mod:`phonon_forge.dynamics` exactly (r = gamma).  Integration uses
the exact one-step discretization x[k+1] = E x[k] + w with E = expm(M dt) and
noise covariance Q = Sigma - E Sigma E^dag, so there is no step-size bias at
any dt; heralded ensembles therefore step at the sample rate, and only the
click stream steps finer, at the SimConfig.dt derived from kappa2.  The
measured heterodyne voltage is

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

from . import budget as budget_mod
from ._formats import write_csv, write_json
from .dynamics import VarianceCurve, correlation_amplitude, correlation_bracket, \
    cooperativity, effective_linewidth, steady_state_variance
from .errors import ConfigError, NumericsError
from .params import SpadConfig, SystemParams, TWO_PI, default_params, \
    default_spad, require_integer, require_positive
from .phase_space import PhaseSpaceGrid, UNITS_HETERODYNE, _VALID_UNITS, s_from_eta

HERALD_NONE = "none"
HERALD_SINGLE = "single"
HERALD_COINCIDENCE = "coincidence"
_HERALD_KINDS = (HERALD_NONE, HERALD_SINGLE, HERALD_COINCIDENCE)

_HERALD_ORDER = {HERALD_NONE: 0, HERALD_SINGLE: 1, HERALD_COINCIDENCE: 2}
# the meta entries that variance_ratio_report and herald_histogram read; every
# ensemble run_ensemble makes has each of them as a positive number
_META_READ = ("eta_total", "predicted_ratio", "sigma_inf_expected", "slow_rate")


# ---------------------------------------------------------------------------
# configuration
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SimConfig:
    params: SystemParams = field(default_factory=default_params)
    spad: SpadConfig = field(default_factory=default_spad)
    sample_rate: float = 3.125e9
    trace_len: int = 12500
    n_traces: int = 1000
    demod_bandwidth: float = 100e6
    demod_filter: str = "butter4"        # or "boxcar"
    decimate: int = 16
    mech_linewidth: str = "bare"         # or "effective"
    seed: int = 202104
    chunk_traces: int = 256

    def __post_init__(self):
        require_positive("sample_rate", self.sample_rate)
        require_positive("demod_bandwidth", self.demod_bandwidth)
        for name, minimum in (("trace_len", 256), ("n_traces", 1),
                              ("decimate", 1), ("chunk_traces", 1), ("seed", 0)):
            require_integer(name, getattr(self, name), minimum)
        if self.decimate > self.trace_len:
            raise ConfigError(f"decimate {self.decimate} exceeds trace_len "
                              f"{self.trace_len}: no column would be kept")
        if self.sample_rate < 4.0 * self.params.omega_het / TWO_PI:
            raise ConfigError("sample_rate below 4x the heterodyne frequency")
        if not 0 < self.demod_bandwidth < self.params.omega_het / TWO_PI:
            raise ConfigError("demod_bandwidth must be positive and below "
                              "the heterodyne frequency")
        if self.demod_filter not in ("butter4", "boxcar"):
            raise ConfigError("demod_filter must be 'butter4' or 'boxcar'")
        if self.mech_linewidth not in ("bare", "effective"):
            raise ConfigError("mech_linewidth must be 'bare' or 'effective'")

    @property
    def dt(self):
        """The click stream's field step: the largest 1/(k sample_rate) within
        1/(20 kappa2), fine enough for its Riemann thinning."""
        dt_max = 1.0 / (20.0 * self.params.kappa2)
        per_sample = self.sample_rate * dt_max
        if not per_sample > 0.0 or math.isinf(1.0 / per_sample):
            raise ConfigError(f"kappa2 {self.params.kappa2!r} leaves no finite click "
                              f"step 1/(20 kappa2) at sample_rate {self.sample_rate!r}")
        k = max(1, math.ceil(1.0 / per_sample))
        return 1.0 / (k * self.sample_rate)

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
        self.rate = p.gamma if cfg.mech_linewidth == "bare" \
            else effective_linewidth(p, cooperativity(p, self.coupling))

        r, k, g, dt = self.rate, self.kappa, self.coupling, self.dt
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

    @staticmethod
    def step_scratch(n):
        """The scratch step_states needs for state vectors of n elements."""
        return np.empty((2, 2, n)), np.empty((4, n), dtype=complex)

    def step_states(self, b, a, rng, work):
        """Advance the state vectors b and a in place by one exact step of
        self.dt, using work from step_scratch(b.size) as scratch."""
        normals, buf = work
        z, tmp = buf[:2], buf[2:]
        rng.standard_normal(out=normals)        # real parts, then imaginary
        z.real, z.imag = normals
        z /= math.sqrt(2.0)                     # as _circular_normal((2, n))
        l_q, e = self.L_q, self.E
        np.multiply(z[0], l_q[1, 0], out=tmp[0])
        np.multiply(z[1], l_q[1, 1], out=tmp[1])
        tmp[0] += tmp[1]                        # the drive of a
        z[0] *= l_q[0, 0]
        z[1] *= l_q[0, 1]
        z[0] += z[1]                            # the drive of b
        a *= e[1, 1]
        np.multiply(b, e[1, 0], out=tmp[1])
        a += tmp[1]
        a += tmp[0]
        b *= e[0, 0]
        b += z[0]

    def correlation_a(self, tau):
        """Analytic <a*(0) a(tau)> of this model (real valued)."""
        tau = np.asarray(tau, dtype=float)
        return self.var_a * correlation_bracket(self.kappa, self.rate, tau)

    def stationary_sample(self, n, rng):
        """Draw n joint stationary (b, a) pairs."""
        x = self.L_s @ _circular_normal((2, n), rng)
        return x[0], x[1]

    def evolve_block(self, b0, a0, n_steps, rng):
        """Exact trajectories of shape (n_traces, n_steps); index 0 holds t=0.

        Both are transposed views of time-major arrays, so each step of the
        recursion is one contiguous row.  Besides them the block holds one
        float and one complex scratch of its size, for the draws.
        """
        n = b0.size
        normals = np.empty((n, n_steps))
        z = np.empty((n_steps, n), dtype=complex)

        def circular_normal():
            # _circular_normal((n, n_steps), rng), written time-major
            rng.standard_normal(out=normals)
            z.real = normals.T
            rng.standard_normal(out=normals)
            z.imag = normals.T
            return np.divide(z, math.sqrt(2.0), out=z)

        l_q = self.L_q
        b = np.multiply(l_q[0, 0], circular_normal())
        a = np.multiply(l_q[1, 0], z)
        circular_normal()
        if l_q[0, 1] != 0:          # a Cholesky factor is lower-triangular
            _add_scaled(b, l_q[0, 1], z)
        _add_scaled(a, l_q[1, 1], z)
        del normals, z
        b[0] = b0
        a[0] = a0
        _ar1(self.E[0, 0], b)
        # drive for a: coupling acts on the previous b sample
        _add_scaled(a[1:], self.E[1, 0], b[:-1])
        _ar1(self.E[1, 1], a)
        return b.T, a.T


_SLAB_BYTES = 1 << 20


def _add_scaled(out, coef, src):
    """out += coef * src, a slab of rows at a time."""
    rows = max(1, _SLAB_BYTES // src[0].nbytes)
    tmp = np.empty_like(src[:rows])
    for lo in range(0, len(src), rows):
        part = src[lo:lo + rows]
        out[lo:lo + rows] += np.multiply(coef, part, out=tmp[:len(part)])


def _ar1(pole, x):
    """x[t] = pole * x[t-1] + x[t] in place along the first axis, from t = 1:
    the recursion driven by a time-major drive x, with x[-1] = 0."""
    tmp = np.empty_like(x[0])
    for t in range(1, len(x)):
        np.multiply(pole, x[t - 1], out=tmp)
        x[t] += tmp


def fast_len(n):
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT transforms quickly."""
    odd = (3 ** b * 5 ** c for b in range(n.bit_length()) for c in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd if p < 2 * n)


def _support(h):
    """Indices where |h| exceeds 1e-10 of its peak."""
    return np.nonzero(np.abs(h) > 1e-10 * np.abs(h).max())[0]


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


# ---------------------------------------------------------------------------
# demodulation plan (filters and calibration)
# ---------------------------------------------------------------------------

class DemodPlan:
    """Filter response plus the vacuum and signal calibration constants."""

    def __init__(self, cfg: SimConfig, model: FieldModel | None = None):
        self.cfg = cfg
        self.model = model = model or FieldModel(cfg)
        self.dt_s = 1.0 / cfg.sample_rate
        self.n_samp = cfg.trace_len
        self.center = cfg.trace_len // 2
        self.offset = self.center % cfg.decimate
        self.cols = np.arange(self.offset, cfg.trace_len, cfg.decimate)
        self.herald_col = int(np.nonzero(self.cols == self.center)[0][0])
        self.taus = (self.cols - self.center) * self.dt_s

        # effective zero-phase impulse response, used for all calibrations.
        # Whether its 1e-10 support fits in n_imp samples is read on a grid
        # twice as long, where the wrapped tails are far too small to cancel
        # it, so the refusal switches at one bandwidth.
        n_imp = 8192
        ends = _support(self._impulse(2 * n_imp))[[0, -1]] - n_imp
        if ends[0] <= -(n_imp // 2) or ends[1] >= n_imp - 1 - n_imp // 2:
            raise ConfigError(
                f"demod_bandwidth {cfg.demod_bandwidth!r} Hz is too narrow: the "
                f"filter's impulse response does not fit in {n_imp} samples")
        h = self._impulse(n_imp)
        support = _support(h)
        self.h = h[support[0]:support[-1] + 1]
        self.h_center = n_imp // 2 - support[0]
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

        # the record zero-padded past the filter support, in whole bands of
        # n_fft/decimate; the response also moves column `offset` to 0
        d = cfg.decimate
        self.n_fft = d * fast_len(-(-(cfg.trace_len + self.h.size) // d))
        self._band_response = self.response(self.n_fft) * (math.sqrt(2.0) / d) \
            * np.exp(2j * math.pi * self.offset * np.fft.fftfreq(self.n_fft))

    def _impulse(self, n):
        """The response's n-point inverse DFT, centred on sample n // 2."""
        return np.fft.fftshift(np.fft.ifft(self.response(n)).real)

    def response(self, n):
        """The filter's zero-phase frequency response on the n-point DFT grid."""
        cfg = self.cfg
        if cfg.demod_filter == "boxcar":
            # the DFT of uniform_filter1d(size=width, mode="constant")'s kernel,
            # cut to the grid; the cap keeps a near-zero bandwidth's width finite
            width = max(1, round(min(cfg.sample_rate / (2.0 * cfg.demod_bandwidth),
                                     2.0 ** 53)))
            kernel = np.zeros(n)
            kernel[np.arange(max(width // 2 + 1 - width, -(n // 2)),
                             min(width // 2, n - 1 - n // 2) + 1) % n] = 1.0 / width
            return np.fft.fft(kernel)
        # |H|^2 of butter(4, bandwidth, fs), which a forward-backward pass
        # applies: 1 / (1 + (t / t_c)^8), with the smaller of t, t_c on top
        t = np.abs(np.tan(np.pi * np.fft.fftfreq(n)))
        t_c = math.tan(math.pi * cfg.demod_bandwidth / cfg.sample_rate)
        lo, hi = np.minimum(t, t_c), np.maximum(t, t_c)
        q8 = np.divide(lo, hi, out=np.zeros(n), where=hi > 0) ** 8
        return np.where(t <= t_c, 1.0, q8) / (1.0 + q8)

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
        """sqrt(2) g Re[a e^(-i w t)] plus calibrated vacuum noise.

        The signal follows the layout of a_sampled; the voltage is the noise
        buffer, C-ordered as drawn, with the signal added a slab at a time.
        """
        cos_t, sin_t = self.mix_phases()
        signal = np.multiply(a_sampled.real, cos_t)
        signal += np.multiply(a_sampled.imag, sin_t)
        v = rng.standard_normal(a_sampled.shape)
        v *= self.sigma_vac
        _add_scaled(v, math.sqrt(2.0) * self.gain, signal)
        return v

    def demodulate(self, v):
        """Quadratures z = X + iP at self.cols for any leading shape of v:
        mix, filter by FFT, decimate by folding the bands, inverse FFT."""
        cos_t, sin_t = self.mix_phases()
        d, lead = self.cfg.decimate, v.shape[:-1]
        buf = np.empty(lead + (self.n_fft,), dtype=complex)
        buf[..., self.n_samp:] = 0.0
        np.multiply(v, cos_t + 1j * sin_t, out=buf[..., :self.n_samp])
        np.fft.fft(buf, axis=-1, out=buf)
        buf *= self._band_response
        bands = buf.reshape(lead + (d, self.n_fft // d)).sum(axis=-2)
        return np.fft.ifft(bands, axis=-1)[..., :self.cols.size]


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
    stream and run on a pool of `threads` workers (one if None), so results
    are bit-identical for a given (cfg, seed) regardless of the thread count.
    """
    if herald_kind not in _HERALD_KINDS:
        raise ConfigError(f"herald_kind must be one of {_HERALD_KINDS}")
    n_traces = cfg.n_traces if n_traces is None else n_traces
    require_integer("n_traces", n_traces, 1)
    threads = 1 if threads is None else threads
    require_integer("threads", threads, 1)

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

    with ThreadPoolExecutor(max_workers=threads) as pool:
        list(pool.map(work, range(n_chunks)))

    meta = {
        "schema": ENSEMBLE_SCHEMA,
        "seed": cfg.seed,
        "herald_kind": herald_kind,
        "sample_rate": cfg.sample_rate,
        "decimate": cfg.decimate,
        "eta_total": cfg.params.eta_total,
        "nbar_th": cfg.params.nbar_th,
        "sigma_inf_expected": plan.sigma_inf,
        "predicted_ratio": plan.predicted_ratio(order),
        "mech_linewidth": cfg.mech_linewidth,
        "slow_rate": model.rate,
    }
    return TraceEnsemble(z=z, taus=plan.taus, herald_col=plan.herald_col,
                         weights=weights, herald_kind=herald_kind,
                         margin_cols=plan.margin_cols, meta=meta)


def _simulate_chunk(cfg, model, plan, n, order, rng):
    b0, a0 = model.stationary_sample(n, rng)
    # only a is kept, so b is freed before the voltage is built
    a = model.evolve_block(b0, a0, cfg.trace_len, rng)[1]
    a_center = a[:, plan.center].copy()
    v = plan.voltage_from_field(a, rng)
    del a
    # |a|^0 is exactly 1, so an unheralded ensemble carries uniform weights
    return plan.demodulate(v), np.abs(a_center) ** (2 * order)


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


def steady_wings(taus, margin_cols, slow_rate, error=NumericsError):
    """The usable columns beyond 0.6 of the usable half-span from the herald
    and beyond three relaxation times of it; error if fewer than four."""
    usable = np.zeros(taus.size, dtype=bool)
    usable[margin_cols:taus.size - margin_cols] = True
    tau_wing = 0.6 * np.abs(taus[usable]).max() if usable.any() else 0.0
    tau_wing = max(tau_wing, 3.0 / slow_rate) if slow_rate else tau_wing
    wings = usable & (np.abs(taus) >= tau_wing)
    if wings.sum() < 4:
        raise error("trace too short to estimate the steady-state wings")
    return wings


def variance_ratio_report(ens: TraceEnsemble) -> dict:
    """Herald-time enhancement relative to the ensemble's own steady_wings,
    so the denominator is genuinely the steady state."""
    curve = ensemble_variance(ens)
    wings = steady_wings(curve.taus, ens.margin_cols, ens.meta.get("slow_rate"))
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


def _draw_events(lam, starts, dt, spad: SpadConfig, t_end, rng):
    """Raw (times, detector, is_dark) of both detectors for one block, unsorted.

    Row i of lam is the gate opening at starts[i]; lam[i, j] is the
    registered intensity in its step of width dt from starts[i] + j*dt; lam
    is overwritten.  Each detector draws, in this order: thinning per step,
    jitter within it, dark counts per gate, dark offsets within it.
    """
    # the hit probabilities take the intensities' place, and the thinning
    # draws come a chunk of rows at a time: rng.random fills in C order, so
    # the chunks draw what one block-sized call would, without its copies
    p_hit = np.clip(np.multiply(lam, dt, out=lam), 0.0, 1.0, out=lam)
    chunk = max(1, (_CLICK_BLOCK_BYTES // 16) // (8 * p_hit.shape[1]))
    times, det, dark = [], [], []
    for d in range(2):
        hits = [np.nonzero(rng.random(p.shape) < p)
                for p in np.split(p_hit, range(chunk, len(p_hit), chunk))]
        rows = np.concatenate([r + i * chunk for i, (r, _) in enumerate(hits)])
        steps = np.concatenate([s for _, s in hits])
        t_hit = starts[rows] + (steps + rng.random(rows.size)) * dt
        counts = rng.poisson(spad.dark_rate * spad.gate_len, size=starts.size)
        t_dark = np.repeat(starts, counts) \
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


_CLICK_BLOCK_BYTES = 64 << 20


def _gate_intensities(model, n_gates, m_steps, rng):
    """|a|^2 of n_gates independent stationary snippets at m_steps successive
    steps of model.dt, time-major: row j is step j of every gate."""
    b, a = model.stationary_sample(n_gates, rng)
    work = model.step_scratch(n_gates)
    intens = np.empty((m_steps, n_gates))
    for j, row in enumerate(intens):
        np.abs(a, out=row)
        np.square(row, out=row)
        if j + 1 < m_steps:
            model.step_states(b, a, rng, work)
    return intens


def gated_click_stream(cfg: SimConfig, duration, seed=None) -> ClickStream:
    """Click stream over a long duration via per-gate field snapshots.

    Gates are free running at spad.gate_rate.  Successive gates are separated
    by far more than the field correlation time, so each gate gets an
    independent stationary field snippet evolved exactly across the gate.
    Gates are processed in blocks of up to 200 000, each within
    _CLICK_BLOCK_BYTES of intensities, with per-block random streams.
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

    # the default 22 steps a gate keep 200 000-gate blocks, and so the streams
    per_block = min(200_000, _CLICK_BLOCK_BYTES // (8 * m_steps))
    if per_block < 1:
        raise ConfigError(f"the click step {dt:.3e} s is too fine for a "
                          f"{spad.gate_len:.3e} s gate: its {m_steps} steps pass "
                          f"{_CLICK_BLOCK_BYTES} bytes")
    n_blocks = (n_gates + per_block - 1) // per_block
    seeds = np.random.SeedSequence(cfg.seed if seed is None else seed).spawn(n_blocks)

    blocks = []
    for bi in range(n_blocks):
        lo = bi * per_block
        hi = min(lo + per_block, n_gates)
        rng = np.random.Generator(np.random.Philox(seeds[bi]))
        nb = hi - lo
        lam = _gate_intensities(model, nb, m_steps, rng)
        if model.var_a > 0:                 # the registered rate, in place
            lam *= r_registered
            lam /= model.var_a
        else:
            lam[...] = 0.0
        gate_starts = (lo + np.arange(nb)) / spad.gate_rate
        blocks.append(_draw_events(lam.T, gate_starts, dt, spad, duration, rng))
        del lam                             # before the next block's field

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
    if sidecar.get("herald_kind") not in _HERALD_KINDS:
        raise ConfigError(f"herald_kind must be one of {_HERALD_KINDS}, "
                          f"got {sidecar.get('herald_kind')!r}")
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
    for name in ("herald_col", "margin_cols"):
        require_integer(name, sidecar.get(name), 0)
        if sidecar[name] >= taus.size:
            raise ConfigError(f"{name} {sidecar[name]} lies outside the "
                              f"{taus.size} columns")
    if sidecar.get("units") not in _VALID_UNITS:
        raise ConfigError(f"units must be one of {_VALID_UNITS}, "
                          f"got {sidecar.get('units')!r}")
    meta = sidecar.get("meta")
    if not isinstance(meta, dict):
        raise ConfigError(f"meta must be a JSON object, got {meta!r}")
    for name in _META_READ:
        require_positive(f"meta.{name}", meta.get(name))
    z = z_real + 1j * z_imag
    return TraceEnsemble(z=z, taus=taus, herald_col=sidecar["herald_col"],
                         weights=weights, herald_kind=sidecar["herald_kind"],
                         margin_cols=sidecar["margin_cols"],
                         units=sidecar["units"], meta=meta)


def _jsonable(obj):
    if isinstance(obj, dict):
        return {k: _jsonable(v) for k, v in obj.items()}
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, (bool, int, float, str)) or obj is None:
        return obj
    return str(obj)
