"""Stochastic heterodyne experiment emulator.

The scattered optical mode is driven by the thermal mechanical mode through
the beam-splitter interaction; the pair forms a linear system

    db/dt = -r b + noise(nbar_th),      da/dt = -kappa a - iG b,

whose stationary two-time correlation <a*(0) a(tau)> reproduces the closed
forms in :mod:`phonon_forge.dynamics` exactly (r = gamma).  Integration uses
the exact one-step discretization x[k+1] = E x[k] + w with E = expm(M dt) and
noise covariance Q = Sigma - E Sigma E^dag, so there is no step-size bias at
any dt; heralded ensembles therefore step at the sample rate, and only the
click stream steps finer, at gate_len / ceil(gate_len / SimConfig.dt).  Only a
is read, so one kernel, FieldModel.step_states, steps it for ensembles and
clicks alike, exactly, from one complex innovation per step, with b carried
as its mean given b_0 and a's path so far (the Kalman filter's innovations
form, Kailath 1968).  The heterodyne voltage is

    v(t) = sqrt(2) g Re[a(t) e^(-i w_het t)] + vacuum noise,

with the vacuum term calibrated to unit demodulated quadrature variance and
the signal gain g calibrated so the unconditional demodulated variance equals
1 + eta nbar_th, mirroring how the lumped efficiency is defined against the
measured steady state.

Heralded ensembles are conditioned exactly, with unit weights: a detection at
t0 size-biases the field a0 there by |a0|^(2n) (n = 1 singles, 2 same-gate
coincidences), so each unheralded trace moves to its record given a0 = alpha,
|alpha|^2 / var_a ~ Gamma(n + 1) (_condition), the law of a triggered one.  The
explicit gated click machinery (Poisson thinning, dark counts, dead time) is
exercised separately at realistic rates via per-gate field snapshots, valid
because gates are spaced by thousands of field correlation times.  A gate
almost never clicks, so most are never drawn: its chance of a hit is at
most twice its summed hit probabilities, so candidates are proposed at that
bound's mean, drawn from their path law size-biased by it, and thinned to
their exact chance (Lewis & Shedler 1979).  Only the gates that click get a
start time, and events are kept in time order (per detector for dead time,
both merged for the stream), so dead time visits only crowded events and
coincidences are one sorted merge: outside the stepping, cost is per event.
"""

from __future__ import annotations

import itertools
import json
import math
import zipfile
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

from . import budget as budget_mod
from ._formats import write_csv, write_json
from .dynamics import VarianceCurve, correlation_amplitude, correlation_bracket, \
    relaxation_rate, steady_state_variance
from .errors import ConfigError
from .params import HERALD_KINDS, HERALD_SINGLE, UNITS_HETERODYNE, \
    SimConfig, SpadConfig, require_choice, require_integer, require_positive
from .phase_space import PhaseSpaceGrid, s_from_eta

# the meta entries that variance_ratio_report and herald_histogram read; every
# ensemble run_ensemble makes has each of them as a positive number
_META_READ = ("eta_total", "predicted_ratio", "sigma_inf_expected", "slow_rate")


# ---------------------------------------------------------------------------
# exact linear field model
# ---------------------------------------------------------------------------

class FieldModel:
    """Exact one-step propagator of the driven (mechanics, optics) pair, by
    default at the record's sample step 1/cfg.sample_rate."""

    def __init__(self, cfg: SimConfig, dt=None):
        p = cfg.params
        self.kappa = p.kappa2
        self.coupling = p.pump_enhanced_coupling()
        self.nbar_th = p.nbar_th
        self.dt = 1.0 / cfg.sample_rate if dt is None else float(dt)
        self.rate = relaxation_rate(cfg)

        r, k, g, dt = self.rate, self.kappa, self.coupling, self.dt
        e_bb = math.exp(-r * dt)
        e_aa = math.exp(-k * dt)
        # (e_bb - e_aa) / (k - r) without its cancellation near k = r
        e_ab = -1j * g * e_aa * (math.expm1((k - r) * dt) / (k - r) if k != r else dt)
        self.E = np.array([[e_bb, 0.0], [e_ab, e_aa]], dtype=complex)
        sig_ba = 1j * g * self.nbar_th / (k + r)
        sig_aa = correlation_amplitude(p, g, r)
        self.Sigma = np.array([[self.nbar_th, sig_ba],
                               [np.conj(sig_ba), sig_aa]], dtype=complex)
        self.Q = self.Sigma - self.E @ self.Sigma @ self.E.conj().T
        self.L_s = _chol_psd(self.Sigma)
        self.var_a = sig_aa

    def innovation_gains(self, m_steps):
        """Yield the gains (s_j / sqrt(2), K_j) of steps j = 1 ... m_steps - 1
        from stationary_sample's exact (b, a).

        s_j^2 is the variance of a's innovation at step j given b_0 and
        a_0 ... a_(j-1), and K_j = P_j[0, 1] / P_j[1, 1] the gain that takes
        b to its mean given a_j as well (the Kalman filter's innovations
        form).  P_j = E diag(v, 0) E^dag + Q is the one-step prediction
        covariance, from v, the variance of b about that mean, which is 0 at
        step 0.  A singular step (P_j[1, 1] = 0) has s_j = K_j = 0.  Once v
        repeats bit for bit (after 14-16 steps at the defaults) every later
        gain is the last one, so a record of any length costs no memory.
        """
        e_b, e_ab = complex(self.E[0, 0]), complex(self.E[1, 0])
        q_bb, q_ba, q_aa = self.Q[0, 0].real, complex(self.Q[0, 1]), self.Q[1, 1].real
        v = 0.0
        for left in reversed(range(m_steps - 1)):
            p_bb = v * abs(e_b) ** 2 + q_bb
            p_ba = v * e_b * e_ab.conjugate() + q_ba
            p_aa = v * abs(e_ab) ** 2 + q_aa
            if p_aa > 0:
                p_bb -= abs(p_ba) ** 2 / p_aa
                gain = math.sqrt(p_aa / 2.0), p_ba / p_aa
            else:
                gain = 0.0, 0j
            yield gain
            v, v_last = max(p_bb, 0.0), v
            if v == v_last:
                yield from itertools.repeat(gain, left)
                return

    def step_states(self, b, a, gains, rng):
        """Step the time-major slab a in place: row 0 holds the current a and
        rows 1 ... receive its next values, while b, the mechanics' mean
        given b_0 and a's path so far, is carried along.  gains holds the
        steps' (s_t / sqrt(2), K_t) from innovation_gains.  The innovations
        s_t zeta_t, zeta_t ~ CN(0, 1), are drawn straight into rows 1 ...
        (real and imaginary parts interleaved) and scaled there, so a has its
        exact law from one complex normal per step:

            a_t = (s_t zeta_t + E_ab b_(t-1)) + E_aa a_(t-1),
            b_t = E_bb b_(t-1) + K_t s_t zeta_t.
        """
        e = self.E
        w = a[1:]
        rng.standard_normal(out=w.view(float))
        w *= gains[:, :1].real
        drive = gains[:, 1:] * w
        tmp = np.empty_like(b)
        for t in range(1, len(a)):
            a[t] += np.multiply(e[1, 0], b, out=tmp)
            a[t] += np.multiply(e[1, 1], a[t - 1], out=tmp)
            b *= e[0, 0]
            b += drive[t - 1]

    def correlation_a(self, tau):
        """Analytic <a*(0) a(tau)> of this model (real valued)."""
        tau = np.asarray(tau, dtype=float)
        return self.var_a * correlation_bracket(self.kappa, self.rate, tau)

    def stationary_sample(self, n, rng):
        """Draw n joint stationary (b, a) pairs."""
        x = self.L_s @ _circular_normal((2, n), rng)
        return x[0], x[1]

    def evolve_block(self, b0, a0, n_steps, rng):
        """(b_last, a): the optical trajectory a, shape (n_traces, n_steps),
        index 0 holding t=0, and b_last, the (n_traces,) mean of the
        mechanical state at the last step given b0 and a's path, as
        step_states draws them.  a is the transposed view of a time-major
        array, one row per step, stepped a slab of about _SLAB_BYTES at a
        time, each slab from the row before it, so b is carried, never
        stored.
        """
        a = np.empty((n_steps, b0.size), dtype=complex)
        a[0], b = a0, b0.copy()
        rows = _slab_rows(a[0].nbytes)
        gains = self.innovation_gains(n_steps)
        for lo in range(0, n_steps - 1, rows):
            hi = min(lo + rows, n_steps - 1)
            g = np.array(list(itertools.islice(gains, hi - lo)))
            self.step_states(b, a[lo:hi + 1], g, rng)
        return b, a.T


_SLAB_BYTES = 1 << 20


def _slab_rows(row_nbytes):
    """Rows of row_nbytes each in a slab of about _SLAB_BYTES, at least one."""
    return max(1, _SLAB_BYTES // row_nbytes)


def fast_len(n):
    """The smallest 2^a 3^b 5^c >= n, a length numpy's FFT transforms quickly."""
    odd = (3 ** b * 5 ** c for b in range(n.bit_length()) for c in range(n.bit_length()))
    return min(p << (-(-n // p) - 1).bit_length() for p in odd if p < 2 * n)


def _support(h):
    """Indices where |h| exceeds 1e-10 of its peak."""
    return np.nonzero(np.abs(h) > 1e-10 * np.abs(h).max())[0]


def _chol_psd(mat):
    """The lower-triangular L with L L^dag = mat for a 2x2 Hermitian PSD mat:
    the Cholesky factor in closed form, singular allowed (l10 is 0 if l00 is)."""
    l00 = math.sqrt(max(mat[0, 0].real, 0.0))
    l10 = mat[1, 0] / l00 if l00 > 0 else 0j
    l11 = math.sqrt(max(mat[1, 1].real - (l10.real ** 2 + l10.imag ** 2), 0.0))
    return np.array([[l00, 0.0], [l10, l11]], dtype=complex)


def _stream(seed, key):
    """The generator of node `key` of `seed`'s spawn-key tree, as
    SeedSequence(seed).spawn would give it, on SFC64: nodes are independent
    streams for any bit generator, no draw needs random access, and SFC64
    draws normals fastest of NumPy's bit generators."""
    seq = np.random.SeedSequence(seed, spawn_key=key)
    return np.random.Generator(np.random.SFC64(seq))


def _circular_normal(shape, rng):
    """Complex normals with <z z*> = 1, <z z> = 0: the real parts are drawn
    first, then the imaginary parts, each filled in place."""
    z = np.empty(shape, dtype=complex)
    z.real = rng.standard_normal(shape)
    z.imag = rng.standard_normal(shape)
    z /= math.sqrt(2.0)
    return z


# ---------------------------------------------------------------------------
# demodulation plan (filters and calibration)
# ---------------------------------------------------------------------------

class DemodPlan:
    """Filter response, field model, and the record's law and calibration from _sums."""

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
        # a margin clear of the filter's edge transients, where it carries weight
        core = np.nonzero(np.abs(h) > 1e-4 * np.abs(h).max())[0]
        half_width = max(core[-1] - n_imp // 2, n_imp // 2 - core[0])
        margin_time = (3 * half_width + 16) * self.dt_s
        self.margin_cols = int(math.ceil(margin_time / (self.dt_s * cfg.decimate)))

        # the law of the columns z_j and of a0, the field at t_c: cov[m] = E[z_j z*_(j+m)]
        # = g^2 (S_m + I_m) + 2 sigma_vac^2 r_h(m d); cross = (k, l), k[j] = E[z_j a0*] =
        # g C_(j - hc), l[j] = E[z_j a0] = g e^(2i w_het t_c) conj(J_(j - hc)).  Exact where
        # the filter's support lies inside the record, as at every steady_columns column
        # (column 0 reads 16.31 against cov[0] = 15.94 at the defaults).  The calibration
        # reads lag 0 and column hc: unit vacuum, then 1 + eta nbar_th (no signal: vacuum)
        n, hc, h = self.cols.size, self.herald_col, self.h
        self.r_h = np.correlate(h, h, mode="full")
        signal = self._sums(self.r_h, h.size - 1, range(n)).sum(axis=0)
        c, j = self._sums(h, self.h_center, range(-hc, n - hc))
        self.sigma_vac = 1.0 / math.sqrt(self.r_h[h.size - 1])
        self.gain, self.sigma_inf, self._herald_rho_sq = 0.0, 1.0, 0.0
        if signal[0].real > 0:
            eta_nbar_th = cfg.params.eta_total * cfg.params.nbar_th
            self.gain = math.sqrt(2.0 * eta_nbar_th / signal[0].real)
            self.sigma_inf = steady_state_variance(cfg.params)
            cross_sq = np.sum(np.abs([c[hc], j[hc]]) ** 2)
            self._herald_rho_sq = float(cross_sq / model.var_a / signal[0].real)
        noise = np.pad(self.r_h[h.size - 1::cfg.decimate], (0, n))[:n]
        self.cov = self.gain ** 2 * signal + 2.0 * self.sigma_vac ** 2 * noise
        at_herald = np.exp(2j * cfg.params.omega_het * self.center * self.dt_s)
        self.cross = np.array([self.gain * c, self.gain * at_herald * np.conj(j)])

        # the record zero-padded past the filter support, in whole bands of
        # n_fft/decimate; the response also moves column `offset` to 0
        d = cfg.decimate
        self.n_fft = d * fast_len(-(-(cfg.trace_len + self.h.size) // d))
        self._band_response = self.response(self.n_fft) * (math.sqrt(2.0) / d) \
            * np.exp(2j * math.pi * self.offset * np.fft.fftfreq(self.n_fft))
        # e^(i w_het t) at the sample times, which mixes the record down
        theta = cfg.params.omega_het * (np.arange(self.n_samp) * self.dt_s)
        self.phasor = np.cos(theta) + 1j * np.sin(theta)

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

    def _sums(self, kernel, center, lags):
        """The one home of the record's second moments: for k in the range lags, sums of
        kernel[center + w] c_a(tau), tau = (k d - w) dt, and of each term times the image
        e^(-2i w_het tau), as every d-th point of two convolutions on the sample grid.
        With (h, h_center) they are C_k and J_k; with (r_h, h.size - 1), S_k and I_k."""
        d = self.cfg.decimate
        tau = np.arange(lags[0] * d - (kernel.size - 1 - center),
                        lags[-1] * d + center + 1) * self.dt_s
        c = self.model.correlation_a(tau)
        image = c * np.exp(-2j * self.cfg.params.omega_het * tau)
        return np.array([np.convolve(x, kernel, "valid")[::d] for x in (c, image)])

    def predicted_ratio(self, order):
        """The herald-time factor 1 + n after demodulation filtering, the law's
        1 + n (|C_0|^2 + |J_0|^2) / (var_a (S_0 + I_0)).  At the defaults 2 becomes
        1.9988: 0.0012 of the measured 0.06 gap."""
        require_integer("order", order, 0)
        return 1.0 + order * self._herald_rho_sq

    def voltage_from_field(self, a_sampled, rng):
        """sqrt(2) g Re[a e^(-i w t)] plus calibrated vacuum noise.

        The voltage is the noise buffer, C-ordered as drawn; the signal's
        quadratures are added to it in turn through one scratch of its shape.
        """
        scale = math.sqrt(2.0) * self.gain
        v = rng.standard_normal(a_sampled.shape)
        v *= self.sigma_vac
        tmp = np.multiply(a_sampled.real, scale * self.phasor.real)
        v += tmp
        v += np.multiply(a_sampled.imag, scale * self.phasor.imag, out=tmp)
        return v

    def demodulate(self, v):
        """Quadratures z = X + iP at self.cols for any leading shape of v:
        mix, filter by FFT, decimate by folding the bands, inverse FFT."""
        d, lead = self.cfg.decimate, v.shape[:-1]
        buf = np.empty(lead + (self.n_fft,), dtype=complex)
        buf[..., self.n_samp:] = 0.0
        np.multiply(v, self.phasor, out=buf[..., :self.n_samp])
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

    z[i, j] = X + iP of trace i at taus[j] relative to the herald; a herald
    conditions z itself, so no reader weights.  weights stays, all ones, and the
    .npz stores it, as perfbench/ reads it and calls dataclasses.replace(ens,
    weights=...); it goes once the benchmark stops reading it.
    """

    z: np.ndarray
    taus: np.ndarray
    herald_col: int
    weights: np.ndarray
    herald_kind: str
    margin_cols: int
    meta: dict = field(default_factory=dict)

    units = UNITS_HETERODYNE      # not a field: every record is in these units

    @property
    def n_traces(self):
        return self.z.shape[0]

    @property
    def order(self):
        return HERALD_KINDS.index(self.herald_kind)


def run_ensemble(cfg: SimConfig, herald_kind=HERALD_SINGLE, n_traces=None,
                 threads=None, plan=None) -> TraceEnsemble:
    """Simulate an ensemble of herald-aligned traces.

    Work is split into fixed chunks, chunk i drawing from node (i,) of the seed's
    spawn-key tree (`_stream`) and, if heralded, from node (i, order) (`_condition`),
    on a pool of `threads` workers (one if None), so results are bit-identical for a
    given (cfg, seed) whatever the thread count.  plan, cfg's DemodPlan, is built if None.
    """
    require_choice("herald_kind", herald_kind, HERALD_KINDS)
    n_traces = cfg.n_traces if n_traces is None else n_traces
    require_integer("n_traces", n_traces, 1)
    threads = 1 if threads is None else threads
    require_integer("threads", threads, 1)

    plan = plan or DemodPlan(cfg)
    order, var_a = HERALD_KINDS.index(herald_kind), plan.model.var_a
    if order and var_a == 0:
        raise ConfigError("no herald signal: the scattered field is empty "
                          "(p_in or nbar_th is 0)")
    gains = plan.cross / var_a if order else None

    n_chunks = (n_traces + cfg.chunk_traces - 1) // cfg.chunk_traces
    z = np.empty((n_traces, plan.cols.size), dtype=complex)

    def work(ci):
        lo = ci * cfg.chunk_traces
        hi = min(lo + cfg.chunk_traces, n_traces)
        z[lo:hi], a0 = _simulate_chunk(plan, hi - lo, _stream(cfg.seed, (ci,)))
        if order:
            _condition(z[lo:hi], a0, order, var_a, gains, _stream(cfg.seed, (ci, order)))

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
        "slow_rate": plan.model.rate,
    }
    return TraceEnsemble(z=z, taus=plan.taus, herald_col=plan.herald_col,
                         weights=np.ones(n_traces), herald_kind=herald_kind,
                         margin_cols=plan.margin_cols, meta=meta)


def _simulate_chunk(plan, n, rng):
    b0, a0 = plan.model.stationary_sample(n, rng)
    # b is carried through the propagation, so a is the one record held
    a = plan.model.evolve_block(b0, a0, plan.n_samp, rng)[1]
    # the voltage and its demodulation buffer exist a slab of traces at a
    # time; the voltage noise is still drawn trace-major, slab after slab
    rows = _slab_rows(16 * plan.n_fft)
    z = np.empty((n, plan.cols.size), dtype=complex)
    for lo in range(0, n, rows):
        z[lo:lo + rows] = plan.demodulate(plan.voltage_from_field(a[lo:lo + rows], rng))
    return z, a[:, plan.center].copy()          # and a0, the field at the herald


def _condition(z, a0, order, var_a, gains, rng):
    """Move records z, of fields a0 at the herald sample, in place to z given
    a0 = alpha, |alpha|^2 / var_a ~ Gamma(order + 1) with a0's phase, by Matheron's
    rule: z += K (alpha - a0) + L (alpha - a0)*, (K, L) = gains, the law's; so not
    exact at the edge columns, where the chain's filter is cut and no statistic reads."""
    size = np.sqrt(var_a * rng.standard_gamma(order + 1.0, a0.size))
    delta = (size * np.exp(1j * np.angle(a0)) - a0)[:, None]
    z += delta * gains[0]
    z += delta.conj() * gains[1]


def ensemble_variance(ens: TraceEnsemble) -> VarianceCurve:
    """Pooled X/P sample variance versus herald-relative time."""
    if ens.n_traces < 2:
        raise ConfigError("need at least 2 traces for a variance estimate")
    n, rows = ens.n_traces, _slab_rows(ens.z[0].nbytes)
    blocks = [ens.z[lo:lo + rows] for lo in range(0, n, rows)]
    # the mean, then |z - mean|^2, summed over blocks of rows in a fixed
    # order, so no scratch of z's size exists; a sum over rows never calls
    # BLAS, whose reduction order depends on its thread count
    mean = sum(b.sum(axis=0) for b in blocks) / n
    var = sum((np.abs(b - mean) ** 2).sum(axis=0) for b in blocks) / (2.0 * n)
    return VarianceCurve(ens.taus.copy(), var, order=ens.order)


def steady_columns(taus, margin_cols, slow_rate, order):
    """The usable columns, clear of the filter's edge transients; heralded
    (order > 0), those beyond 0.6 of the usable half-span from the herald and
    beyond three relaxation times of it.  ConfigError if none, or under four wings."""
    usable = np.zeros(taus.size, dtype=bool)
    usable[margin_cols:taus.size - margin_cols] = True
    if not order:
        if not usable.any():
            raise ConfigError("trace too short: no column is clear of the filter's "
                              "edge transients")
        return usable
    tau_wing = 0.6 * np.abs(taus[usable]).max() if usable.any() else 0.0
    tau_wing = max(tau_wing, 3.0 / slow_rate) if slow_rate else tau_wing
    wings = usable & (np.abs(taus) >= tau_wing)
    if wings.sum() < 4:
        raise ConfigError("trace too short to estimate the steady-state wings")
    return wings


def variance_ratio_report(ens: TraceEnsemble, curve=None) -> dict:
    """Herald-time enhancement over the steady state of ens's own steady_columns,
    read from curve, ens's ensemble_variance (computed if None)."""
    curve = ensemble_variance(ens) if curve is None else curve
    steady = steady_columns(curve.taus, ens.margin_cols, ens.meta.get("slow_rate"),
                            ens.order)
    sigma_inf = float(curve.values[steady].mean())
    sigma_peak = float(curve.values[ens.herald_col])
    return {
        "sigma_sq_peak": sigma_peak,
        "sigma_sq_inf": sigma_inf,
        "peak_ratio": (sigma_peak - 1.0) / (sigma_inf - 1.0),
        "ideal_ratio": 1.0 + ens.order,
        "predicted_ratio": ens.meta.get("predicted_ratio"),
        "sigma_sq_inf_expected": ens.meta.get("sigma_inf_expected"),
        "effective_samples": float(ens.n_traces),
    }


def herald_histogram(ens: TraceEnsemble, npts=41, half_width=None) -> PhaseSpaceGrid:
    """2D histogram of (X, P) at the herald time, as a density grid.  Its s_param
    is the unfiltered s_from_eta(eta_total); by the record's law the herald column
    reads a0 with its own eta nbar, rho / (1 - rho), rho = (|k|^2 + |l|^2) / (var_a
    cov[0]) at the herald: 6.906 at the defaults, against eta nbar_th = 6.9706."""
    require_integer("npts", npts, 2)
    z0 = ens.z[:, ens.herald_col]
    if half_width is None:
        var = float(np.mean(np.abs(z0) ** 2)) / 2.0
        half_width = 5.0 * math.sqrt(var)
    else:
        require_positive("half_width", half_width)
    d = 2.0 * half_width / (npts - 1)
    edges = np.linspace(-half_width - d / 2, half_width + d / 2, npts + 1)
    counts, _, _ = np.histogram2d(z0.real, z0.imag, bins=(edges, edges))
    values = counts / (ens.n_traces * d * d)
    s_tag = s_from_eta(ens.meta.get("eta_total", 1.0))
    return PhaseSpaceGrid(half_width=half_width, npts=npts, values=values,
                          s_param=s_tag, units=ens.units)


# ---------------------------------------------------------------------------
# gated click generation
# ---------------------------------------------------------------------------

@dataclass
class ClickStream:
    """Registered detector events with dark/real provenance; times must be in
    time order, so each detector's gate indices are sorted for herald_select."""

    times: np.ndarray
    detector: np.ndarray
    is_dark: np.ndarray
    duration: float
    gate_rate: float
    gate_len: float
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        if not (np.diff(self.times) >= 0).all():
            raise ConfigError("click times must be in time order")

    @property
    def n_events(self):
        return self.times.size


def _apply_dead_time(times, dead_time):
    """Keep events separated by at least dead_time; earlier events win.  times
    is sorted, so an event at least dead_time after its predecessor is kept,
    and only the crowded ones are checked against the last kept time."""
    keep = np.ones(times.size, dtype=bool)
    for i in np.flatnonzero(np.diff(times) < dead_time) + 1:
        if keep[i - 1]:
            last = times[i - 1]
        keep[i] = times[i] - last >= dead_time
    return keep


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


_CLICK_BLOCK_GATES = 1 << 16
# a block whose candidates' optical paths would fill more than this many
# bytes, on average, steps every gate on the fly instead of storing them
_CLICK_PATH_BYTES = 6 << 20
# a gate of more steps is refused before any work; each step is a pass of
# NumPy calls, so an unbounded gate would mean a near-endless loop
_CLICK_MAX_STEPS = 1 << 23
# block i of a click stream draws from node (_CLICK_SEED_BRANCH, i) of the
# seed's tree, never from an ensemble chunk's node (i,)
_CLICK_SEED_BRANCH = 2 ** 32 - 1


def _stepped(model, b, a, m_steps, rng):
    """Yield a at each of a gate's m_steps steps, stepping b in place and a
    through a scratch slab of two rows, which take turns as the current one."""
    slab = np.stack([a, a])
    yield a
    for j, gain in enumerate(model.innovation_gains(m_steps)):
        rows = slab[::-1] if j % 2 else slab
        model.step_states(b, rows, np.array([gain]), rng)
        yield rows[1]


def _biased_paths(model, k, m_steps, rng):
    """The (m_steps, k) optical paths of k gates from the law of a gate's
    path size-biased by sum_j |a_j|^2.

    Every step has variance var_a, so that law picks a uniform step J,
    draws a_J = alpha from its law size-biased by |a_J|^2 (|alpha|^2 / var_a
    ~ Gamma(2), uniform phase), and the rest given a_J = alpha.  That is
    Matheron's rule: a path from evolve_block moves by rho(t - t_J)
    (alpha - a_J), rho = correlation_a / var_a, exact for a circular
    Gaussian path of real covariance.  With no gate nothing is drawn.
    """
    if not k:
        return np.empty((m_steps, 0), dtype=complex)
    paths = model.evolve_block(*model.stationary_sample(k, rng), m_steps, rng)[1].T
    at = rng.integers(m_steps, size=k)
    alpha = np.sqrt(model.var_a * rng.standard_gamma(2.0, k)) \
        * np.exp(2j * np.pi * rng.random(k))
    shift = alpha - paths[at, np.arange(k)]
    rho = model.correlation_a(np.arange(m_steps) * model.dt) / model.var_a
    for j, row in enumerate(paths):
        row += rho[np.abs(j - at)] * shift
    return paths


def _draw_block(model, first, n, m_steps, hit_scale, spad: SpadConfig, t_end, rng):
    """Raw (times, detector, is_dark) of both detectors for the n gates from
    gate index first on, unsorted; only a gate with an event gets its start
    time.

    At every step each detector has a hit with p_j = min(hit_scale |a_j|^2,
    1), drawn by inversion: detector d hits at the first step where the
    survival S_d = prod (1 - p_j) falls below a threshold V_d in (0, 1], and
    then starts again, S_d = 1 with a fresh V_d.  A gate has a hit with
    probability pi = 1 - S^2, at most nu = 2 hit_scale sum_j |a_j|^2, of
    mean q.  So k ~ Binomial(n, q) distinct gates draw their paths from the
    law size-biased by nu (_biased_paths), each is kept with probability
    pi / nu, and a kept gate draws its V_d given a hit: the larger by
    inversion, the other uniform below it.  When q >= 1, or when the paths
    would pass _CLICK_PATH_BYTES, every gate is stepped on the fly instead,
    with uniform V_d.  Then each detector draws its hits' jitter within
    their steps, and its dark counts: a Poisson total over the block, each
    on a uniform gate at a uniform offset.
    """
    dt = model.dt
    q = 2.0 * hit_scale * m_steps * model.var_a
    if q < 1.0 and 16.0 * q * n * m_steps <= _CLICK_PATH_BYTES:
        gates = np.sort(rng.choice(n, rng.binomial(n, q), replace=False, shuffle=False))
        paths = _biased_paths(model, gates.size, m_steps, rng)
        nu, surv = np.zeros(gates.size), np.ones(gates.size)
        for row in paths:
            p = np.abs(row) ** 2
            nu += p
            surv *= 1.0 - np.minimum(hit_scale * p, 1.0)
        pi = 1.0 - surv * surv
        keep = rng.random(gates.size) * (2.0 * hit_scale) * nu < pi
        gates = gates[keep]
        u = rng.random((3, gates.size))
        top = np.sqrt(1.0 - u[0] * pi[keep])
        v = np.stack([top, top * (1.0 - u[1])])
        v[:, u[2] < 0.5] = v[::-1, u[2] < 0.5]
        path = (row[keep] for row in paths)
    else:
        gates = np.arange(n)
        path = _stepped(model, *model.stationary_sample(n, rng), m_steps, rng)
        v = 1.0 - rng.random((2, n))
    # step-major indices j * n + gate
    hits = ([np.empty(0, dtype=np.intp)], [np.empty(0, dtype=np.intp)])
    p, surv = np.empty(gates.size), np.ones((2, gates.size))
    for j, a in enumerate(path):
        np.square(np.abs(a, out=p), out=p)
        np.minimum(np.multiply(p, hit_scale, out=p), 1.0, out=p)
        surv *= np.subtract(1.0, p, out=p)
        for d in range(2):
            hit = np.flatnonzero(surv[d] < v[d])
            hits[d].append(gates[hit] + j * n)
            surv[d, hit] = 1.0
            v[d, hit] = 1.0 - rng.random(hit.size)
    times, det, dark = [], [], []
    for d in range(2):
        steps, rows = np.divmod(np.concatenate(hits[d]), n)
        t_hit = (first + rows) / spad.gate_rate + (steps + rng.random(rows.size)) * dt
        rows = rng.integers(n, size=rng.poisson(n * spad.dark_rate * spad.gate_len))
        t_dark = (first + rows) / spad.gate_rate + rng.random(rows.size) * spad.gate_len
        t_dark = t_dark[t_dark < t_end]          # a last gate may overrun t_end
        times += [t_hit, t_dark]
        dark += [np.zeros(t_hit.size, dtype=bool), np.ones(t_dark.size, dtype=bool)]
        det.append(np.full(t_hit.size + t_dark.size, d, dtype=np.int8))
    return np.concatenate(times), np.concatenate(det), np.concatenate(dark)


def gated_click_stream(cfg: SimConfig, duration) -> ClickStream:
    """Click stream over a long duration via per-gate field snapshots.

    Gates are free running at spad.gate_rate.  Successive gates are separated
    by far more than the field correlation time, so each gate gets an
    independent stationary field snippet, evolved across the gate with the
    exact law of the optical path a that the clicks read; the mechanics b is
    only its conditional mean given that path.
    Gates are processed in blocks of _CLICK_BLOCK_GATES, each with its own
    random stream, so memory is bounded whatever the gate length.
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
    if m_steps > _CLICK_MAX_STEPS:
        raise ConfigError(f"the click step {dt:.3e} s is too fine for a "
                          f"{spad.gate_len:.3e} s gate: its {m_steps} steps pass "
                          f"{_CLICK_MAX_STEPS}")
    hit_scale = dt * r_registered / model.var_a if model.var_a > 0 else 0.0
    n_blocks = (n_gates + _CLICK_BLOCK_GATES - 1) // _CLICK_BLOCK_GATES

    blocks = []
    for bi in range(n_blocks):
        lo = bi * _CLICK_BLOCK_GATES
        blocks.append(_draw_block(model, lo, min(_CLICK_BLOCK_GATES, n_gates - lo),
                                  m_steps, hit_scale, spad, duration,
                                  _stream(cfg.seed, (_CLICK_SEED_BRANCH, bi))))

    times, det, dark = _register_events(*map(np.concatenate, zip(*blocks)),
                                        spad.dead_time)
    meta = {"registered_rate_per_detector": r_registered,
            "n_gates": n_gates}
    return ClickStream(times, det, dark, duration, spad.gate_rate,
                       spad.gate_len, meta)


def herald_select(clicks: ClickStream, kind=HERALD_SINGLE):
    """Herald times: every event, or two-detector coincidences within a gate."""
    require_choice("kind", kind, HERALD_KINDS[1:])
    if kind == HERALD_SINGLE:
        return clicks.times.copy()
    gate_idx = np.floor(clicks.times * clicks.gate_rate).astype(np.int64)
    # gates sorted as times are: detector 0's once each, kept where 1 has one too
    g0, g1 = (gate_idx[clicks.detector == d] for d in range(2))
    g0 = g0[np.diff(g0, prepend=g0[:1] - 1) != 0]
    at = np.minimum(np.searchsorted(g1, g0), g1.size - 1)
    both = g0[g1[at] == g0] if g1.size else g1
    return both / clicks.gate_rate + 0.5 * clicks.gate_len


def write_clicks_csv(clicks: ClickStream, path):
    write_csv(path, "time,detector,is_dark",
              [clicks.times, clicks.detector, clicks.is_dark])


def write_heralds_csv(times, path):
    write_csv(path, "herald_time", [times])


# ---------------------------------------------------------------------------
# persistence
# ---------------------------------------------------------------------------

ENSEMBLE_SCHEMA = "phonon-forge/ensemble-v2"


def save_ensemble(ens: TraceEnsemble, path_base):
    """Binary columnar store (.npz) plus a JSON sidecar (.json); the sidecar
    is written first, so one that JSON cannot hold leaves no file."""
    sidecar = {
        "schema": ENSEMBLE_SCHEMA,
        "herald_kind": ens.herald_kind,
        "herald_col": ens.herald_col,
        "margin_cols": ens.margin_cols,
        "units": ens.units,
        "n_traces": int(ens.n_traces),
        "meta": ens.meta,
    }
    write_json(str(path_base) + ".json", sidecar)
    np.savez(str(path_base) + ".npz", z=ens.z, taus=ens.taus, weights=ens.weights)


def load_ensemble(path_base) -> TraceEnsemble:
    """Read what save_ensemble wrote; ConfigError if a part is missing or
    unreadable, or the parts disagree or hold a value no ensemble has."""
    base = str(path_base)
    try:
        with open(base + ".json") as fh:
            sidecar = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read {base}.json: {exc}") from exc
    if not isinstance(sidecar, dict):
        raise ConfigError(f"{base}.json must hold a JSON object")
    if sidecar.get("schema") != ENSEMBLE_SCHEMA:
        raise ConfigError("unrecognized ensemble schema "
                          f"{sidecar.get('schema')!r}")
    require_choice("herald_kind", sidecar.get("herald_kind"), HERALD_KINDS)
    require_choice("units", sidecar.get("units"), (TraceEnsemble.units,))
    require_integer("n_traces", sidecar.get("n_traces"), 1)
    try:
        # the file is opened here, as np.load leaves it open on a bad archive
        with open(base + ".npz", "rb") as fh, np.load(fh) as data:
            z, taus, weights = (data[k] for k in ("z", "taus", "weights"))
    except (OSError, ValueError, KeyError, zipfile.BadZipFile) as exc:
        raise ConfigError(f"cannot read {base}.npz: {exc}") from exc
    if z.dtype.kind != "c" or z.ndim != 2 or z.shape[0] != sidecar["n_traces"]:
        raise ConfigError(f"z is {z.dtype} of shape {z.shape}, the sidecar says "
                          f"{sidecar['n_traces']!r} traces of complex columns")
    if weights.shape != z.shape[:1] or taus.shape != z.shape[1:]:
        raise ConfigError(f"weights {weights.shape} and taus {taus.shape} "
                          f"do not match z {z.shape}")
    for name in ("herald_col", "margin_cols"):
        require_integer(name, sidecar.get(name), 0)
        if sidecar[name] >= taus.size:
            raise ConfigError(f"{name} {sidecar[name]} lies outside the "
                              f"{taus.size} columns")
    if weights.dtype.kind not in "fiu" or not (weights == 1).all():
        raise ConfigError("weights must be all 1: a weighted ensemble is not read")
    # z is read a slab of rows at a time, so no scratch of its size exists
    rows = _slab_rows(z[0].nbytes)
    if taus.dtype.kind != "f" or not (np.isfinite(taus).all() and all(
            np.isfinite(z[lo:lo + rows]).all() for lo in range(0, len(z), rows))):
        raise ConfigError("z and taus must be finite real and complex numbers")
    meta = sidecar.get("meta")
    if not isinstance(meta, dict):
        raise ConfigError(f"meta must be a JSON object, got {meta!r}")
    for name in _META_READ:
        require_positive(f"meta.{name}", meta.get(name))
    return TraceEnsemble(z=z, taus=taus, herald_col=sidecar["herald_col"],
                         weights=weights, herald_kind=sidecar["herald_kind"],
                         margin_cols=sidecar["margin_cols"], meta=meta)

