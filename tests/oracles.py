"""References the tests check the package against, each by a route the
package does not take: ladder operators, the number distribution, sampling,
hand-written low-order forms, beamsplitter quadrature, and the SciPy
routines the package replaced."""

import math

import numpy as np

from phonon_forge import dynamics as dyn
from phonon_forge import phase_space as ps
from phonon_forge import phonon_stats as stats
from phonon_forge import simulator as sim
from phonon_forge.errors import ConfigError, NumericsError, TruncationError
from phonon_forge.params import UNITS_HETERODYNE


def fock_oracle(spec, n, kind=stats.SUBTRACT, m_max=None):
    """Apply the ladder operators n times to the truncated thermal diagonal.

    The thermal tail beyond m_max must already be below 1e-12.
    """
    x = spec.x
    if m_max is None:
        m_max = stats.default_m_max(spec.nbar, n)
        if x > 0.0:
            # the oracle precondition is a thermal tail below 1e-12
            m_max = max(m_max, int(math.ceil(27.7 / math.log(1.0 / x))) + n)
    thermal_tail = x ** (m_max + 1) if x > 0 else 0.0
    if thermal_tail >= 1e-12:
        raise TruncationError(
            f"thermal tail {thermal_tail:.3e} >= 1e-12 at m_max={m_max}")
    diag = stats.thermal_pmf(spec, m_max).probs.copy()
    m = np.arange(m_max + 1, dtype=float)
    for _ in range(n):
        if kind == stats.SUBTRACT:
            # (b rho b^dag)_mm = (m+1) rho_{m+1,m+1}
            diag[:-1] = (m[:-1] + 1.0) * diag[1:]
            diag[-1] = 0.0
        else:
            # (b^dag rho b)_mm = m rho_{m-1,m-1}
            diag[1:] = m[1:] * diag[:-1]
            diag[0] = 0.0
    return stats.NumberPmf(diag / diag.sum(), m_max, 0.0)


def wick_oracle(params, n, tau, n_samples, seed):
    """(ratio, standard error) of the |a0|^(2n)-weighted to the plain second
    moment of a_tau, over 32 batches of correlated complex Gaussian pairs."""
    v = dyn.correlation_amplitude(params, params.pump_enhanced_coupling())
    b = float(dyn.correlation_bracket(params.kappa2, params.gamma, tau))
    if abs(b) > 1.0:
        raise NumericsError("correlation matrix is not positive semidefinite")

    rng = np.random.Generator(np.random.Philox(seed))
    # Cholesky factor of [[v, v b], [v b, v]]
    l11 = math.sqrt(v)
    l21 = b * l11
    l22 = math.sqrt(max(v * (1.0 - b * b), 0.0))

    n_batches = 32
    ratios = np.empty(n_batches)
    per = n_samples // n_batches
    for i in range(n_batches):
        z1 = (rng.standard_normal(per) + 1j * rng.standard_normal(per)) / math.sqrt(2)
        z2 = (rng.standard_normal(per) + 1j * rng.standard_normal(per)) / math.sqrt(2)
        a0 = l11 * z1
        at = l21 * z1 + l22 * z2
        w = np.abs(a0) ** (2 * n)
        q = np.abs(at) ** 2          # pooled X and P second moments
        ratios[i] = np.average(q, weights=w) / q.mean()
    return float(ratios.mean()), float(ratios.std(ddof=1)) / math.sqrt(n_batches)


def herald_column_cdf(x, order, c, sigma_sq, var_a):
    """The CDF at x of |z_j|^2 for a column z_j = c a0 + e_j of an order-n
    heralded record, |a0|^2 / var_a ~ Gamma(n + 1) with a uniform phase and
    e_j ~ CN(0, sigma_sq) apart from a0.  |z_j|^2 / M, M = |c|^2 var_a + sigma_sq,
    is the Binomial(n, p) mixture of Gamma(k + 1) laws, p = |c|^2 var_a / M:

        F(x) = 1 - e^(-x/M) sum_k C(n, k) p^k (1 - p)^(n - k) sum_(i <= k) (x/M)^i / i!
    """
    m = abs(c) ** 2 * var_a + sigma_sq
    p = abs(c) ** 2 * var_a / m
    u = np.asarray(x, dtype=float) / m
    tail = sum(math.comb(order, k) * p ** k * (1.0 - p) ** (order - k)
               * sum(u ** i / math.factorial(i) for i in range(k + 1))
               for k in range(order + 1))
    return 1.0 - np.exp(-u) * tail


def direct_cross_sums(plan, kernel, center, lags):
    """For k in lags, by direct sums over kernel's support, lag by lag: sum_w
    kernel[center + w] c_a(tau), tau = (k d - w) dt, and the same sum with each term
    times e^(-2i w_het tau).  C_k and J_k for (h, h_center), S_k and I_k for (r_h,
    h.size - 1): the reference for DemodPlan._sums."""
    d = plan.cfg.decimate
    w = np.arange(kernel.size) - center
    sums = []
    for k in lags:
        tau = (k * d - w) * plan.dt_s
        c = kernel * plan.model.correlation_a(tau)
        sums.append((np.sum(c), np.sum(c * np.exp(-2j * plan.cfg.params.omega_het * tau))))
    return np.array(sums).T


def direct_noise(plan, lags):
    """r_h(k d) = sum_i h[i + k d] h[i] for k >= 0 in lags, lag by lag: the record's
    vacuum covariance per unit sigma_vac^2 / 2, the reference for DemodPlan.cov's."""
    h, d = plan.h, plan.cfg.decimate
    return np.array([np.sum(h[k * d:] * h[:max(h.size - k * d, 0)]) for k in lags])


def simulate_fields(cfg, n_steps, n_traces, seed):
    """Stationary scattered-field trajectories at cfg.dt, shape (n_traces, n_steps)."""
    model = sim.FieldModel(cfg, cfg.dt)
    rng = np.random.Generator(np.random.Philox(seed))
    return model.evolve_block(*model.stationary_sample(n_traces, rng), n_steps, rng)[1]


def fock_q_function(nbar, n, x, p, m_max):
    """Husimi Q of the n-subtracted thermal state over dX dP from its number
    distribution: (1/2 pi) sum_k p_sub(k) e^(-w) w^k / k!, w = (X^2+P^2)/2."""
    from scipy.stats import poisson
    pmf = stats.subtracted_pmf(stats.ThermalSpec(nbar), n, m_max=m_max)
    if pmf.tail_mass >= 1e-16:
        raise TruncationError(f"tail mass {pmf.tail_mass:.3e} at m_max={m_max}")
    w = (np.square(x) + np.square(p)) / 2.0
    k = np.arange(m_max + 1).reshape((-1,) + (1,) * w.ndim)
    return np.tensordot(pmf.probs, poisson.pmf(k, w), 1) / (2.0 * math.pi)


def closed_form_marginal(spec):
    """Detected quadrature distribution for n in {0, 1, 2}, written out by
    hand.  With m = eta*nbar the thermal case is a Gaussian of variance
    1 + m; one and two subtractions add polynomial factors."""
    m = spec.eta_nbar
    v = 1.0 + m
    if spec.n == 0:
        coeffs = (2.0,)
    elif spec.n == 1:
        coeffs = ((2.0 + m) / v, 0.0, 4.0 * m / (2.0 * v) ** 2)
    elif spec.n == 2:
        coeffs = ((8.0 + 8.0 * m + 3.0 * m**2) / (4.0 * v**2), 0.0,
                  (4.0 * m + m**2) / (2.0 * v**3), 0.0, (2.0 * m) ** 2 / (2.0 * v) ** 4)
    else:
        raise ConfigError("the hand-written forms cover n in {0, 1, 2}")

    def density(x):
        x = np.asarray(x, dtype=float)
        return (np.exp(-x**2 / (2.0 * v)) / math.sqrt(8.0 * math.pi * v)
                * np.polynomial.polynomial.polyval(x, coeffs))
    return density


def grid_to_heterodyne(grid, eta):
    """Rescale a zero-point grid to heterodyne coordinates (X -> sqrt(eta) X)."""
    return ps.PhaseSpaceGrid(grid.half_width * math.sqrt(eta), grid.npts,
                             grid.values / eta, grid.s_param, UNITS_HETERODYNE)


def marginal_to_heterodyne(marg, eta):
    """Convert a zero-point marginal to heterodyne coordinates."""
    root = math.sqrt(eta)
    return ps.Marginal(xs=marg.xs * root, density=marg.density / root)


def lossy_marginal_convolution(marg, eta):
    """Quadrature of pr(X; eta) = (pi (1-eta))^(-1/2) Int dX' pr(X')
    exp(-eta/(1-eta) (X' - X/sqrt(eta))^2) on max(len(xs), 801) points."""
    if not 0.0 < eta <= 1.0:
        raise ConfigError("eta must lie in (0, 1]")
    if eta == 1.0:
        return ps.Marginal(marg.xs.copy(), marg.density.copy())
    sig_vac = math.sqrt((1.0 - eta) / 2.0)
    l_out = math.sqrt(eta) * float(marg.xs[-1]) + 5.0 * sig_vac
    xs_out = np.linspace(-l_out, l_out, max(marg.xs.size, 801))

    a = eta / (1.0 - eta)
    diff = marg.xs[None, :] - xs_out[:, None] / math.sqrt(eta)
    kernel = np.exp(-a * diff**2) / math.sqrt(math.pi * (1.0 - eta))
    density = np.trapezoid(kernel * marg.density[None, :], marg.xs, axis=1)
    return ps.Marginal(xs=xs_out, density=density)


def _time_domain_filter(cfg, arr):
    """The demodulation filter in the time domain: butter + sosfiltfilt, or
    uniform_filter1d with constant edges, along the last axis."""
    if cfg.demod_filter == "butter4":
        from scipy.signal import butter, sosfiltfilt
        sos = butter(4, cfg.demod_bandwidth, fs=cfg.sample_rate, output="sos")
        return sosfiltfilt(sos, arr, axis=-1)
    from scipy.ndimage import uniform_filter1d
    width = max(1, int(round(cfg.sample_rate / (2.0 * cfg.demod_bandwidth))))
    return uniform_filter1d(arr, size=width, axis=-1, mode="constant")


def time_domain_impulse_response(cfg, n_imp=8192):
    """The time-domain filter's response to a unit impulse at n_imp // 2."""
    imp = np.zeros(n_imp)
    imp[n_imp // 2] = 1.0
    return _time_domain_filter(cfg, imp)


def time_domain_demodulate(plan, v):
    """Mix, filter the real and imaginary parts in the time domain, then keep
    every decimate-th sample at plan.cols."""
    mixed = v * plan.phasor
    zf = math.sqrt(2.0) * (_time_domain_filter(plan.cfg, mixed.real)
                           + 1j * _time_domain_filter(plan.cfg, mixed.imag))
    return zf[..., plan.cols]


def curve_fit_linewidth(omegas, psd_values):
    """fit_linewidth's Lorentzian fit by scipy's curve_fit, from the same
    starting point."""
    from scipy.optimize import curve_fit

    def model(w, amp, center, width):
        return amp / (1.0 + ((w - center) / width) ** 2)

    w0 = float(omegas[np.argmax(psd_values)])
    half = omegas[psd_values > 0.5 * psd_values.max()]
    guess_width = max(0.5 * (half.max() - half.min()), omegas[1] - omegas[0])
    popt, _ = curve_fit(model, omegas, psd_values,
                        p0=(psd_values.max(), w0, guess_width))
    return abs(popt[2])


def nbinom_tail(spec, n, m_max):
    """The subtracted state's mass above m_max as scipy's negative-binomial
    survival function, n+1 failures."""
    from scipy.stats import nbinom
    return float(nbinom.sf(m_max, n + 1, 1.0 - spec.x))


def riccati_gains(model, m_steps):
    """The m_steps - 1 gains of model.innovation_gains by the same scalar
    Riccati recursion run at every step, with no stop at its fixed point."""
    e_b, e_ab = complex(model.E[0, 0]), complex(model.E[1, 0])
    q_bb, q_ba, q_aa = model.Q[0, 0].real, complex(model.Q[0, 1]), model.Q[1, 1].real
    v, gains = 0.0, []
    for _ in range(m_steps - 1):
        p_bb = v * abs(e_b) ** 2 + q_bb
        p_ba = v * e_b * e_ab.conjugate() + q_ba
        p_aa = v * abs(e_ab) ** 2 + q_aa
        if p_aa > 0:
            p_bb -= abs(p_ba) ** 2 / p_aa
            gains.append((math.sqrt(p_aa / 2.0), p_ba / p_aa))
        else:
            gains.append((0.0, 0j))
        v = max(p_bb, 0.0)
    return gains


def _step_states_allocating(model, b, a, gain, rng):
    """One step of model.dt into new arrays, in the innovations form: a gains
    s zeta, zeta drawn as (gates, 2) real normals, and b its mean given a."""
    s, k = gain
    w = s * rng.standard_normal((b.size, 2)).view(complex)[:, 0]
    a = model.E[1, 1] * a + model.E[1, 0] * b + w
    return model.E[0, 0] * b + k * w, a


def draw_block_stepwise(model, starts, m_steps, hit_scale, spad, t_end, rng):
    """The per-step Bernoulli law that simulator._draw_block draws by
    inversion, directly: every gate is stepped by a gate-major loop that
    allocates every step, and each detector thins every step with its own
    uniform.  The hit probabilities and uniforms are stored (gates, steps)
    and read step-major at the end."""
    n, dt = starts.size, model.dt
    gains = model.innovation_gains(m_steps)
    b, a = model.stationary_sample(n, rng)
    p = np.empty((n, m_steps))
    u = np.empty((2, n, m_steps))
    for j in range(m_steps):
        p[:, j] = np.minimum(hit_scale * np.abs(a) ** 2, 1.0)
        u[0, :, j] = rng.random(n)
        u[1, :, j] = rng.random(n)
        if j + 1 < m_steps:
            b, a = _step_states_allocating(model, b, a, next(gains), rng)
    times, det, dark = [], [], []
    for d in range(2):
        steps, rows = np.nonzero((u[d] < p).T)
        t_hit = starts[rows] + (steps + rng.random(rows.size)) * dt
        counts = rng.poisson(spad.dark_rate * spad.gate_len, size=n)
        t_dark = np.repeat(starts, counts) + rng.random(counts.sum()) * spad.gate_len
        t_dark = t_dark[t_dark < t_end]
        times += [t_hit, t_dark]
        det += [np.full(t_hit.size + t_dark.size, d, dtype=np.int8)]
        dark += [np.zeros(t_hit.size, dtype=bool), np.ones(t_dark.size, dtype=bool)]
    return np.concatenate(times), np.concatenate(det), np.concatenate(dark)


def dead_time_greedy(times, dead_time):
    """The rule simulator._apply_dead_time applies, by a plain loop over every
    event of the sorted times: an event is kept when it lies at least
    dead_time after the last kept one, so earlier events win."""
    keep = np.zeros(times.size, dtype=bool)
    last = -math.inf
    for i, t in enumerate(times):
        if t - last >= dead_time:
            keep[i] = True
            last = t
    return keep
