"""Command-line front end.

Subcommands: wigner, marginal, variance, simulate, budget, characterize.
All inputs come from an optional JSON config (strict schema, unknown keys
rejected) plus per-command flags; defaults reproduce the laboratory
parameter set, so running any command with no config reproduces the
headline numbers.  Exit codes: 0 success, 2 configuration error
(a request too large for memory included), 3 numerical-validity error.
The config schema lives in params; each command imports the modules it
runs, so a command loads no module it does not use.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import json
import math
import os
import shutil
import sys
import tempfile
from pathlib import Path

import numpy as np

from ._formats import write_csv, write_json
from .errors import ConfigError, NumericsError
from .params import HERALD_COINCIDENCE, HERALD_KINDS, HERALD_SINGLE, UNITS, \
    GridConfig, SimConfig, SpadConfig, SystemParams, default_params, default_spad, \
    require_integer, require_positive

_SYSTEM_KEYS = {f.name for f in dataclasses.fields(SystemParams)}
_SPAD_KEYS = {f.name for f in dataclasses.fields(SpadConfig)}
# the system, detector and seed come from their own sections
_SIM_KEYS = {f.name for f in dataclasses.fields(SimConfig)} - {"params", "spad", "seed"}
_GRID_KEYS = {f.name for f in dataclasses.fields(GridConfig)}
_TOP_KEYS = {"system", "spad", "sim", "grid", "output_dir", "seed"}


class RunConfig:
    """Validated bundle of system, detector, simulation, and grid settings."""

    def __init__(self, doc=None):
        doc = _reject_unknown({} if doc is None else doc, _TOP_KEYS, "top level")
        sys_doc = _reject_unknown(doc.get("system", {}), _SYSTEM_KEYS, "system")
        spad_doc = _reject_unknown(doc.get("spad", {}), _SPAD_KEYS, "spad")
        sim_doc = _reject_unknown(doc.get("sim", {}), _SIM_KEYS, "sim")
        grid_doc = _reject_unknown(doc.get("grid", {}), _GRID_KEYS, "grid")
        output_dir = doc.get("output_dir", ".")
        if not isinstance(output_dir, str):
            raise ConfigError(f"output_dir must be a string, got {output_dir!r}")

        # every section is built here, so a bad value fails every command
        self.params = dataclasses.replace(default_params(), **sys_doc)
        self.spad = dataclasses.replace(default_spad(), **spad_doc)
        self.output_dir = Path(output_dir)
        self.sim = SimConfig(params=self.params, spad=self.spad,
                             seed=doc.get("seed", 20210), **sim_doc)
        self.grid = GridConfig(**grid_doc)


def _given(config, **overrides):
    """config with the command-line overrides that were actually passed."""
    return dataclasses.replace(config, **{k: v for k, v in overrides.items()
                                          if v is not None})


def _reject_unknown(doc, allowed, where):
    """Return the config section doc after checking its keys."""
    if not isinstance(doc, dict):
        raise ConfigError(f"{where} config must be a JSON object")
    unknown = set(doc) - allowed
    if unknown:
        raise ConfigError(f"unknown {where} config keys: {sorted(unknown)}")
    return doc


def load_config(path) -> RunConfig:
    if path is None:
        return RunConfig()
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (OSError, ValueError, RecursionError) as exc:   # ValueError: not UTF-8 or JSON
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig(doc)


def _thread_count(args):
    """--threads, or the usable cores when it is not given."""
    if args.threads is None:
        return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") \
            else os.cpu_count() or 1
    require_integer("threads", args.threads, 1)
    return args.threads


def _state_spec(cfg, args):
    """The state of --n, --nbar (default: cooled) and --eta (default: config)."""
    from . import dynamics, phase_space
    nbar = args.nbar
    if nbar is None:
        nbar = dynamics.characterize(cfg.params).nbar_cooled
    eta = args.eta if args.eta is not None else cfg.params.eta_total
    return phase_space.StateSpec(nbar=nbar, n=args.n, eta=eta)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_wigner(cfg: RunConfig, args, out, stage):
    from . import phase_space
    spec = _state_spec(cfg, args)
    gcfg = _given(cfg.grid, npts=args.npts, half_width=args.half_width,
                  units=args.units)
    grid = phase_space.wigner_s(spec, gcfg, s_override=args.s)
    stem = f"wigner_n{args.n}"
    phase_space.write_grid(grid, stage / f"{stem}.csv", stage / f"{stem}.json")
    marg = phase_space.marginal_from_grid(grid)
    phase_space.write_marginal(marg, stage / f"{stem}_marginal.csv")
    return (f"wrote {_shown(out / stem)}.csv ({grid.npts}x{grid.npts}, "
            f"units={grid.units}, s={grid.s_param:.6g}, mass={grid.total_mass():.6f})")


def cmd_marginal(cfg: RunConfig, args, out, stage):
    from . import phase_space
    spec = _state_spec(cfg, args)
    # the detected marginal is the state smoothed by one vacuum unit
    xmax = phase_space.state_window(spec.eta_nbar, spec.n, 1.0) if args.xmax is None \
        else args.xmax
    require_positive("xmax", xmax)
    require_integer("npts", args.npts, 2)
    xs = np.linspace(-xmax, xmax, args.npts)
    marg = phase_space.marginal_on_grid(phase_space.measured_marginal(spec), xs)
    name = f"marginal_n{args.n}.csv"
    phase_space.write_marginal(marg, stage / name)
    return f"wrote {_shown(out / name)} (integral={marg.integral():.6f})"


def cmd_variance(cfg: RunConfig, args, out, stage):
    from . import dynamics
    chain = dynamics.characterize(cfg.params)
    t_max = 5.0 / chain.gamma_eff
    require_integer("npts", args.npts, 2)
    taus = np.linspace(-t_max, t_max, args.npts)
    # the emulator's relaxation rate, so sim.mech_linewidth applies
    curve = dynamics.variance_curve(cfg.params, args.n, taus,
                                    dynamics.relaxation_rate(cfg.sim))
    name = f"variance_n{args.n}.csv"
    dynamics.write_variance_curve(curve, stage / name)
    peak = curve.values.max()
    inf = dynamics.steady_state_variance(cfg.params)
    # with no mechanical signal above the vacuum the ratio is 0/0
    ratio = f"{(peak - 1.0) / (inf - 1.0):.6f}" if inf > 1.0 else "undefined"
    return f"wrote {_shown(out / name)} (peak ratio {ratio}, steady state {inf:.6f})"


def cmd_simulate(cfg: RunConfig, args, out, stage):
    from . import budget, dynamics, phase_space, simulator
    require_positive("click_seconds", args.click_seconds, zero_ok=True)
    threads = _thread_count(args)
    sim = _given(cfg.sim, trace_len=args.trace_len, n_traces=args.n_traces)
    plan = simulator.DemodPlan(sim)              # refuse before any work
    order = HERALD_KINDS.index(args.herald)
    steady = simulator.steady_columns(plan.taus, plan.margin_cols, plan.model.rate, order)
    # the click stream refuses its own settings before the costly ensemble
    report = {"herald_kind": args.herald}
    if args.click_seconds > 0:
        clicks = simulator.gated_click_stream(sim, args.click_seconds)
        heralds = simulator.herald_select(clicks, args.herald if order else HERALD_SINGLE)
        budget_pred = budget.build_report(cfg.params, cfg.spad)
        report["click_rates"] = {
            "duration_s": args.click_seconds,
            "singles_per_detector": {str(d): float((clicks.detector == d).sum()
                                                   / clicks.duration) for d in (0, 1)},
            "coincidences": float(
                simulator.herald_select(clicks, HERALD_COINCIDENCE).size
                / clicks.duration),
            "budget_singles_rate": budget_pred.singles_rate,
            "budget_dark_rate": budget_pred.dark_rate_observed,
            "budget_coincidence_rate": budget_pred.coincidence_rate,
        }
    ens = simulator.run_ensemble(sim, args.herald, threads=threads, plan=plan)
    curve = simulator.ensemble_variance(ens)
    report.update(n_traces=ens.n_traces, calibration={
        "vacuum_variance_expected": 1.0,
        "sigma_sq_inf_analytic": ens.meta["sigma_inf_expected"]})
    report.update(simulator.variance_ratio_report(ens, curve) if order
                  else {"sigma_sq_inf": float(np.mean(curve.values[steady]))})
    write_json(stage / f"report_{args.herald}.json", report)
    simulator.save_ensemble(ens, stage / f"ensemble_{args.herald}")
    dynamics.write_variance_curve(curve, stage / f"empirical_variance_{args.herald}.csv")
    stem = stage / f"histogram_{args.herald}"
    phase_space.write_grid(simulator.herald_histogram(ens), f"{stem}.csv", f"{stem}.json")
    if args.click_seconds > 0:
        simulator.write_clicks_csv(clicks, stage / "clicks.csv")
        simulator.write_heralds_csv(heralds, stage / f"heralds_{args.herald}.csv")
    if order:
        return (f"peak ratio {report['peak_ratio']:.4f} (ideal {report['ideal_ratio']}, "
                f"filter-adjusted {report['predicted_ratio']:.4f})")
    return (f"steady-state variance {report['sigma_sq_inf']:.4f} "
            f"(analytic {report['calibration']['sigma_sq_inf_analytic']:.4f})")


def cmd_budget(cfg: RunConfig, args, out, stage):
    from . import budget
    report = budget.build_report(cfg.params, cfg.spad)
    report.to_json(stage / "budget.json")
    return budget.format_table(report)


def cmd_characterize(cfg: RunConfig, args, out, stage):
    from . import dynamics
    try:
        powers = [float(p) for p in args.powers.split(",")] if args.powers \
            else [cfg.params.p_in]
    except ValueError:
        raise ConfigError(f"--powers must be comma-separated numbers, "
                          f"got {args.powers!r}") from None
    rows = [(p, dynamics.characterize(dataclasses.replace(cfg.params, p_in=p)))
            for p in powers]
    table = [(p, ch.n_cav, ch.coupling / (2 * math.pi), ch.cooperativity,
              ch.nbar_cooled, ch.gamma_eff / (2 * math.pi), ch.decay_time)
             for p, ch in rows]
    write_csv(stage / "characterization.csv", "p_in,n_cav,G_over_2pi,cooperativity,nbar,"
              "gamma_eff_over_2pi,decay_time", list(zip(*table)))
    lines = [f"P_in={p * 1e3:.3g} mW: N_cav={ch.n_cav:.4g}, "
             f"G/2pi={ch.coupling / 2 / math.pi / 1e6:.4g} MHz, "
             f"C={ch.cooperativity:.4g}, nbar={ch.nbar_cooled:.4g}, "
             f"1/gamma_eff={ch.decay_time * 1e9:.4g} ns" for p, ch in rows]
    if args.fit:
        n_cavs = np.array([ch.n_cav for _, ch in rows])
        if np.unique(n_cavs).size < 2:
            n_cavs = dynamics.characterize(cfg.params).n_cav \
                * np.linspace(0.2, 1.0, 5)
        g0_fit, gamma_fit = dynamics.fit_g0_from_spectra(cfg.params, n_cavs)
        rel = abs(g0_fit - cfg.params.g0) / cfg.params.g0
        lines.append(f"spectrum fit: g0/2pi={g0_fit / 2 / math.pi:.4g} Hz "
                     f"(input {cfg.params.g0 / 2 / math.pi:.4g} Hz, "
                     f"relative error {rel:.2%})")
    return "\n".join([*lines, f"wrote {_shown(out / 'characterization.csv')}"])


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser():
    parser = argparse.ArgumentParser(
        prog="phonon-forge",
        description="Heralded phonon subtraction from a thermal mechanical "
                    "state: phase space, dynamics, budgets, and a stochastic "
                    "heterodyne experiment emulator.")
    parser.add_argument("--config", help="JSON configuration file")
    parser.add_argument("--out", help="output directory (default from config)")
    parser.add_argument("--threads", type=int,
                        help="worker threads for simulation "
                             "(default: all usable cores)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("wigner", help="phase-space grid and its marginal")
    p.add_argument("--n", type=int, required=True, help="subtraction order")
    p.add_argument("--eta", type=float, help="measurement efficiency")
    p.add_argument("--nbar", type=float,
                   help="initial occupation (default: cooled value)")
    p.add_argument("--s", type=float, help="explicit smoothing parameter "
                                           "(zero_point units only)")
    p.add_argument("--npts", type=int, help="grid points per axis (odd)")
    p.add_argument("--half-width", dest="half_width", type=float)
    p.add_argument("--units", choices=UNITS)
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("marginal", help="closed-form detected marginal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", type=float)
    p.add_argument("--nbar", type=float)
    p.add_argument("--xmax", type=float)
    p.add_argument("--npts", type=int, default=1001)
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("variance", help="analytic heralded variance curve")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--npts", type=int, default=2001)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("simulate", help="run the stochastic emulator")
    p.add_argument("--herald", choices=HERALD_KINDS, default=HERALD_SINGLE)
    p.add_argument("--n-traces", dest="n_traces", type=int)
    p.add_argument("--trace-len", dest="trace_len", type=int)
    p.add_argument("--click-seconds", dest="click_seconds", type=float,
                   default=2.0,
                   help="length of the gated click-stream run used for the "
                        "rate comparison (0 disables it)")
    p.set_defaults(func=cmd_simulate)

    p = sub.add_parser("budget", help="photon-flux and heralding budget")
    p.set_defaults(func=cmd_budget)

    p = sub.add_parser("characterize", help="cooling and coupling chain")
    p.add_argument("--powers", help="comma-separated input powers in W")
    p.add_argument("--fit", action="store_true",
                   help="recover g0 from simulated spectra")
    p.set_defaults(func=cmd_characterize)

    return parser


def _shown(path):
    """path as printed: each unprintable character escaped as repr escapes it."""
    return "".join(c if c.isprintable() else repr(c)[1:-1] for c in str(path))


@contextlib.contextmanager
def _staged(out):
    """A fresh directory in out, or its deepest existing ancestor, for a command's
    files, which move into out when it returns; it goes on any exit.  An OSError,
    a bad path or a name out holds as a directory is a ConfigError."""
    shown = _shown(out)
    try:
        for base in (out, *out.parents):
            with contextlib.suppress(FileNotFoundError):
                base.stat()              # unlike exists(), refuses a NUL byte
                break
        stage = Path(tempfile.mkdtemp(prefix=".phonon-forge-", dir=base))
    except (OSError, ValueError) as exc:    # an OSError's str names the stage
        raise ConfigError(f"cannot write to {shown}: "
                          f"{getattr(exc, 'strerror', None) or exc}") from exc
    try:
        yield stage
        out.mkdir(parents=True, exist_ok=True)
        paths = list(stage.iterdir())
        for path in paths:
            if (out / path.name).is_dir():
                raise ConfigError(f"cannot write to {shown}: {path.name} is a directory")
        for path in paths:
            path.replace(out / path.name)
    except OSError as exc:
        raise ConfigError(f"cannot write to {shown}: {exc.strerror or exc}") from exc
    finally:
        shutil.rmtree(stage, ignore_errors=True)


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        out = Path(args.out) if args.out else cfg.output_dir
        # a float that leaves the double range is a numerics error, wherever
        # it happens, rather than an inf or NaN carried on towards the output
        with _staged(out) as stage, np.errstate(over="raise", invalid="raise"):
            summary = args.func(cfg, args, out, stage)
    except (ConfigError, MemoryError) as exc:
        # a request too large for memory is refused like any other bad value
        print(f"config error: {str(exc) or 'out of memory'}", file=sys.stderr)
        return 2
    except (NumericsError, ArithmeticError) as exc:
        print(f"numerical validity error: {exc}", file=sys.stderr)
        return 3
    print(summary)      # only once every file is in place
    return 0


if __name__ == "__main__":
    sys.exit(main())
