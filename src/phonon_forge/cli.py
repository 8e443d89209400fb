"""Command-line front end.

Subcommands: wigner, marginal, variance, simulate, budget, characterize.
All inputs come from an optional JSON config (strict schema, unknown keys
rejected) plus per-command flags; defaults reproduce the laboratory
parameter set, so running any command with no config reproduces the
headline numbers.  Exit codes: 0 success, 2 configuration error,
3 numerical-validity error.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import math
import os
import sys
from pathlib import Path

import numpy as np

from . import budget as budget_mod
from . import dynamics, phase_space, simulator
from ._formats import write_csv, write_json
from .errors import ConfigError, NumericsError, PhononForgeError
from .params import SpadConfig, SystemParams, default_params, default_spad, \
    require_integer, require_positive

_SYSTEM_KEYS = {f.name for f in dataclasses.fields(SystemParams)}
_SPAD_KEYS = {f.name for f in dataclasses.fields(SpadConfig)}
# the system, detector and seed come from their own sections
_SIM_KEYS = {f.name for f in dataclasses.fields(simulator.SimConfig)} \
    - {"params", "spad", "seed"}
_GRID_KEYS = {f.name for f in dataclasses.fields(phase_space.GridConfig)}
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
        self.seed = doc.get("seed", 20210)
        require_integer("seed", self.seed, minimum=0)
        self.sim = simulator.SimConfig(params=self.params, spad=self.spad,
                                       seed=self.seed, **sim_doc)
        self.grid = phase_space.GridConfig(**grid_doc)

    def sim_config(self, **overrides):
        return dataclasses.replace(self.sim, **_given(overrides))

    def grid_config(self, **overrides):
        return dataclasses.replace(self.grid, **_given(overrides))


def _given(overrides):
    """The command-line overrides that were actually passed."""
    return {k: v for k, v in overrides.items() if v is not None}


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
    except (OSError, json.JSONDecodeError) as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return RunConfig(doc)


def _thread_count(args):
    if args.threads is not None:
        return args.threads
    env = os.environ.get("PHONON_FORGE_THREADS")
    if env:
        try:
            return max(1, int(env))
        except ValueError as exc:
            raise ConfigError(f"PHONON_FORGE_THREADS={env!r} is not an integer") \
                from exc
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _outdir(cfg, args):
    out = Path(args.out) if args.out else cfg.output_dir
    out.mkdir(parents=True, exist_ok=True)
    return out


def _state_spec(cfg, args):
    """The state of --n, --nbar (default: cooled) and --eta (default: config)."""
    nbar = args.nbar
    if nbar is None:
        nbar = dynamics.characterize(cfg.params).nbar_cooled
    eta = args.eta if args.eta is not None else cfg.params.eta_total
    return phase_space.StateSpec(nbar=nbar, n=args.n, eta=eta)


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_wigner(cfg: RunConfig, args):
    out = _outdir(cfg, args)
    spec = _state_spec(cfg, args)
    gcfg = cfg.grid_config(npts=args.npts, half_width=args.half_width,
                           units=args.units)
    grid = phase_space.wigner_s(spec, gcfg, s_override=args.s)
    stem = out / f"wigner_n{args.n}"
    phase_space.write_grid(grid, f"{stem}.csv", f"{stem}.json")
    marg = phase_space.marginal_from_grid(grid)
    phase_space.write_marginal(marg, f"{stem}_marginal.csv")
    print(f"wrote {stem}.csv ({grid.npts}x{grid.npts}, units={grid.units}, "
          f"s={grid.s_param:.6g}, mass={grid.total_mass():.6f})")
    return 0


def cmd_marginal(cfg: RunConfig, args):
    out = _outdir(cfg, args)
    spec = _state_spec(cfg, args)
    xmax = 5.0 * math.sqrt(1.0 + spec.eta_nbar) if args.xmax is None else args.xmax
    require_positive("xmax", xmax)
    require_integer("npts", args.npts, 2)
    xs = np.linspace(-xmax, xmax, args.npts)
    marg = phase_space.marginal_on_grid(phase_space.measured_marginal_general(spec), xs)
    path = out / f"marginal_n{args.n}.csv"
    phase_space.write_marginal(marg, path)
    print(f"wrote {path} (integral={marg.integral():.6f})")
    return 0


def cmd_variance(cfg: RunConfig, args):
    out = _outdir(cfg, args)
    chain = dynamics.characterize(cfg.params)
    t_max = 5.0 / chain.gamma_eff
    require_integer("npts", args.npts, 2)
    taus = np.linspace(-t_max, t_max, args.npts)
    curve = dynamics.variance_curve(cfg.params, args.n, taus)
    path = out / f"variance_n{args.n}.csv"
    dynamics.write_variance_curve(curve, path)
    peak = curve.values.max()
    inf = dynamics.steady_state_variance(cfg.params)
    print(f"wrote {path} (peak ratio {(peak - 1.0) / (inf - 1.0):.6f}, "
          f"steady state {inf:.6f})")
    return 0


def cmd_simulate(cfg: RunConfig, args):
    require_positive("click_seconds", args.click_seconds, zero_ok=True)
    out = _outdir(cfg, args)
    sim = cfg.sim_config(trace_len=args.trace_len, n_traces=args.n_traces)
    threads = _thread_count(args)
    ens = simulator.run_ensemble(sim, herald_kind=args.herald,
                                 threads=threads)
    base = out / f"ensemble_{args.herald}"
    simulator.save_ensemble(ens, base)
    curve = simulator.ensemble_variance(ens)
    dynamics.write_variance_curve(curve, out / f"empirical_variance_{args.herald}.csv")
    hist = simulator.herald_histogram(ens)
    stem = out / f"histogram_{args.herald}"
    phase_space.write_grid(hist, f"{stem}.csv", f"{stem}.json")

    report = {"herald_kind": args.herald, "n_traces": ens.n_traces,
              "calibration": {"vacuum_variance_expected": 1.0,
                              "sigma_sq_inf_analytic":
                                  dynamics.steady_state_variance(cfg.params)}}
    report.update(simulator.variance_ratio_report(ens) if ens.order
                  else {"sigma_sq_inf": float(np.mean(curve.values))})

    if args.click_seconds > 0:
        clicks = simulator.gated_click_stream(sim, args.click_seconds)
        simulator.write_clicks_csv(clicks, out / "clicks.csv")
        heralds = simulator.herald_select(
            clicks, args.herald if ens.order else "single")
        simulator.write_heralds_csv(heralds, out / f"heralds_{args.herald}.csv")
        budget_pred = budget_mod.build_report(cfg.params, cfg.spad)
        report["click_rates"] = {
            "duration_s": args.click_seconds,
            "singles_per_detector": {
                "0": float((clicks.detector == 0).sum() / clicks.duration),
                "1": float((clicks.detector == 1).sum() / clicks.duration)},
            "coincidences": float(
                simulator.herald_select(clicks, "coincidence").size
                / clicks.duration),
            "budget_singles_rate": budget_pred.singles_rate,
            "budget_coincidence_rate": budget_pred.coincidence_rate,
        }

    write_json(out / f"report_{args.herald}.json", report)
    if ens.order:
        print(f"peak ratio {report['peak_ratio']:.4f} "
              f"(ideal {report['ideal_ratio']}, filter-adjusted "
              f"{report['predicted_ratio']:.4f})")
    else:
        print(f"steady-state variance {report['sigma_sq_inf']:.4f} "
              f"(analytic {report['calibration']['sigma_sq_inf_analytic']:.4f})")
    return 0


def cmd_budget(cfg: RunConfig, args):
    out = _outdir(cfg, args)
    report = budget_mod.build_report(cfg.params, cfg.spad)
    report.to_json(out / "budget.json")
    print(budget_mod.format_table(report))
    return 0


def cmd_characterize(cfg: RunConfig, args):
    out = _outdir(cfg, args)
    try:
        powers = [float(p) for p in args.powers.split(",")] if args.powers \
            else [cfg.params.p_in]
    except ValueError:
        raise ConfigError(f"--powers must be comma-separated numbers, "
                          f"got {args.powers!r}") from None
    rows = [(p, dynamics.characterize(cfg.params.with_updates(p_in=p)))
            for p in powers]
    path = out / "characterization.csv"
    table = [(p, ch.n_cav, ch.coupling / (2 * math.pi), ch.cooperativity,
              ch.nbar_cooled, ch.gamma_eff / (2 * math.pi), ch.decay_time)
             for p, ch in rows]
    write_csv(path, "p_in,n_cav,G_over_2pi,cooperativity,nbar,"
              "gamma_eff_over_2pi,decay_time", list(zip(*table)))
    for p, ch in rows:
        print(f"P_in={p * 1e3:.3g} mW: N_cav={ch.n_cav:.4g}, "
              f"G/2pi={ch.coupling / 2 / math.pi / 1e6:.4g} MHz, "
              f"C={ch.cooperativity:.4g}, nbar={ch.nbar_cooled:.4g}, "
              f"1/gamma_eff={ch.decay_time * 1e9:.4g} ns")
    if args.fit:
        n_cavs = np.array([ch.n_cav for _, ch in rows])
        if n_cavs.size < 2:
            n_cavs = dynamics.characterize(cfg.params).n_cav \
                * np.linspace(0.2, 1.0, 5)
        g0_fit, gamma_fit = dynamics.fit_g0_from_spectra(cfg.params, n_cavs)
        rel = abs(g0_fit - cfg.params.g0) / cfg.params.g0
        print(f"spectrum fit: g0/2pi={g0_fit / 2 / math.pi:.4g} Hz "
              f"(input {cfg.params.g0 / 2 / math.pi:.4g} Hz, "
              f"relative error {rel:.2%})")
    print(f"wrote {path}")
    return 0


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
                             "(default: PHONON_FORGE_THREADS or all cores)")
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
    p.add_argument("--units", choices=[phase_space.UNITS_ZERO_POINT,
                                       phase_space.UNITS_HETERODYNE])
    p.set_defaults(func=cmd_wigner)

    p = sub.add_parser("marginal", help="closed-form detected marginal")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--eta", type=float)
    p.add_argument("--nbar", type=float)
    p.add_argument("--xmax", type=float)
    p.add_argument("--npts", type=int, default=1001)
    p.set_defaults(func=cmd_marginal)

    p = sub.add_parser("variance", help="analytic heralded variance curve")
    p.add_argument("--n", type=int, choices=(1, 2), required=True)
    p.add_argument("--npts", type=int, default=2001)
    p.set_defaults(func=cmd_variance)

    p = sub.add_parser("simulate", help="run the stochastic emulator")
    p.add_argument("--herald", choices=simulator._HERALD_KINDS,
                   default=simulator.HERALD_SINGLE)
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


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = load_config(args.config)
        return args.func(cfg, args)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except NumericsError as exc:
        print(f"numerical validity error: {exc}", file=sys.stderr)
        return 3
    except PhononForgeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
