"""``cli`` workload: a closed loop of one client running CLI subcommands.

Each command runs in a fresh ``python -m phonon_forge.cli`` process with an
explicit ``--threads``, and the next starts when the previous one ends.  A
cycle is ``budget``, ``characterize --fit``, ``variance --n 2``,
``marginal --n 2``, ``wigner --n 1`` and ``simulate`` at the default
trace_len 12500 (256-trace chunks, ``.npz`` persistence) with a small
``--n-traces`` and a short ``--click-seconds``.  This is what an
interactive user pays per command: mostly the import, plus the ``%.17g``
writers (the wigner grid is 16 MB).
"""

from __future__ import annotations

import dataclasses
import json
import math
import re
import shutil
import statistics
import sys
import time
from pathlib import Path

import numpy as np
from scipy.integrate import quad

from phonon_forge import budget, dynamics, phase_space, simulator
from phonon_forge.params import default_params, default_spad

from . import checks, common, ensemble
from .spans import LayerError, Tracer

COMMANDS = ("budget", "characterize", "variance", "marginal", "wigner", "simulate")
F_CAV_RANGE = (0.5e8, 5e8)      # the order of magnitude quoted for the device
IMPORT_MODULES = ("phonon_stats", "phase_space", "dynamics", "simulator", "cli")


def command_args(name, sizes):
    return {"budget": ["budget"],
            "characterize": ["characterize", "--fit"],
            "variance": ["variance", "--n", "2"],
            "marginal": ["marginal", "--n", "2"],
            "wigner": ["wigner", "--n", "1"],
            "simulate": ["simulate", "--n-traces", str(sizes["n_traces"]),
                         "--click-seconds", str(sizes["click_seconds"])]}[name]


@dataclasses.dataclass
class Result:
    name: str
    returncode: int
    wall_s: float
    peak_rss_mb: float
    stderr: str
    out_dir: Path


def run_command(name, sizes, config_path, out_dir):
    out_dir = Path(out_dir)
    out_dir.mkdir(parents=True, exist_ok=True)
    cmd = [sys.executable, "-m", "phonon_forge.cli", "--config", str(config_path),
           "--threads", str(sizes["threads"]), "--out", str(out_dir),
           *command_args(name, sizes)]
    stderr = Path(f"{out_dir}.stderr")
    rc, wall, rss = common.run_child(cmd, common.ROOT, f"{out_dir}.stdout", stderr)
    return Result(name, rc, wall, rss, stderr.read_text(), out_dir)


def write_config(seed, round_idx, workdir):
    path = Path(workdir) / f"config_{round_idx}.json"
    path.write_text(json.dumps({"seed": common.derive_seed(seed, "cli", round_idx)}))
    return path


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of problems (empty means correct)
# ---------------------------------------------------------------------------

def _csv(path):
    return np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)


def _cooled_spec(params, n):
    nbar = dynamics.characterize(params).nbar_cooled
    return phase_space.StateSpec(nbar=nbar, n=n, eta=params.eta_total)


def check_budget(out_dir, params):
    f_cav = json.loads((out_dir / "budget.json").read_text())["f_cav"]
    lo, hi = F_CAV_RANGE
    return [] if lo <= f_cav <= hi else [f"F_cav {f_cav:.4g} outside [{lo:g}, {hi:g}]"]


def check_characterize(out_dir, params):
    rows = _csv(out_dir / "characterization.csv")
    return [] if rows.shape == (1, 7) else [f"characterization rows {rows.shape}"]


def check_variance(out_dir, params):
    """The analytic n=2 peak ratio is exactly 3 (to float rounding)."""
    values = _csv(out_dir / "variance_n2.csv")[:, 1]
    sigma_inf = 1.0 + params.eta_total * params.nbar_th
    ratio = (values.max() - 1.0) / (sigma_inf - 1.0)
    return [] if abs(ratio - 3.0) <= 1e-9 else [f"n=2 peak ratio {ratio:.12g}, not 3"]


def check_marginal(out_dir, params):
    """The written marginal integrates to 1 minus the closed form's tails.

    The tails beyond the written range come from quadrature of the closed
    form; the tolerance is the trapezoid rule's error bound,
    (b - a) h^2 max|f''| / 12, with f'' taken from the written samples.
    """
    data = _csv(out_dir / "marginal_n2.csv")
    xs, dens = data[:, 0], data[:, 1]
    func = phase_space.measured_marginal(_cooled_spec(params, 2))
    tails = quad(func, -np.inf, xs[0])[0] + quad(func, xs[-1], np.inf)[0]
    h = xs[1] - xs[0]
    f2 = np.abs(np.diff(dens, 2)).max() / h ** 2
    bound = (xs[-1] - xs[0]) * h ** 2 * f2 / 12.0
    integral = float(np.trapezoid(dens, xs))
    if abs(integral - (1.0 - tails)) > bound + 1e-12:
        return [f"marginal integral {integral:.9f}, expected {1 - tails:.9f} "
                f"+- {bound:.2g}"]
    return []


def check_wigner(out_dir, params):
    """The grid's mass is 1 less what lies outside the square grid.

    The mass outside lies between T and 2T, T being the closed-form
    detected marginal's two-sided tail beyond the half width; the node sum
    may differ from the integral by the weight of the boundary nodes.
    """
    header = json.loads((out_dir / "wigner_n1.json").read_text())
    values = _csv(out_dir / "wigner_n1.csv")[:, 2].reshape(header["npts"], header["npts"])
    cell = 2.0 * header["half_width"] / (header["npts"] - 1)
    mass = float(values.sum()) * cell ** 2
    eta = params.eta_total
    func = phase_space.measured_marginal(_cooled_spec(params, 1))
    tail = 2.0 * quad(func, header["half_width"] * math.sqrt(eta), np.inf)[0]
    edge = (values[0].sum() + values[-1].sum() + values[:, 0].sum()
            + values[:, -1].sum()) * cell ** 2
    if not 1.0 - 2.0 * tail - edge <= mass <= 1.0 - tail + edge:
        return [f"wigner mass {mass:.9f} outside [{1 - 2 * tail - edge:.9f}, "
                f"{1 - tail + edge:.9f}]"]
    return []


def check_simulate(out_dir, params, sizes):
    """The saved ensemble and the report agree; click singles match the budget.

    A few hundred traces are too few for a Monte-Carlo gate on the peak
    ratio (see ensemble.check_report), so the report is checked for
    consistency with the saved ensemble.  The report's singles count every
    event of a detector, dark ones too.
    """
    report = json.loads((out_dir / "report_single.json").read_text())
    ens = simulator.load_ensemble(out_dir / "ensemble_single")
    problems = ensemble.check_ensemble(ens, sizes["n_traces"])
    if problems:
        return problems
    sigma_inf = 1.0 + params.eta_total * params.nbar_th
    ratio = simulator.DemodPlan(simulator.SimConfig(params=params)).predicted_ratio(1)
    problems += ensemble.check_report_consistency(ens, report, sigma_inf, ratio)
    recomputed = simulator.variance_ratio_report(ens)
    problems += [f"report {k} differs from the saved ensemble's"
                 for k, v in recomputed.items() if report[k] != v]
    rates = report["click_rates"]
    duration = rates["duration_s"]
    spad = default_spad()
    expected = budget.build_report(params, spad).singles_rate + spad.registered_dark_rate
    for det, rate in rates["singles_per_detector"].items():
        problems += checks.poisson_within(f"simulate singles on detector {det}",
                                          rate * duration, expected * duration)
    return problems


HEADLINE_CHECKS = {"budget": check_budget, "characterize": check_characterize,
                   "variance": check_variance, "marginal": check_marginal,
                   "wigner": check_wigner}


def check_command(res, sizes, params):
    if res.returncode != 0:
        return [f"exit code {res.returncode}: {res.stderr.strip()[-300:]}"]
    files = sorted(p for p in res.out_dir.iterdir() if p.is_file())
    problems = checks.non_finite_problems(files)
    if res.name == "simulate":
        problems += check_simulate(res.out_dir, params, sizes)
    else:
        problems += HEADLINE_CHECKS[res.name](res.out_dir, params)
    return problems


def _bytes(out_dir):
    return sum(p.stat().st_size for p in Path(out_dir).iterdir() if p.is_file())


def run_cycle(seed, r, sizes, workdir, tally, params):
    config_path = write_config(seed, r, workdir)
    results = []
    for name in COMMANDS:
        res = run_command(name, sizes, config_path, Path(workdir) / f"c{r}_{name}")
        with tally.op(f"cli {name}") as problems:
            problems += check_command(res, sizes, params)
        shutil.rmtree(res.out_dir)
        results.append(res)
    return results


# ---------------------------------------------------------------------------
# tasks run in a worker process
# ---------------------------------------------------------------------------

def measure(seed, seconds, sizes, workdir):
    """Whole cycles until `seconds` have passed; commands per second.

    Peak RSS is the median over cycles of the largest command's peak.
    """
    tally = checks.Tally()
    params = default_params()
    rates, peaks = [], []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        results = run_cycle(seed, r, sizes, workdir, tally, params)
        rates.append(len(results) / sum(res.wall_s for res in results))
        peaks.append(max(res.peak_rss_mb for res in results))
        r += 1
    return {"work_per_s": common.median(rates), "peak_rss_mb": common.median(peaks),
            "cycles": r, "cycle_rates": rates, "cycle_peak_rss_mb": peaks,
            **tally.as_dict()}


def import_times(workdir, reps):
    """Cumulative import seconds per module, from ``python -X importtime``.

    A module of the package that ``import phonon_forge.cli`` does not load
    costs that import nothing and reads 0; a module that is gone raises
    LayerError rather than reading 0.
    """
    gone = [m for m in IMPORT_MODULES if not (common.PACKAGE / f"{m}.py").is_file()]
    if gone:
        raise LayerError(f"modules not in the package: {gone}")
    pattern = re.compile(r"^import time:\s+\d+\s+\|\s+(\d+)\s+\|\s+(\S.*)$")
    samples = {m: [] for m in IMPORT_MODULES}
    for i in range(reps):
        rc, _, _, _, err = common.run_python(
            ["-X", "importtime", "-c", "import phonon_forge.cli"], workdir,
            f"importtime{i}")
        if rc != 0:
            raise LayerError(f"import phonon_forge.cli exited with {rc}: {err[-300:]}")
        for line in err.splitlines():
            match = pattern.match(line)
            if match and match.group(2).strip().startswith("phonon_forge."):
                module = match.group(2).strip().split(".", 1)[1]
                if module in samples:
                    samples[module].append(int(match.group(1)) * 1e-6)
    return {f"{m}.import_s": statistics.median(v) if v else 0.0
            for m, v in samples.items()}


def traced(seed, sizes, workdir, run_id):
    """One traced cycle, import times, and in-process calls of each layer."""
    tally = checks.Tally()
    params = default_params()
    tracer = Tracer(run_id)
    workdir = Path(workdir)
    config_path = write_config(seed, 0, workdir)
    nbytes = 0
    with tracer.span("bench.cli_cycle"):
        for name in COMMANDS:
            with tracer.span(f"cli.{name}"):
                res = run_command(name, sizes, config_path, workdir / f"t_{name}")
            with tally.op(f"cli {name}") as problems:
                problems += check_command(res, sizes, params)
            nbytes += _bytes(res.out_dir)
            shutil.rmtree(res.out_dir)

    # the layers the commands use, called in-process with the commands' inputs
    layer_dir = workdir / "layers"
    layer_dir.mkdir(exist_ok=True)
    chain = dynamics.characterize(params)
    with tracer.span("phase_space.wigner_s"):
        grid = phase_space.wigner_s(_cooled_spec(params, 1), phase_space.GridConfig())
    with tracer.span("phase_space.write_grid"):
        phase_space.write_grid(grid, layer_dir / "grid.csv", layer_dir / "grid.json")
    with tracer.span("phase_space.write_marginal"):
        phase_space.write_marginal(phase_space.marginal_from_grid(grid),
                                   layer_dir / "grid_marginal.csv")
    spec2 = _cooled_spec(params, 2)
    xmax = 5.0 * math.sqrt(1.0 + spec2.eta_nbar)
    marg = phase_space.marginal_on_grid(phase_space.measured_marginal(spec2),
                                        np.linspace(-xmax, xmax, 1001))
    with tracer.span("phase_space.write_marginal"):
        phase_space.write_marginal(marg, layer_dir / "marginal.csv")
    with tracer.span("dynamics.fit_g0_from_spectra"):
        dynamics.fit_g0_from_spectra(params, chain.n_cav * np.linspace(0.2, 1.0, 5))
    t_max = 5.0 / chain.gamma_eff
    curve = dynamics.variance_curve(params, 2, np.linspace(-t_max, t_max, 2001))
    with tracer.span("dynamics.write_variance_curve"):
        dynamics.write_variance_curve(curve, layer_dir / "variance.csv")
    with tracer.span("budget.build_report"):
        budget.build_report(params, default_spad())
    shutil.rmtree(layer_dir)

    metrics = {f"cli.{name}_s": tracer.total(f"cli.{name}") for name in COMMANDS}
    metrics.update({
        "cli.bytes_written": float(nbytes),
        "phase_space.wigner_s_s": tracer.total("phase_space.wigner_s"),
        "phase_space.write_grid_s": tracer.total("phase_space.write_grid"),
        "phase_space.write_marginal_s": tracer.total("phase_space.write_marginal"),
        "dynamics.fit_g0_s": tracer.total("dynamics.fit_g0_from_spectra"),
        "dynamics.write_variance_curve_s":
            tracer.total("dynamics.write_variance_curve"),
        "budget.build_report_s": tracer.total("budget.build_report"),
    })
    metrics.update(import_times(workdir, sizes["importtime_reps"]))
    tracer.write(workdir.parent / "spans.jsonl")
    return {"metrics": metrics, "spans": len(tracer.spans),
            "peak_rss_mb": common.self_peak_rss_mb(), **tally.as_dict()}
