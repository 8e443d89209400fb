"""``clicks`` workload: the gated single-photon click stream and its heralds.

A round runs ``gated_click_stream`` over several simulated seconds with the
default ``SpadConfig`` on one thread, then ``herald_select`` for singles and
coincidences, ``write_clicks_csv``, ``write_heralds_csv`` and
``budget.build_report``.  It uses ``FieldModel`` differently from the
ensemble (many fine ``cfg.dt`` steps on gate-wide vectors, then thinning,
dark counts and the Python dead-time loop) and never touches
``evolve_block``, demodulation or the ensemble reductions, so ensemble-side
changes are predicted not to move it.
"""

from __future__ import annotations

import dataclasses
import math
import time
import warnings
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from phonon_forge import budget, simulator

from . import checks, common
from .spans import Tracer

DARK_FRACTION_LIMIT = 0.01


def config(seed, round_idx):
    return simulator.SimConfig(seed=common.derive_seed(seed, "clicks", round_idx))


@dataclasses.dataclass
class Outputs:
    clicks: simulator.ClickStream
    singles: np.ndarray
    coincidences: np.ndarray
    report: budget.BudgetReport
    paths: dict


def run_round(cfg, sim_seconds, workdir, tracer=None):
    span = tracer.span if tracer else (lambda name: nullcontext())
    workdir = Path(workdir)
    paths = {name: workdir / f"{name}.csv"
             for name in ("clicks", "heralds_single", "heralds_coincidence")}
    with span("simulator.gated_click_stream"):
        clicks = simulator.gated_click_stream(cfg, sim_seconds)
    with span("simulator.herald_select"):
        singles = simulator.herald_select(clicks, "single")
    with span("simulator.herald_select"):
        coinc = simulator.herald_select(clicks, "coincidence")
    with span("simulator.write_clicks_csv"):
        simulator.write_clicks_csv(clicks, paths["clicks"])
    with span("simulator.write_heralds_csv"):
        simulator.write_heralds_csv(singles, paths["heralds_single"])
    with span("simulator.write_heralds_csv"):
        simulator.write_heralds_csv(coinc, paths["heralds_coincidence"])
    with span("budget.build_report"):
        report = budget.build_report(cfg.params, cfg.spad)
    return Outputs(clicks, singles, coinc, report, paths)


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of problems (empty means correct)
# ---------------------------------------------------------------------------

def check_stream(clicks, spad, singles_rate, sim_seconds):
    """Per-detector singles against the budget, dead time, dark fraction.

    Real clicks per detector are Poisson with mean singles_rate * duration
    (the thermal excess n_det over Poisson is included).  Gates are 20 us
    apart and the dead time is 18 us, so dead time removes only same-gate
    repeats, a loss of order n_det^2 that the tolerance need not carry.  The
    dark fraction passes unless it exceeds 1% by K_SIGMA binomial errors.
    """
    problems = []
    if not np.all(np.isfinite(clicks.times)):
        return ["click times hold NaN or inf"]
    if np.any(np.diff(clicks.times) < 0) or clicks.times.size and (
            clicks.times[0] < 0 or clicks.times[-1] >= sim_seconds):
        problems.append("click times unsorted or outside the run")
    n_det = singles_rate / spad.gate_rate
    mean = singles_rate * sim_seconds
    for d in (0, 1):
        mine = clicks.detector == d
        problems += checks.poisson_within(f"real singles on detector {d}",
                                          int((mine & ~clicks.is_dark).sum()),
                                          mean, overdispersion=1.0 + n_det)
        gaps = np.diff(clicks.times[mine])
        if gaps.size and gaps.min() < spad.dead_time:
            problems.append(f"detector {d} events {gaps.min():.3g} s apart, "
                            f"dead time {spad.dead_time:.3g} s")
    n = clicks.times.size
    n_dark = int(clicks.is_dark.sum())
    limit = DARK_FRACTION_LIMIT * n + checks.K_SIGMA * math.sqrt(
        n * DARK_FRACTION_LIMIT * (1.0 - DARK_FRACTION_LIMIT))
    if n_dark > limit:
        problems.append(f"{n_dark} of {n} events dark, above 1% "
                        f"by more than {checks.K_SIGMA:g} sigma")
    return problems


def check_heralds(clicks, singles, coinc, coincidence_rate, sim_seconds):
    """Singles are every event; coincidences are the gates both detectors hit."""
    problems = []
    if not np.array_equal(singles, clicks.times):
        problems.append("single heralds differ from the click times")
    gates = [np.floor(clicks.times[clicks.detector == d] * clicks.gate_rate)
             for d in (0, 1)]
    both = np.intersect1d(gates[0], gates[1])
    expected = both / clicks.gate_rate + 0.5 * clicks.gate_len
    if coinc.size != expected.size or not np.allclose(np.sort(coinc), expected,
                                                      rtol=0, atol=1e-12):
        problems.append(f"{coinc.size} coincidence heralds, "
                        f"{both.size} gates with two detectors")
    problems += checks.poisson_within("coincidences", coinc.size,
                                      coincidence_rate * sim_seconds)
    return problems


def check_csv(path, column_values):
    """The file holds a header plus one row per value, matching exactly."""
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", UserWarning)     # header-only file
        data = np.loadtxt(path, delimiter=",", skiprows=1, ndmin=2)
    got = data[:, 0] if data.size else np.empty(0)
    expected = np.asarray(column_values, dtype=float)
    if not np.array_equal(got, expected):
        return [f"{Path(path).name}: {got.size} rows differ from "
                f"{expected.size} values"]
    return checks.non_finite_problems([path])


def check_outputs(tally, cfg, out, sim_seconds):
    with tally.op("gated_click_stream") as problems:
        problems += check_stream(out.clicks, cfg.spad, out.report.singles_rate,
                                 sim_seconds)
    with tally.op("herald_select") as problems:
        problems += check_heralds(out.clicks, out.singles, out.coincidences,
                                  out.report.coincidence_rate, sim_seconds)
    with tally.op("write_clicks_csv") as problems:
        problems += check_csv(out.paths["clicks"], out.clicks.times)
    with tally.op("write_heralds_csv") as problems:
        problems += check_csv(out.paths["heralds_single"], out.singles)
        problems += check_csv(out.paths["heralds_coincidence"], out.coincidences)


# ---------------------------------------------------------------------------
# tasks run in a worker process
# ---------------------------------------------------------------------------

def measure(seed, seconds, sizes, workdir):
    """Timed rounds until `seconds` have passed; simulated seconds per second.

    Peak RSS is the process's high-water mark over the rounds.
    """
    tally = checks.Tally()
    rates = []
    start = time.perf_counter()
    r = 0
    while r == 0 or time.perf_counter() - start < seconds:
        cfg = config(seed, r)
        with tally.op("round") as problems:
            t0 = time.perf_counter()
            out = run_round(cfg, sizes["sim_seconds"], workdir)
            wall = time.perf_counter() - t0
        if not problems:
            rates.append(sizes["sim_seconds"] / wall)
            check_outputs(tally, cfg, out, sizes["sim_seconds"])
        out = None      # not held through the next round's peak
        r += 1
    return {"work_per_s": common.median(rates) if rates else float("nan"),
            "peak_rss_mb": common.self_peak_rss_mb(), "rounds": r,
            "round_rates": rates, **tally.as_dict()}


def traced(seed, sizes, workdir, run_id):
    """One plain and one traced round on the same inputs."""
    tally = checks.Tally()
    cfg = config(seed, 0)
    sim_seconds = sizes["sim_seconds"]
    # an untimed short stream first, so first-call costs fall on neither round
    simulator.gated_click_stream(cfg, min(sim_seconds, 0.1))
    t0 = time.perf_counter()
    run_round(cfg, sim_seconds, workdir)
    plain_s = time.perf_counter() - t0

    tracer = Tracer(run_id)
    targets = [(simulator.FieldModel, "__init__", "simulator.model_setup", None)]
    targets += [(simulator.FieldModel, name, "simulator.click_field", None)
                for name in ("stationary_sample", "step_states")]
    with tracer.wrapping(targets), tracer.span("bench.clicks_pass"):
        out = run_round(cfg, sim_seconds, workdir, tracer)
    check_outputs(tally, cfg, out, sim_seconds)

    clicks = out.clicks
    n_gates = int(clicks.meta["n_gates"])
    stream_s = tracer.total("simulator.gated_click_stream")
    metrics = {
        "simulator.click_stream_s": stream_s,
        "simulator.click_field_s": tracer.total("simulator.click_field"),
        "simulator.gates": float(n_gates),
        "simulator.click_events": float(clicks.n_events),
        "simulator.clicks_per_gate": clicks.n_events / n_gates,
        "simulator.dark_frac": float(clicks.is_dark.mean()),
        "simulator.herald_select_s": tracer.total("simulator.herald_select"),
        "simulator.write_clicks_s": tracer.total("simulator.write_clicks_csv"),
        "simulator.write_heralds_s": tracer.total("simulator.write_heralds_csv"),
        "simulator.click_model_setup_s": tracer.total("simulator.model_setup",
                                                      inclusive=False),
        "trace.clicks_overhead_frac":
            tracer.total("bench.clicks_pass") / plain_s - 1.0,
    }
    tracer.write(Path(workdir).parent / "spans.jsonl")
    return {"metrics": metrics, "spans": len(tracer.spans),
            "peak_rss_mb": common.self_peak_rss_mb(), **tally.as_dict()}
