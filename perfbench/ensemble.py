"""``ensemble`` workload: the heralded heterodyne Monte-Carlo.

This is the paper's headline result (variance doubling and tripling at the
herald) and about 85% of the Tier-1 suite's time.  A round simulates a
``single`` and a ``coincidence`` ensemble with ``run_ensemble`` at two
threads, in the shape of acceptance criterion 4 (trace_len 3125,
1024-trace chunks, default parameters), and passes each through
``variance_ratio_report``, ``herald_histogram`` and a ``save_ensemble`` ->
``load_ensemble`` round trip.  Field propagation is about 80% of the work,
so propagation, RNG, demodulation and chunk-memory changes show here.
"""

from __future__ import annotations

import dataclasses
import hashlib
import os
import time
from contextlib import nullcontext
from pathlib import Path

import numpy as np

from phonon_forge import simulator

from . import checks, common
from .spans import Tracer

KINDS = ("single", "coincidence")
ORDER = {"single": 1, "coincidence": 2}


def config(seed, round_idx, sizes):
    return simulator.SimConfig(trace_len=sizes["trace_len"],
                               chunk_traces=sizes["chunk_traces"],
                               seed=common.derive_seed(seed, "ensemble", round_idx))


@dataclasses.dataclass
class Outputs:
    ens: simulator.TraceEnsemble
    report: dict
    hist: object
    loaded: simulator.TraceEnsemble
    nbytes: int


def run_kind(cfg, kind, sizes, workdir, tracer=None, tag=""):
    """run_ensemble -> report -> histogram -> save/load for one herald kind.

    The ensemble is saved as ``ensemble_<kind><tag>`` in workdir.
    """
    span = tracer.span if tracer else (lambda name: nullcontext())
    with span("simulator.run_ensemble"):
        ens = simulator.run_ensemble(cfg, kind, n_traces=sizes["n_traces"],
                                     threads=sizes["threads"])
    with span("simulator.variance_ratio_report"):
        report = simulator.variance_ratio_report(ens)
    with span("simulator.herald_histogram"):
        hist = simulator.herald_histogram(ens)
    base = Path(workdir) / f"ensemble_{kind}{tag}"
    with span("simulator.save_ensemble"):
        simulator.save_ensemble(ens, base)
    with span("simulator.load_ensemble"):
        loaded = simulator.load_ensemble(base)
    nbytes = sum(os.path.getsize(f"{base}{ext}") for ext in (".npz", ".json"))
    return Outputs(ens, report, hist, loaded, nbytes)


def expectations(cfg):
    """Steady-state variance 1 + eta nbar_th and the filter-adjusted ratios."""
    plan = simulator.DemodPlan(cfg)
    sigma_inf = 1.0 + cfg.params.eta_total * cfg.params.nbar_th
    return sigma_inf, {kind: plan.predicted_ratio(ORDER[kind]) for kind in KINDS}


# ---------------------------------------------------------------------------
# correctness checks: each returns a list of problems (empty means correct)
# ---------------------------------------------------------------------------

def check_ensemble(ens, n_traces):
    problems = []
    if ens.z.shape[0] != n_traces or ens.weights.shape != (n_traces,):
        problems.append(f"shape {ens.z.shape}/{ens.weights.shape}, "
                        f"expected {n_traces} traces")
    if not np.all(np.isfinite(ens.z)):
        problems.append("z holds NaN or inf")
    if not (np.all(np.isfinite(ens.weights)) and np.all(ens.weights >= 0)
            and ens.weights.sum() > 0):
        problems.append("weights not finite, negative or all zero")
    return problems


def check_report_consistency(ens, report, sigma_inf_expected, ratio_expected):
    """The report's entries agree with each other and with the inputs.

    Exact up to float rounding: finite values, the ratio computed from the
    two variances, the Kish effective sample size (sum w)^2 / sum w^2, and
    the expectations carried over from the configuration.
    """
    values = {k: v for k, v in report.items() if isinstance(v, float)}
    if not all(np.isfinite(v) for v in values.values()):
        return [f"report holds NaN or inf: {values}"]
    w = ens.weights
    derived = {
        "peak_ratio": (report["sigma_sq_peak"] - 1.0) / (report["sigma_sq_inf"] - 1.0),
        "effective_samples": float(w.sum() ** 2 / np.sum(w ** 2)),
        "ideal_ratio": 1.0 + ens.order,
        "predicted_ratio": ratio_expected,
        "sigma_sq_inf_expected": sigma_inf_expected,
    }
    return [f"report {k} = {report[k]!r}, expected {v!r}"
            for k, v in derived.items()
            if not np.isclose(report[k], v, rtol=1e-12, atol=0.0)]


def pool(ensembles):
    """One ensemble of the traces of several runs of the same configuration."""
    return dataclasses.replace(ensembles[0],
                               z=np.concatenate([e.z for e in ensembles]),
                               weights=np.concatenate([e.weights for e in ensembles]))


def check_report(ens, report, sigma_inf_expected, ratio_expected):
    """peak_ratio and sigma_sq_inf within K_SIGMA jackknife errors.

    Meant for pooled ensembles of about 10 000 traces.  The weights
    |a0|^(2n) are heavy-tailed, so an ensemble that misses the rare large
    weights reads low and also reports a small error: at 2048 coincidence
    traces, 2 of 60 ensembles gave z below -4.  Pooling shrinks this tail.
    """
    def estimate(keep):
        sub = dataclasses.replace(ens, z=ens.z[keep], weights=ens.weights[keep])
        rep = simulator.variance_ratio_report(sub)
        return rep["peak_ratio"], rep["sigma_sq_inf"]

    se = checks.jackknife_se(estimate, ens.n_traces)
    return (checks.within("peak_ratio", report["peak_ratio"], ratio_expected, se[0])
            + checks.within("sigma_sq_inf", report["sigma_sq_inf"],
                            sigma_inf_expected, se[1]))


def check_histogram(ens, hist):
    """Histogram mass equals the weight share of herald samples inside it."""
    values = np.asarray(hist.values)
    if not (np.all(np.isfinite(values)) and np.all(values >= 0)):
        return ["histogram holds NaN, inf or negative values"]
    z0 = ens.z[:, ens.herald_col]
    edge = hist.half_width + hist.cell / 2.0
    inside = (np.abs(z0.real) <= edge) & (np.abs(z0.imag) <= edge)
    expected = float(ens.weights[inside].sum() / ens.weights.sum())
    mass = hist.total_mass()
    if abs(mass - expected) > 1e-9:
        return [f"histogram mass {mass:.12g}, in-range weight share {expected:.12g}"]
    return []


def check_roundtrip(ens, loaded):
    problems = [f"{name} differs after load"
                for name in ("z", "taus", "weights")
                if not np.array_equal(getattr(ens, name), getattr(loaded, name))]
    problems += [f"{name} differs after load"
                 for name in ("herald_col", "herald_kind", "margin_cols", "units",
                              "meta")
                 if getattr(ens, name) != getattr(loaded, name)]
    return problems


def check_outputs(tally, kind, out, n_traces, sigma_inf, ratios):
    with tally.op(f"run_ensemble[{kind}]") as problems:
        problems += check_ensemble(out.ens, n_traces)
    with tally.op(f"variance_ratio_report[{kind}]") as problems:
        problems += check_report_consistency(out.ens, out.report, sigma_inf,
                                             ratios[kind])
    with tally.op(f"herald_histogram[{kind}]") as problems:
        problems += check_histogram(out.ens, out.hist)
    with tally.op(f"save_load[{kind}]") as problems:
        problems += check_roundtrip(out.ens, out.loaded)


def digest(ens):
    return hashlib.sha256(np.ascontiguousarray(ens.z).tobytes()
                          + np.ascontiguousarray(ens.weights).tobytes()).hexdigest()


# ---------------------------------------------------------------------------
# tasks run in a worker process
# ---------------------------------------------------------------------------

def _round(tally, cfg, r, sizes, workdir, expected, rss, peaks):
    """One timed round and its checks; returns its wall time (None if it failed).

    Each ensemble's peak RSS is appended to peaks.  Each ensemble is saved
    as ``ensemble_<kind>_<r>`` for the pooled check; nothing of the round
    stays in memory once it returns.
    """
    outputs = {}
    with tally.op("round") as problems:
        t0 = time.perf_counter()
        for kind in KINDS:
            rss.take()
            outputs[kind] = run_kind(cfg, kind, sizes, workdir, tag=f"_{r}")
            peaks.append(rss.take())
        wall = time.perf_counter() - t0
    for kind, out in outputs.items():
        check_outputs(tally, kind, out, sizes["n_traces"], *expected)
    return None if problems else wall


def measure(seed, seconds, sizes, workdir):
    """Timed rounds until `seconds` have passed; traces per second per round.

    Peak RSS is the median over ensembles of each ensemble's peak (see
    common.RssSampler); the high-water mark goes to the results file.  The
    Monte-Carlo accuracy is checked once per kind after the timed rounds, on
    the saved ensembles of all rounds pooled.
    """
    tally = checks.Tally()
    expected = expectations(config(seed, 0, sizes))
    rates, peaks = [], []
    start = time.perf_counter()
    r = 0
    with common.RssSampler() as rss:
        while r == 0 or time.perf_counter() - start < seconds:
            wall = _round(tally, config(seed, r, sizes), r, sizes, workdir,
                          expected, rss, peaks)
            if wall is not None:
                rates.append(len(KINDS) * sizes["n_traces"] / wall)
            r += 1
    high_water = common.self_peak_rss_mb()
    sigma_inf, ratios = expected
    for kind in KINDS:
        with tally.op(f"variance_ratio_report[{kind}, pooled]") as problems:
            saved = sorted(Path(workdir).glob(f"ensemble_{kind}_*.npz"))
            ens = pool([simulator.load_ensemble(p.with_suffix("")) for p in saved])
            problems += check_report(ens, simulator.variance_ratio_report(ens),
                                     sigma_inf, ratios[kind])
    return {"work_per_s": common.median(rates) if rates else float("nan"),
            "peak_rss_mb": common.median(peaks), "rounds": r, "round_rates": rates,
            "ensemble_peak_rss_mb": peaks, "rss_high_water_mb": high_water,
            **tally.as_dict()}


def reference(seed, sizes, workdir):
    """Untraced run at the workload's thread count: digests and throughput."""
    cfg = config(seed, 0, sizes)
    t0 = time.perf_counter()
    ens = {kind: simulator.run_ensemble(cfg, kind, n_traces=sizes["n_traces"],
                                        threads=sizes["threads"])
           for kind in KINDS}
    wall = time.perf_counter() - t0
    return {"digests": {kind: digest(e) for kind, e in ens.items()},
            "traces_per_s": len(KINDS) * sizes["n_traces"] / wall,
            "peak_rss_mb": common.self_peak_rss_mb(), "attempted": 0, "failed": 0,
            "failures": []}


def traced(seed, sizes, workdir, run_id, ref_digests):
    """Single-threaded plain and traced passes over the reference's inputs.

    Checks that z and weights are bit-identical across thread counts and
    between the plain and traced passes, and reports per-layer times.  One
    round is too small for the Monte-Carlo gate, which the untraced runs
    apply to their pooled rounds.
    """
    tally = checks.Tally()
    cfg = config(seed, 0, sizes)
    n = sizes["n_traces"]
    sigma_inf, ratios = expectations(cfg)

    # an untimed small run first, so first-call costs fall on neither pass
    simulator.run_ensemble(cfg, KINDS[0], n_traces=min(n, 64), threads=1)
    t0 = time.perf_counter()
    plain = {kind: simulator.run_ensemble(cfg, kind, n_traces=n, threads=1)
             for kind in KINDS}
    wall_1t = time.perf_counter() - t0

    tracer = Tracer(run_id)
    shapes = []
    targets = [
        (simulator.FieldModel, "__init__", "simulator.model_setup", None),
        (simulator.DemodPlan, "__init__", "simulator.model_setup", None),
        (simulator.FieldModel, "stationary_sample", "simulator.propagate", None),
        (simulator.FieldModel, "evolve_block", "simulator.propagate",
         lambda res: shapes.append(np.shape(res[1]))),
        (simulator.DemodPlan, "voltage_from_field", "simulator.voltage", None),
        (simulator.DemodPlan, "demodulate", "simulator.demod", None),
        (simulator, "ensemble_variance", "simulator.ensemble_variance", None),
    ]
    one_thread = {**sizes, "threads": 1}
    with tracer.wrapping(targets), tracer.span("bench.ensemble_pass"):
        outputs = {kind: run_kind(cfg, kind, one_thread, workdir, tracer)
                   for kind in KINDS}

    # reference cost of the random numbers alone: the same Philox drawing four
    # real normals per propagated field sample, in the propagator's shapes
    rng = np.random.Generator(np.random.Philox(common.derive_seed(seed, "rng_ref")))
    with tracer.span("bench.rng_ref"):
        for shape in shapes:
            for _ in range(4):
                rng.standard_normal(shape)

    for kind in KINDS:
        with tally.op(f"thread_invariance[{kind}]") as problems:
            got = {"2 threads": ref_digests[kind], "1 thread": digest(plain[kind]),
                   "1 thread traced": digest(outputs[kind].ens)}
            if len(set(got.values())) != 1:
                problems.append("z/weights differ: " + ", ".join(
                    f"{k} {v[:12]}" for k, v in got.items()))
        check_outputs(tally, kind, outputs[kind], n, sigma_inf, ratios)

    root = next(i for i, s in enumerate(tracer.spans) if s[0] == "bench.ensemble_pass")
    pass_s = tracer.duration(root)
    unspanned = tracer.self_times()[root]
    traced_run_s = tracer.total("simulator.run_ensemble")
    metrics = {
        "simulator.propagate_s": tracer.total("simulator.propagate"),
        "simulator.field_samples": float(sum(int(np.prod(s)) for s in shapes)),
        "simulator.rng_ref_s": tracer.total("bench.rng_ref"),
        "simulator.voltage_s": tracer.total("simulator.voltage"),
        "simulator.demod_s": tracer.total("simulator.demod"),
        "simulator.model_setup_s": tracer.total("simulator.model_setup", inclusive=False),
        "simulator.run_ensemble_self_s": tracer.total("simulator.run_ensemble",
                                                      inclusive=False),
        "simulator.reduce_s": tracer.total(("simulator.variance_ratio_report",
                                            "simulator.herald_histogram")),
        "simulator.save_s": tracer.total("simulator.save_ensemble"),
        "simulator.load_s": tracer.total("simulator.load_ensemble"),
        "simulator.ensemble_bytes": float(sum(o.nbytes for o in outputs.values())),
        "simulator.traces_per_s_1t": len(KINDS) * n / wall_1t,
        "trace.ensemble_pass_s": pass_s,
        "trace.ensemble_unspanned_s": unspanned,
        "trace.ensemble_spanned_frac": (pass_s - unspanned) / pass_s,
        "trace.ensemble_overhead_frac": traced_run_s / wall_1t - 1.0,
    }
    for kind in KINDS:
        metrics[f"simulator.effective_sample_frac_{kind}"] = \
            outputs[kind].report["effective_samples"] / n
    tracer.write(Path(workdir).parent / "spans.jsonl")
    return {"metrics": metrics, "spans": len(tracer.spans),
            "peak_rss_mb": common.self_peak_rss_mb(), **tally.as_dict()}
