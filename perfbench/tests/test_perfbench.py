"""Tests of the benchmark itself.

Tiny runs of each workload print every metric of BENCHMARK.json with its
unit, and every correctness check is shown to fire on a deliberately wrong
input.  Run with ``PYTHONPATH=src python3 -m pytest perfbench/tests -q``.
"""

import dataclasses
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

from perfbench import checks, clicks, cli, common, ensemble, run, workloads
from perfbench.spans import LayerError, Tracer
from phonon_forge import simulator
from phonon_forge.params import default_params

TINY = {"ensemble": {"n_traces": 256, "chunk_traces": 128, "setup_reps": 1},
        "clicks": {"sim_seconds": 0.5, "setup_reps": 1},
        "cli": {"n_traces": 64, "click_seconds": 0.2, "setup_reps": 1,
                "importtime_reps": 1}}
BENCH = json.loads((common.ROOT / "BENCHMARK.json").read_text())


def tiny(name):
    return {**workloads.SIZES[name], **TINY[name]}


@pytest.fixture
def workdir(request):
    path = common.WORK / "tests" / request.node.name.replace("[", "_").rstrip("]")
    path.mkdir(parents=True, exist_ok=True)
    yield path
    shutil.rmtree(path, ignore_errors=True)


def _run(capsys, workload, trace):
    rc = run.main(["--workload", workload, "--seed", "3", "--seconds", "0.5",
                   "--trace", str(trace)], sizes=TINY)
    out = capsys.readouterr().out
    assert rc == 0
    result = json.loads(out.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return out, result


def _units(result):
    return {name: m["unit"] for name, m in result["metrics"].items()}


# ---------------------------------------------------------------------------
# tiny runs
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_run_prints_every_end_to_end_metric(capsys, workload):
    out, result = _run(capsys, workload, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["end_to_end"]}
    alias, unit = workloads.WORK_UNITS[workload]
    for name in [*result["metrics"], alias, "failed_frac"]:
        assert f"  {name} " in out
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_tiny_traced_run_prints_every_per_layer_metric(capsys):
    out, result = _run(capsys, "ensemble", 1)
    assert _units(result) == {m["name"]: m["unit"] for m in BENCH["per_layer"]}
    metrics = {name: m["value"] for name, m in result["metrics"].items()}
    # span self times account for the ensemble pass; the rest is reported
    assert 0.0 <= metrics["trace.ensemble_unspanned_s"] < metrics["trace.ensemble_pass_s"]
    assert metrics["trace.ensemble_spanned_frac"] == pytest.approx(
        1.0 - metrics["trace.ensemble_unspanned_s"] / metrics["trace.ensemble_pass_s"])
    assert metrics["simulator.field_samples"] == 2 * 256 * 3125 * 2


def test_bench_file_follows_the_contract():
    assert set(BENCH) == {"command", "paths", "run_seconds", "workloads",
                          "end_to_end", "per_layer"}
    assert [w["name"] for w in BENCH["workloads"]] == list(workloads.NAMES)
    setup = [m for m in BENCH["end_to_end"] if m["name"] == "setup_s"]
    assert setup and setup[0]["bound"] == max(m["bound"] for m in BENCH["end_to_end"])
    names = [m["name"] for m in BENCH["end_to_end"] + BENCH["per_layer"]]
    assert len(names) == len(set(names))


def test_missing_sources_exit_nonzero_without_result(workdir):
    shutil.copy(common.ROOT / "BENCHMARK.json", workdir)
    shutil.copytree(common.ROOT / "perfbench", workdir / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    env = {k: v for k, v in os.environ.items() if k != "PYTHONPATH"}
    proc = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "clicks",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=workdir, env=env, capture_output=True, text=True,
                          timeout=60)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout


# ---------------------------------------------------------------------------
# generic checks
# ---------------------------------------------------------------------------

def test_tally_counts_raising_and_failing_operations():
    tally = checks.Tally()
    with tally.op("fine"):
        pass
    with tally.op("wrong") as problems:
        problems.append("bad value")
    with tally.op("raises"):
        raise ValueError("boom")
    assert (tally.attempted, tally.failed) == (3, 2)
    assert "raised ValueError" in tally.failures[1]


def test_within_and_poisson():
    assert checks.within("x", 1.0, 1.0 + 5.9e-3, 1e-3) == []
    assert checks.within("x", 1.0, 1.0 + 6.1e-3, 1e-3)
    assert checks.within("x", float("nan"), 1.0, 1.0)
    assert checks.poisson_within("n", 400 - 5.9 * 20, 400) == []
    assert checks.poisson_within("n", 400 - 6.1 * 20, 400)


def test_jackknife_matches_the_standard_error_of_a_mean():
    x = np.random.default_rng(0).standard_normal(3200)
    se = checks.jackknife_se(lambda keep: [x[keep].mean()], x.size)[0]
    assert se == pytest.approx(x.std(ddof=1) / np.sqrt(x.size), rel=0.3)


def test_non_finite_scan(workdir):
    good = workdir / "good.json"
    good.write_text('{"sigma_sq_inf": 7.9, "info": 1}\n')
    bad_csv = workdir / "bad.csv"
    bad_csv.write_text("x,y\n1,nan\n")
    bad_json = workdir / "bad.json"
    bad_json.write_text('{"a": Infinity}')
    bad_npz = workdir / "bad.npz"
    np.savez(bad_npz, a=np.array([1.0, np.nan]))
    assert checks.non_finite_problems([good]) == []
    assert len(checks.non_finite_problems([bad_csv, bad_json, bad_npz])) == 3


def test_tracer_refuses_missing_and_uncalled_layers():
    class Layer:
        def used(self):
            return 1

        def unused(self):
            return 2

    originals = dict(Layer.__dict__)
    tracer = Tracer("test")
    with pytest.raises(LayerError, match="Layer.gone"):
        with tracer.wrapping([(Layer, "used", "layer.used", None),
                              (Layer, "gone", "layer.gone", None)]):
            Layer().used()
    with pytest.raises(LayerError, match="Layer.unused"):
        with tracer.wrapping([(Layer, "used", "layer.used", None),
                              (Layer, "unused", "layer.unused", None)]):
            Layer().used()
    assert dict(Layer.__dict__) == originals          # wrappers removed
    seen = []
    with tracer.wrapping([(Layer, "used", "layer.used", seen.append)]):
        Layer().used()
    # the missing target raised before the first body ran
    assert seen == [1] and [s[0] for s in tracer.spans] == ["layer.used"] * 2


def test_import_times_refuse_a_module_that_is_gone(monkeypatch, workdir):
    monkeypatch.setattr(cli, "IMPORT_MODULES", (*cli.IMPORT_MODULES, "gone"))
    with pytest.raises(LayerError, match="gone"):
        cli.import_times(workdir, 1)


# ---------------------------------------------------------------------------
# ensemble checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def ens_outputs():
    sizes = tiny("ensemble")
    cfg = ensemble.config(5, 0, sizes)
    path = common.WORK / "tests" / "ensemble_outputs"
    path.mkdir(parents=True, exist_ok=True)
    outs = {kind: ensemble.run_kind(cfg, kind, sizes, path) for kind in ensemble.KINDS}
    yield cfg, outs
    shutil.rmtree(path, ignore_errors=True)


def test_ensemble_checks_pass_on_real_outputs(ens_outputs):
    cfg, outs = ens_outputs
    sigma_inf, ratios = ensemble.expectations(cfg)
    tally = checks.Tally()
    for kind, out in outs.items():
        ensemble.check_outputs(tally, kind, out, 256, sigma_inf, ratios)
    assert tally.failed == 0, tally.failures


def test_ensemble_report_check_fires_on_corrupted_ensemble(ens_outputs):
    cfg, outs = ens_outputs
    sigma_inf, ratios = ensemble.expectations(cfg)
    ens = outs["single"].ens
    scaled = dataclasses.replace(ens, z=1.3 * ens.z)
    report = simulator.variance_ratio_report(scaled)
    problems = ensemble.check_report(scaled, report, sigma_inf, ratios["single"])
    assert any("sigma_sq_inf" in p for p in problems)
    # a wrong expected ratio fires too
    good = outs["single"].report
    assert ensemble.check_report(ens, good, sigma_inf, ratios["single"] + 1.0)


def test_report_consistency_check_fires(ens_outputs):
    cfg, outs = ens_outputs
    sigma_inf, ratios = ensemble.expectations(cfg)
    out = outs["single"]
    assert ensemble.check_report_consistency(out.ens, out.report, sigma_inf,
                                             ratios["single"]) == []
    for key in ("effective_samples", "peak_ratio"):
        bad = {**out.report, key: out.report[key] * 1.001}
        assert ensemble.check_report_consistency(out.ens, bad, sigma_inf,
                                                 ratios["single"])
    assert ensemble.check_report_consistency(out.ens, out.report, sigma_inf + 0.1,
                                             ratios["single"])


def test_ensemble_structure_checks_fire(ens_outputs):
    _, outs = ens_outputs
    out = outs["coincidence"]
    z = out.ens.z.copy()
    z[3, 4] = np.nan
    assert ensemble.check_ensemble(dataclasses.replace(out.ens, z=z), 256)
    assert ensemble.check_ensemble(out.ens, 512)
    hist = dataclasses.replace(out.hist, values=1.01 * out.hist.values)
    assert ensemble.check_histogram(out.ens, hist)
    weights = out.loaded.weights.copy()
    weights[0] = np.nextafter(weights[0], np.inf)
    assert ensemble.check_roundtrip(out.ens, dataclasses.replace(out.loaded,
                                                                 weights=weights))


def test_thread_invariance_check_fires_on_a_wrong_reference(workdir):
    res = ensemble.traced(5, tiny("ensemble"), workdir, "test",
                          {kind: "0" * 64 for kind in ensemble.KINDS})
    assert [f for f in res["failures"] if f.startswith("thread_invariance")]
    assert len(res["failures"]) == len(ensemble.KINDS)


# ---------------------------------------------------------------------------
# clicks checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def click_outputs():
    cfg = clicks.config(7, 0)
    path = common.WORK / "tests" / "click_outputs"
    path.mkdir(parents=True, exist_ok=True)
    out = clicks.run_round(cfg, 2.0, path)
    yield cfg, out
    shutil.rmtree(path, ignore_errors=True)


def test_click_checks_pass_on_real_outputs(click_outputs):
    cfg, out = click_outputs
    tally = checks.Tally()
    clicks.check_outputs(tally, cfg, out, 2.0)
    assert tally.failed == 0, tally.failures


def test_click_checks_fire_on_wrong_inputs(click_outputs):
    cfg, out = click_outputs
    stream = out.clicks
    rate = out.report.singles_rate
    assert clicks.check_stream(stream, cfg.spad, 2.0 * rate, 2.0)
    all_dark = dataclasses.replace(stream, is_dark=np.ones_like(stream.is_dark))
    assert any("dark" in p for p in clicks.check_stream(all_dark, cfg.spad, rate, 2.0))
    d0 = np.nonzero(stream.detector == 0)[0][0]
    times = np.insert(stream.times, d0 + 1, stream.times[d0] + 1e-9)
    close = dataclasses.replace(
        stream, times=times, detector=np.insert(stream.detector, d0 + 1, 0),
        is_dark=np.insert(stream.is_dark, d0 + 1, False))
    assert any("dead time" in p for p in clicks.check_stream(close, cfg.spad, rate, 2.0))
    fake = np.append(out.coincidences, 0.5)
    assert clicks.check_heralds(stream, out.singles, fake,
                                out.report.coincidence_rate, 2.0)
    assert clicks.check_heralds(stream, out.singles, out.coincidences,
                                100.0 * out.report.coincidence_rate, 2.0)
    assert clicks.check_csv(out.paths["clicks"], stream.times + 1e-6)


# ---------------------------------------------------------------------------
# cli checks
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def cli_files():
    """Outputs of the writers the CLI uses, made in-process (simulate excepted)."""
    params = default_params()
    path = common.WORK / "tests" / "cli_files"
    shutil.rmtree(path, ignore_errors=True)
    for name in ("budget", "variance", "marginal", "wigner", "simulate"):
        config = path / "config.json"
        path.mkdir(parents=True, exist_ok=True)
        config.write_text('{"seed": 11}')
        res = cli.run_command(name, tiny("cli"), config, path / name)
        assert res.returncode == 0, res.stderr
    yield path, params
    shutil.rmtree(path, ignore_errors=True)


def test_cli_checks_pass_on_real_outputs(cli_files):
    path, params = cli_files
    for name in ("budget", "variance", "marginal", "wigner"):
        assert cli.HEADLINE_CHECKS[name](path / name, params) == [], name
    assert cli.check_simulate(path / "simulate", params, tiny("cli")) == []


def _rewrite_csv(src, dst, column, factor):
    data = np.loadtxt(src, delimiter=",", skiprows=1, ndmin=2)
    data[:, column] *= factor
    header = src.read_text().splitlines()[0]
    np.savetxt(dst, data, delimiter=",", header=header, comments="", fmt="%.17g")


def test_cli_checks_fire_on_wrong_outputs(cli_files, workdir):
    path, params = cli_files
    for name, csv, column in (("variance", "variance_n2.csv", 1),
                              ("marginal", "marginal_n2.csv", 1),
                              ("wigner", "wigner_n1.csv", 2)):
        bad = workdir / name
        shutil.copytree(path / name, bad)
        _rewrite_csv(path / name / csv, bad / csv, column, 1.01)
        assert cli.HEADLINE_CHECKS[name](bad, params), name
    bad = workdir / "budget"
    bad.mkdir()
    doc = json.loads((path / "budget" / "budget.json").read_text())
    (bad / "budget.json").write_text(json.dumps({**doc, "f_cav": 1e10}))
    assert cli.check_budget(bad, params)
    bad = workdir / "simulate"
    shutil.copytree(path / "simulate", bad)
    report = json.loads((bad / "report_single.json").read_text())
    report["peak_ratio"] += 10.0
    (bad / "report_single.json").write_text(json.dumps(report))
    assert cli.check_simulate(bad, params, tiny("cli"))
    failed = cli.Result("budget", 2, 0.1, 10.0, "config error", path / "budget")
    assert cli.check_command(failed, tiny("cli"), params)
