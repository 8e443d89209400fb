import argparse
import contextlib
import dataclasses
import errno
import io
import json
import os
import re
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from phonon_forge import cli, dynamics, simulator
from phonon_forge.errors import NumericsError
from phonon_forge.params import GridConfig, SimConfig, SpadConfig, SystemParams


def run(args):
    return cli.main(args)


def run_with(doc, tmp_dir, outdir, *command):
    """Run the CLI on a config file holding doc."""
    cfg = Path(tmp_dir) / "cfg.json"
    cfg.write_text(json.dumps(doc))
    return run(["--config", str(cfg), "--out", str(outdir), *command])


def _no_non_finite_files(outdir):
    # in text, nan, inf and Infinity as whole words, so a key such as
    # sigma_sq_inf in a successful run's report does not count
    for path in (outdir.rglob("*") if outdir.exists() else ()):
        if path.suffix == ".npz":
            with np.load(path) as data:
                assert all(np.isfinite(data[k]).all() for k in data.files), path
        elif path.is_file():
            assert not re.search(r"\b(nan|inf|infinity)\b", path.read_text(),
                                 re.IGNORECASE), path


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


def _sentinel(outdir):
    """An existing output directory holding one file of its own."""
    outdir.mkdir()
    sentinel = outdir / "sentinel.txt"
    sentinel.write_text("kept\n")
    return sentinel


class TestParser:
    @pytest.mark.parametrize("sub", ["wigner", "marginal", "variance",
                                     "simulate", "budget", "characterize"])
    def test_help_exists(self, sub, capsys):
        with pytest.raises(SystemExit) as exc:
            run([sub, "--help"])
        assert exc.value.code == 0
        assert sub in capsys.readouterr().out

    def test_missing_subcommand_fails(self):
        with pytest.raises(SystemExit) as exc:
            run([])
        assert exc.value.code == 2


class TestConfig:
    def test_unknown_top_key_exit_2(self, tmp_path, outdir):
        assert run_with({"systemx": {}}, tmp_path, outdir, "budget") == 2

    def test_unknown_nested_key_exit_2(self, tmp_path, outdir):
        assert run_with({"system": {"kappa9": 1.0}}, tmp_path, outdir, "budget") == 2

    def test_physical_invariants_enforced(self, tmp_path, outdir):
        assert run_with({"system": {"eta_total": 2.0}}, tmp_path, outdir,
                        "budget") == 2

    def test_config_overrides_apply(self, tmp_path, outdir):
        assert run_with({"system": {"nbar_th": 100.0}, "seed": 7}, tmp_path,
                        outdir, "budget") == 0
        doc = json.loads((outdir / "budget.json").read_text())
        # flux scales linearly with the bath occupation
        assert doc["f_cav"] == pytest.approx(3.986e8 * 100.0 / 766.0, rel=0.05)

    @pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[" * 100000],
                             ids=["not-utf8", "too-deep"])
    def test_unreadable_config_exits_2(self, tmp_path, outdir, capsys, content):
        cfg = tmp_path / "cfg.json"
        cfg.write_bytes(content)
        assert run(["--config", str(cfg), "--out", str(outdir), "budget"]) == 2
        err = capsys.readouterr().err
        assert err.startswith(f"config error: cannot read config {cfg}: ")
        assert err.count("\n") == 1
        assert not outdir.exists()


class TestCommands:
    def test_budget_files(self, outdir):
        assert run(["--out", str(outdir), "budget"]) == 0
        doc = json.loads((outdir / "budget.json").read_text())
        assert 0.5e8 < doc["f_cav"] < 5e8

    def test_wigner_ring_run(self, outdir):
        assert run(["--out", str(outdir), "wigner", "--n", "1",
                    "--eta", "0.0091", "--npts", "129"]) == 0
        hdr = json.loads((outdir / "wigner_n1.json").read_text())
        assert hdr["s_param"] == pytest.approx(-218.78, abs=0.01)
        assert (outdir / "wigner_n1_marginal.csv").exists()

    def test_wigner_rejects_bad_order(self, outdir):
        assert run(["--out", str(outdir), "wigner", "--n", "-2"]) == 2

    def test_wigner_of_the_ground_state_runs(self, outdir):
        # zero occupation is every order's ground-state limit, as in marginal
        assert run(["--out", str(outdir), "wigner", "--n", "1", "--nbar", "0",
                    "--npts", "129"]) == 0
        assert (outdir / "wigner_n1.csv").exists()

    def test_wigner_numerics_exit_3(self, outdir):
        code = run(["--out", str(outdir), "wigner", "--n", "1",
                    "--npts", "129", "--half-width", "3.0"])
        assert code == 3

    def test_marginal_cmd(self, outdir):
        assert run(["--out", str(outdir), "marginal", "--n", "2"]) == 0
        lines = (outdir / "marginal_n2.csv").read_text().splitlines()
        assert lines[0] == "X,density"

    def test_marginal_default_window_holds_the_mass(self, outdir):
        # the default windows span five widths of the order-n state
        assert run(["--out", str(outdir), "marginal", "--n", "6"]) == 0
        data = np.loadtxt(outdir / "marginal_n6.csv", delimiter=",", skiprows=1)
        assert np.trapezoid(data[:, 1], data[:, 0]) == pytest.approx(1.0, abs=1e-5)
        assert run(["--out", str(outdir), "wigner", "--n", "6"]) == 0

    def test_variance_cmd(self, outdir):
        for n in (1, 3):
            assert run(["--out", str(outdir), "variance", "--n", str(n)]) == 0
            lines = (outdir / f"variance_n{n}.csv").read_text().splitlines()
            taus = np.array([float(l.split(",")[0]) for l in lines[1:]])
            vals = np.array([float(l.split(",")[1]) for l in lines[1:]])
            assert taus[0] == pytest.approx(-taus[-1])
            peak = vals.max()
            sigma_inf = 7.9706      # analytic steady state at the defaults
            assert (peak - 1) / (sigma_inf - 1) == pytest.approx(1 + n, abs=1e-12)

    def test_variance_follows_the_models_rate(self, tmp_path, outdir):
        # the curve relaxes at the rate the field model picks from
        # sim.mech_linewidth, so it is 1 + eta nbar_th (1 + n (c_a/var_a)^2)
        doc = {"sim": {"mech_linewidth": "effective"}}
        assert run_with(doc, tmp_path, outdir, "variance", "--n", "1") == 0
        data = np.loadtxt(outdir / "variance_n1.csv", delimiter=",", skiprows=1)
        cfg = cli.RunConfig(doc)
        model = simulator.FieldModel(cfg.sim)
        rho = model.correlation_a(data[:, 0]) / model.var_a
        signal = cfg.params.eta_total * cfg.params.nbar_th
        np.testing.assert_allclose(data[:, 1], 1.0 + signal * (1.0 + rho ** 2),
                                   rtol=0, atol=1e-12)

    def test_characterize_cmd(self, outdir, capsys):
        assert run(["--out", str(outdir), "characterize"]) == 0
        lines = (outdir / "characterization.csv").read_text().splitlines()
        row = [float(v) for v in lines[1].split(",")]
        assert row[3] == pytest.approx(0.69, abs=0.02)     # cooperativity
        assert row[4] == pytest.approx(453.0, abs=3.0)     # cooled occupation

    @pytest.mark.parametrize("powers", ["0.009,0.009", "0.0,0.0"])
    def test_fit_of_a_degenerate_sweep_falls_back(self, outdir, capsys, powers):
        # fewer than two distinct photon numbers fix no line, so the fit
        # takes the five-point sweep at the configured power, as for one power
        assert run(["--out", str(outdir), "characterize", "--fit"]) == 0
        expected = capsys.readouterr().out.splitlines()[-2]
        assert run(["--out", str(outdir), "characterize", "--fit",
                    "--powers", powers]) == 0
        assert capsys.readouterr().out.splitlines()[-2] == expected

    @pytest.mark.parametrize("doc,powers", [
        ({"system": {"p_in": 1e-300}}, []), ({}, ["--powers", "1e-300,2e-300"])],
        ids=["config", "powers"])
    def test_fit_at_a_vanishing_pump_exits_3_and_writes_nothing(
            self, tmp_path, outdir, capsys, doc, powers):
        # photon numbers near 1e-290 are too small for the line fit to scale
        assert run_with(doc, tmp_path, outdir, "characterize", "--fit", *powers) == 3
        out, err = capsys.readouterr()
        assert out == ""
        assert err.startswith("numerical validity error: spectrum fit failed")
        assert err.count("\n") == 1
        assert not outdir.exists()

    def test_characterize_zero_power(self, tmp_path, outdir):
        assert run(["--out", str(outdir), "characterize",
                    "--powers", "0.0"]) == 0
        lines = (outdir / "characterization.csv").read_text().splitlines()
        row = [float(v) for v in lines[1].split(",")]
        assert row[3] == 0.0
        assert row[4] == 766.0

    def test_simulate_smoke(self, outdir):
        assert run(["--out", str(outdir), "--threads", "2", "simulate",
                    "--herald", "single", "--n-traces", "100",
                    "--trace-len", "3125", "--click-seconds", "1.0"]) == 0
        report = json.loads((outdir / "report_single.json").read_text())
        assert report["n_traces"] == 100
        assert "peak_ratio" in report
        # the singles per detector count dark events too, so the budget
        # gives both their real and their dark parts
        rates = report["click_rates"]
        assert rates["budget_dark_rate"] == SpadConfig().registered_dark_rate
        assert rates["budget_singles_rate"] > rates["budget_dark_rate"] > 0
        assert (outdir / "ensemble_single.npz").exists()
        assert (outdir / "empirical_variance_single.csv").exists()
        assert (outdir / "histogram_single.csv").exists()
        assert (outdir / "clicks.csv").exists()
        assert (outdir / "heralds_single.csv").exists()

    def test_simulate_rejects_bad_settings(self, tmp_path, outdir):
        assert run_with({"sim": {"sample_rate": 0.5e9}}, tmp_path, outdir,
                        "simulate", "--n-traces", "10") == 2


    def test_unheralded_report_averages_the_usable_columns(self, outdir):
        assert run(["--out", str(outdir), "simulate", "--herald", "none",
                    "--n-traces", "20", "--trace-len", "1024",
                    "--click-seconds", "0"]) == 0
        report = json.loads((outdir / "report_none.json").read_text())
        margin = simulator.load_ensemble(outdir / "ensemble_none").margin_cols
        lines = (outdir / "empirical_variance_none.csv").read_text().splitlines()
        values = np.array([float(line.split(",")[1]) for line in lines[1:]])
        assert 0 < 2 * margin < values.size
        # the edge columns carry the filter's transients, as in the heralded wings
        assert report["sigma_sq_inf"] == float(np.mean(values[margin:-margin]))

    def test_uncoupled_unheralded_report_expects_the_vacuum(self, tmp_path, outdir):
        # with no pump the record is pure vacuum, so the analytic steady state
        # is 1, not 1 + eta nbar_th; 64 traces read 1 to about 0.03
        assert run_with({"system": {"p_in": 0}}, tmp_path, outdir, "simulate",
                        "--herald", "none", "--n-traces", "64",
                        "--trace-len", "1024", "--click-seconds", "0") == 0
        report = json.loads((outdir / "report_none.json").read_text())
        meta = simulator.load_ensemble(outdir / "ensemble_none").meta
        assert report["calibration"]["sigma_sq_inf_analytic"] == 1.0
        assert meta["sigma_inf_expected"] == 1.0
        assert report["sigma_sq_inf"] == pytest.approx(1.0, abs=0.2)

    @pytest.mark.parametrize("herald", ["none", "single", "coincidence"])
    def test_too_narrow_bandwidth_exits_2_and_writes_nothing(self, tmp_path,
                                                             outdir, herald):
        assert run_with({"sim": {"demod_bandwidth": 1.0}}, tmp_path, outdir,
                        "simulate", "--herald", herald, "--n-traces", "10") == 2
        assert not outdir.exists()

    @pytest.mark.parametrize("herald", ["single", "coincidence"])
    def test_no_herald_signal_exits_2_and_writes_nothing(self, tmp_path, outdir,
                                                         herald, monkeypatch):
        # with no pump the scattered field is empty, so every herald weight
        # is zero: refused before the ensemble is made
        def evolve_block(*args):
            raise AssertionError("the ensemble was made")

        monkeypatch.setattr(simulator.FieldModel, "evolve_block", evolve_block)
        assert run_with({"system": {"p_in": 0.0}}, tmp_path, outdir,
                        "simulate", "--herald", herald, "--n-traces", "10") == 2
        assert not outdir.exists()

    def test_non_finite_report_exits_3_and_writes_nothing(self, outdir, monkeypatch):
        # the report's text is checked before the first file is written
        real = simulator.variance_ratio_report

        def variance_ratio_report(ens, curve=None):
            return {**real(ens, curve), "peak_ratio": _NAN}

        monkeypatch.setattr(simulator, "variance_ratio_report", variance_ratio_report)
        outdir.mkdir()
        assert run(["--out", str(outdir), "simulate", "--n-traces", "16",
                    "--trace-len", "3125", "--click-seconds", "0.2"]) == 3
        assert not any(outdir.iterdir())

    @pytest.mark.parametrize("herald,trace_len,message", [
        ("none", "256", "no column is clear of the filter's edge transients"),
        ("single", "1024", "too short to estimate the steady-state wings"),
        ("coincidence", "1024", "too short to estimate the steady-state wings")])
    def test_too_short_a_trace_is_refused_before_any_work(
            self, outdir, monkeypatch, capsys, herald, trace_len, message):
        def work(*args, **kwargs):
            raise AssertionError("work was done")

        monkeypatch.setattr(simulator, "gated_click_stream", work)
        monkeypatch.setattr(simulator, "run_ensemble", work)
        assert run(["--out", str(outdir), "simulate", "--herald", herald,
                    "--n-traces", "20", "--trace-len", trace_len]) == 2
        assert message in capsys.readouterr().err
        assert not outdir.exists()

    def test_click_refusal_comes_before_the_ensemble(self, outdir, monkeypatch, capsys):
        # the click stream's own refusal, shorter than one gate, fires
        # before the costly ensemble is made
        def run_ensemble(*args, **kwargs):
            raise AssertionError("the ensemble was made")

        monkeypatch.setattr(simulator, "run_ensemble", run_ensemble)
        assert run(["--out", str(outdir), "simulate", "--n-traces", "2048",
                    "--click-seconds", "1e-9"]) == 2
        assert "duration shorter than one gate period" in capsys.readouterr().err
        assert not outdir.exists()

    @pytest.mark.parametrize("command", [
        ["budget"], ["wigner", "--n", "1", "--npts", "11"],
        ["simulate", "--n-traces", "16", "--trace-len", "3125", "--click-seconds", "0.2"]],
        ids=["budget", "wigner", "simulate"])
    def test_output_below_a_file_exits_2_before_any_work(
            self, tmp_path, monkeypatch, capsys, command):
        def work(*args, **kwargs):
            raise AssertionError("work was done")

        monkeypatch.setattr(simulator, "run_ensemble", work)
        monkeypatch.setattr(simulator, "gated_click_stream", work)
        blocker = tmp_path / "file"
        blocker.write_text("kept\n")
        assert run(["--out", str(blocker / "sub"), *command]) == 2
        out, err = capsys.readouterr()
        assert err.startswith(f"config error: cannot write to {blocker / 'sub'}: ")
        assert err.count("\n") == 1 and ".phonon-forge-" not in out + err
        assert list(tmp_path.iterdir()) == [blocker]
        assert blocker.read_text() == "kept\n"

    @pytest.mark.parametrize("command", [["budget"], ["simulate", "--n-traces", "16"]],
                             ids=["budget", "simulate"])
    def test_output_dir_the_os_cannot_take_exits_2_before_any_work(
            self, tmp_path, monkeypatch, capsys, command):
        def work(*args, **kwargs):
            raise AssertionError("work was done")

        monkeypatch.setattr(simulator, "run_ensemble", work)
        monkeypatch.setattr(simulator, "gated_click_stream", work)
        monkeypatch.chdir(tmp_path)
        Path("cfg.json").write_text(json.dumps({"output_dir": "a\u0000b"}))
        assert run(["--config", "cfg.json", *command]) == 2
        err = capsys.readouterr().err
        # the NUL byte is shown escaped, not written to the terminal
        assert err.startswith("config error: cannot write to a\\x00b: ")
        assert "\0" not in err
        assert os.listdir() == ["cfg.json"]

    def test_refusal_after_the_files_are_staged_leaves_only_the_sentinel(
            self, outdir, monkeypatch, capsys):
        # the heralds are the last file simulate writes: the ensemble, the
        # curves, the histogram, the clicks and the report are staged by then
        real = simulator.write_heralds_csv

        def write_heralds_csv(times, path):
            real(times, path)
            raise NumericsError("refused after the write")

        monkeypatch.setattr(simulator, "write_heralds_csv", write_heralds_csv)
        sentinel = _sentinel(outdir)
        assert run(["--out", str(outdir), "simulate", "--n-traces", "16",
                    "--trace-len", "3125", "--click-seconds", "0.2"]) == 3
        assert list(outdir.iterdir()) == [sentinel]
        assert ".phonon-forge-" not in "".join(capsys.readouterr())

    def test_write_that_fails_exits_2_and_leaves_only_the_sentinel(
            self, outdir, monkeypatch, capsys):
        def write_variance_curve(curve, path):
            Path(path).write_text("partial")
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(dynamics, "write_variance_curve", write_variance_curve)
        sentinel = _sentinel(outdir)
        assert run(["--out", str(outdir), "variance", "--n", "1", "--npts", "11"]) == 2
        assert capsys.readouterr().err == (f"config error: cannot write to {outdir}: "
                                           f"{os.strerror(errno.ENOSPC)}\n")
        assert list(outdir.iterdir()) == [sentinel]

    def test_file_name_held_by_a_directory_exits_2_and_moves_nothing(
            self, outdir, capsys):
        # the marginal would land on a directory: the grid and its sidecar,
        # staged beside it, do not move either, and no summary is printed
        (outdir / "wigner_n1_marginal.csv").mkdir(parents=True)
        assert run(["--out", str(outdir), "wigner", "--n", "1", "--npts", "11"]) == 2
        assert capsys.readouterr() == ("", f"config error: cannot write to {outdir}: "
                                           "wigner_n1_marginal.csv is a directory\n")
        assert list(outdir.iterdir()) == [outdir / "wigner_n1_marginal.csv"]
        assert not any((outdir / "wigner_n1_marginal.csv").iterdir())

    def test_simulate_builds_one_plan(self, outdir, monkeypatch):
        # the plan that refuses the settings is the one the ensemble runs on;
        # the click stream builds the only other field model
        built = {simulator.DemodPlan: 0, simulator.FieldModel: 0}
        for cls in built:
            def counted(self, *args, _cls=cls, _init=cls.__init__, **kwargs):
                built[_cls] += 1
                _init(self, *args, **kwargs)
            monkeypatch.setattr(cls, "__init__", counted)
        assert run(["--out", str(outdir), "simulate", "--n-traces", "16",
                    "--trace-len", "3125", "--click-seconds", "0.2"]) == 0
        assert built == {simulator.DemodPlan: 1, simulator.FieldModel: 2}

    def test_simulate_computes_the_variance_curve_once(self, outdir, monkeypatch):
        # the heralded report reads the curve simulate writes
        kinds, real = [], simulator.ensemble_variance

        def ensemble_variance(ens):
            kinds.append(ens.herald_kind)
            return real(ens)

        monkeypatch.setattr(simulator, "ensemble_variance", ensemble_variance)
        assert run(["--out", str(outdir), "simulate", "--herald", "single",
                    "--n-traces", "16", "--trace-len", "3125",
                    "--click-seconds", "0"]) == 0
        assert kinds == ["single"]

    @pytest.mark.parametrize("command,name", [
        (["marginal", "--n", "1", "--npts", "11"], "marginal_n1.csv"),
        (["wigner", "--n", "1", "--npts", "11"], "wigner_n1.csv"),
        (["variance", "--n", "1", "--npts", "11"], "variance_n1.csv"),
        (["characterize"], "characterization.csv")],
        ids=["marginal", "wigner", "variance", "characterize"])
    def test_summary_shows_the_output_path_as_a_refusal_does(
            self, tmp_path, capsys, command, name):
        # an unprintable character of --out is escaped on stdout too, and a
        # printable path is printed as it is
        assert run(["--out", str(tmp_path / "a\033[31mb"), *command]) == 0
        printed = capsys.readouterr().out
        assert all(c.isprintable() for c in printed.replace("\n", ""))
        assert f"wrote {tmp_path}/a\\x1b[31mb/{name}" in printed
        assert (tmp_path / "a\033[31mb" / name).is_file()
        assert run(["--out", str(tmp_path / "plain"), *command]) == 0
        assert f"wrote {tmp_path / 'plain' / name}" in capsys.readouterr().out

    @pytest.mark.parametrize("command", [
        ["marginal", "--n", "1", "--npts", "1000000000000"],
        ["wigner", "--n", "1", "--npts", "10000001"]], ids=["marginal", "wigner"])
    def test_request_too_large_for_memory_exits_2_and_writes_nothing(
            self, outdir, command, capsys):
        assert run(["--out", str(outdir), *command]) == 2
        assert not outdir.exists()
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and err.count("\n") == 1


class TestDeterminism:
    def test_byte_identical_reruns(self, outdir):
        args = ["--out", str(outdir), "wigner", "--n", "1", "--npts", "129"]
        assert run(args) == 0
        first_csv = (outdir / "wigner_n1.csv").read_bytes()
        first_json = (outdir / "wigner_n1.json").read_bytes()
        assert run(args) == 0
        assert (outdir / "wigner_n1.csv").read_bytes() == first_csv
        assert (outdir / "wigner_n1.json").read_bytes() == first_json

    def test_variance_rerun_identical(self, outdir):
        args = ["--out", str(outdir), "variance", "--n", "2"]
        assert run(args) == 0
        first = (outdir / "variance_n2.csv").read_bytes()
        assert run(args) == 0
        assert (outdir / "variance_n2.csv").read_bytes() == first

    def test_simulate_rerun_identical_across_threads(self, tmp_path):
        outputs = []
        for threads in ("1", "2"):
            out = tmp_path / f"threads{threads}"
            assert run(["--threads", threads, "--out", str(out), "simulate",
                        "--herald", "coincidence", "--n-traces", "64",
                        "--trace-len", "3125", "--click-seconds", "0.2"]) == 0
            outputs.append({p.name: p.read_bytes() for p in sorted(out.iterdir())})
        first, second = outputs
        assert {name.rsplit(".", 1)[1] for name in first} == {"csv", "json", "npz"}
        assert first == second


_NAN, _INF = float("nan"), float("inf")
_SIMULATE = ["simulate", "--trace-len", "1024", "--click-seconds", "0"]
_SMALL_SIMULATE = ["simulate", "--n-traces", "4", "--trace-len", "3125",
                   "--click-seconds", "0"]
_BAD_CONFIGS = [
    ({"system": {"nbar_th": _NAN}}, ["budget"]),
    ({"system": {"nbar_th": _NAN}}, ["variance", "--n", "1"]),
    ({"system": {"nbar_th": _NAN}}, ["wigner", "--n", "1", "--npts", "129"]),
    ({"spad": {"gate_rate": _NAN}}, ["budget"]),
    ({"spad": {"gate_rate": _NAN}}, ["variance", "--n", "1"]),
    ({"spad": {"gate_rate": _NAN}}, ["wigner", "--n", "1", "--npts", "129"]),
    ({"system": {"gamma": _INF}}, ["variance", "--n", "1"]),
    ({"system": {"nbar_th": "766"}}, ["budget"]),
    ({"spad": {"arm_efficiencies": 0.5}}, ["budget"]),
    ({"seed": -1}, _SIMULATE + ["--n-traces", "10"]),
    ({"sim": {"n_traces": 1.5}}, _SIMULATE),
    # command-line values get the same checks as config values
    ({}, ["marginal", "--n", "2", "--nbar", "nan"]),
    ({}, ["marginal", "--n", "1", "--xmax", "nan"]),
    ({}, ["marginal", "--n", "1", "--xmax", "inf"]),
    ({}, ["marginal", "--n", "5", "--eta", "1", "--nbar", "inf"]),
    ({}, ["marginal", "--n", "1", "--npts", "-5"]),
    ({}, ["wigner", "--n", "1", "--nbar", "nan"]),
    ({}, ["wigner", "--n", "1", "--nbar", "inf"]),
    ({}, ["wigner", "--n", "1", "--s", "nan"]),
    ({}, ["variance", "--n", "1", "--npts", "-3"]),
    ({}, ["variance", "--n", "-1"]),
    ({}, ["characterize", "--powers", "a,b"]),
    ({}, ["simulate", "--trace-len", "1024", "--n-traces", "10",
          "--click-seconds", "inf"]),
    ({}, ["simulate", "--trace-len", "1024", "--n-traces", "10",
          "--click-seconds", "-1"]),
    ({}, ["--threads", "-1", *_SIMULATE, "--herald", "none", "--n-traces", "10"]),
    ({}, ["--threads", "0", *_SIMULATE, "--herald", "none", "--n-traces", "10"]),
    # a heralded trace too short for steady-state wings is refused up front
    ({}, ["simulate", "--n-traces", "20", "--trace-len", "1024",
          "--click-seconds", "0"]),
    # finite inputs whose derived quantities leave the double range: the
    # photon energy and the counts per gate
    ({"system": {"wavelength": 1e308}}, ["budget"]),
    ({"spad": {"gate_rate": 2.2e-308, "gate_len": 8.5e151}}, ["budget"]),
    # an unheralded trace with no column clear of the filter's edge transients
    ({}, ["simulate", "--herald", "none", "--n-traces", "10", "--trace-len", "256",
          "--click-seconds", "0"]),
    # keys that are gone: the adiabatic model, and the click step, now derived
    ({"sim": {"adiabatic": False}}, _SIMULATE + ["--n-traces", "10"]),
    ({"sim": {"dt": 1.6e-10}}, _SIMULATE + ["--n-traces", "10"]),
    # a click step 1/(20 kappa2) that rounds to 0, and a decimation longer
    # than the trace, whose demodulation buffer would not fit in memory
    ({"system": {"kappa2": 1e308}}, _SMALL_SIMULATE),
    ({"system": {"kappa2": 1e308}}, ["budget"]),
    ({"system": {"kappa2": 1e308}}, ["variance", "--n", "1"]),
    ({"sim": {"decimate": 1000000000000}}, _SMALL_SIMULATE),
    # a subnormal efficiency whose s-parameter (eta - 2)/eta overflows
    ({"system": {"eta_total": 1e-320}}, _SMALL_SIMULATE),
    ({"system": {"eta_total": 1e-320}}, ["budget"]),
]


class TestConfigValues:
    @pytest.mark.parametrize("doc,command", _BAD_CONFIGS)
    def test_bad_value_exits_2_without_non_finite_output(self, tmp_path, outdir,
                                                         doc, command):
        assert run_with(doc, tmp_path, outdir, *command) == 2
        _no_non_finite_files(outdir)
        assert not list(outdir.glob("ensemble_*"))

    def test_every_dataclass_field_is_a_config_key(self, tmp_path, outdir):
        defaults = cli.RunConfig()
        sim_defaults = defaults.sim
        doc = {
            "system": dataclasses.asdict(defaults.params),
            "spad": {**dataclasses.asdict(defaults.spad),
                     "arm_efficiencies": list(defaults.spad.arm_efficiencies)},
            "sim": {f.name: getattr(sim_defaults, f.name)
                    for f in dataclasses.fields(sim_defaults)
                    if f.name not in ("params", "spad", "seed")},
            "grid": dataclasses.asdict(defaults.grid),
        }
        loaded = cli.RunConfig(doc)
        assert loaded.params == defaults.params
        assert loaded.spad == defaults.spad
        assert loaded.sim == sim_defaults
        assert loaded.grid == defaults.grid

        assert run_with({"sim": {"chunk_traces": 128},
                         "spad": {"arm_efficiencies": [0.67, 0.25, 0.15, 0.5]}},
                        tmp_path, outdir, "budget") == 0

    @pytest.mark.parametrize("sim_doc", [{"seed": 1}, {"params": {}}])
    def test_sim_section_takes_no_seed_or_params(self, tmp_path, outdir, sim_doc):
        assert run_with({"sim": sim_doc}, tmp_path, outdir, "budget") == 2


_COMMANDS = [["budget"], ["characterize"], ["variance", "--n", "1"],
             ["marginal", "--n", "1"], ["wigner", "--n", "1", "--npts", "129"],
             _SIMULATE + ["--n-traces", "10"]]
_BAD_SECTIONS = [
    ({"grid": {"half_width": _NAN}}, ["wigner", "--n", "1", "--npts", "129"]),
    ({"grid": {"half_width": _INF}}, ["wigner", "--n", "1", "--npts", "129"]),
    ({"grid": {"npts": "129"}}, ["wigner", "--n", "1"]),
    ({"grid": {"npts": 129.0}}, ["wigner", "--n", "1"]),
    ({"grid": {"half_width": _NAN}}, ["marginal", "--n", "1"]),
    ({"sim": {"dt": 0}}, ["budget"]),
    ({"sim": {"trace_len": _NAN}}, ["variance", "--n", "1"]),
    *(({"output_dir": 5}, command) for command in _COMMANDS),
    *(({"output_dir": ["out"]}, command) for command in _COMMANDS),
]


class TestConfigSections:
    @pytest.mark.parametrize("doc,command", _BAD_SECTIONS)
    def test_bad_section_exits_2_on_load(self, tmp_path, outdir, doc, command):
        assert run_with(doc, tmp_path, outdir, *command) == 2
        _no_non_finite_files(outdir)


class TestThreadCount:
    def test_default_is_the_usable_cpu_count(self, monkeypatch):
        args = argparse.Namespace(threads=None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._thread_count(args) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._thread_count(args) == 64

    def test_zero_threads_is_refused_before_any_work(self, outdir, monkeypatch, capsys):
        def work(*args, **kwargs):
            raise AssertionError("work was done")

        monkeypatch.setattr(simulator, "run_ensemble", work)
        monkeypatch.setattr(simulator, "gated_click_stream", work)
        assert run(["--threads", "0", "--out", str(outdir), "simulate",
                    "--click-seconds", "200"]) == 2
        assert capsys.readouterr() == (
            "", "config error: threads must be an integer >= 1, got 0\n")
        assert not outdir.exists()


_IMPORT_PROBE = """
import importlib, json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
importlib.import_module(sys.argv[1])
code = 0
if sys.argv[2:]:
    from phonon_forge import cli
    code = cli.main(sys.argv[2:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "scipy" or m.startswith("scipy.")),
                  sorted(m for m in sys.modules if m.startswith("phonon_forge."))]))
"""


def _probe(tmp_path, command, module="phonon_forge"):
    """(exit code, the scipy modules loaded, the package's submodules loaded)
    of importing module and running command in a fresh interpreter in which
    importing scipy raises, so nothing imported by other tests counts."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = [module] + (["--out", str(tmp_path), *command] if command else [])
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


def _scipy_loaded_by(tmp_path, command):
    return _probe(tmp_path, command)[:2]


_COMMANDS = {
    "budget": ["budget"],
    "characterize": ["characterize", "--fit"],
    "variance": ["variance", "--n", "2"],
    "marginal": ["marginal", "--n", "2"],
    "wigner": ["wigner", "--n", "1"],
    "simulate": ["simulate", "--n-traces", "8", "--trace-len", "2048",
                 "--click-seconds", "0.01"],
}


@pytest.mark.parametrize("command", [[], *_COMMANDS.values()],
                         ids=["import", *_COMMANDS])
def test_command_runs_without_scipy(tmp_path, command):
    assert _scipy_loaded_by(tmp_path, command) == [0, []]


_CONFIG = {"_formats", "cli", "errors", "params"}
# the README's table of the package modules each command loads; variance,
# like characterize, works from dynamics alone
_LOADS = {
    "budget": _CONFIG | {"budget", "dynamics"},
    "characterize": _CONFIG | {"dynamics"},
    "variance": _CONFIG | {"dynamics"},
    "marginal": _CONFIG | {"dynamics", "phase_space"},
    "wigner": _CONFIG | {"dynamics", "phase_space"},
    "simulate": _CONFIG | {"dynamics", "phase_space", "simulator", "budget"},
}


@pytest.mark.parametrize("module,loaded", [("phonon_forge", set()),
                                           ("phonon_forge.cli", _CONFIG)],
                         ids=["package", "cli"])
def test_import_loads_only_the_config(tmp_path, module, loaded):
    # the package root re-exports nothing, and the CLI builds its config
    # from params alone
    assert _probe(tmp_path, [], module)[2] == sorted(f"phonon_forge.{m}" for m in loaded)


@pytest.mark.parametrize("name", _COMMANDS)
def test_command_loads_only_what_it_runs(tmp_path, name):
    code, _, loaded = _probe(tmp_path, _COMMANDS[name])
    assert code == 0 and loaded == sorted(f"phonon_forge.{m}" for m in _LOADS[name])


def test_overflowing_budget_exits_3_and_writes_nothing(tmp_path, outdir):
    # every number is finite on input, but the flux overflows to infinity
    assert run_with({"system": {"nbar_th": 1e308}}, tmp_path, outdir, "budget") == 3
    assert not (outdir / "budget.json").exists()


def test_overflowing_characterization_exits_3_and_writes_nothing(tmp_path, outdir):
    # every number is finite on input, but the cooperativity overflows
    assert run_with({"system": {"gamma": 5e-324}}, tmp_path, outdir,
                    "characterize") == 3
    assert not outdir.exists()


_VALUES = st.one_of(
    st.floats(), st.sampled_from([_NAN, _INF, -_INF, 1e308, -1e308, 5e-324]),
    st.integers(), st.booleans(), st.text(max_size=6),
    st.lists(st.one_of(st.floats(), st.integers()), max_size=4), st.none())
_DOCS = st.fixed_dictionaries({}, optional={
    **{name: st.dictionaries(st.sampled_from(sorted(
        f.name for f in dataclasses.fields(cls))), _VALUES, max_size=4)
       for name, cls in (("system", SystemParams), ("spad", SpadConfig),
                         ("sim", SimConfig), ("grid", GridConfig))},
    "seed": _VALUES, "output_dir": _VALUES})


@settings(max_examples=65, deadline=None)
@given(doc=_DOCS, command=st.sampled_from(
    [["budget"], ["variance", "--n", "1", "--npts", "11"],
     ["marginal", "--n", "3", "--npts", "11"], ["wigner", "--n", "1", "--npts", "11"],
     ["characterize", "--fit"], _SMALL_SIMULATE]))
def test_any_config_document_keeps_the_exit_code_contract(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        sentinel = _sentinel(outdir)
        stdout = io.StringIO()
        with contextlib.redirect_stdout(stdout):
            code = run_with(doc, tmp, outdir, *command)
        assert code in (0, 2, 3)
        _no_non_finite_files(outdir)
        if code:
            # a refusal prints no summary and writes nothing
            assert stdout.getvalue() == ""
            assert list(outdir.iterdir()) == [sentinel]
            assert sentinel.read_text() == "kept\n"
        else:
            # no staging directory is left behind
            assert not any(path.is_dir() for path in outdir.iterdir())
