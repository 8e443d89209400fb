import argparse
import dataclasses
import json
import os

import numpy as np
import pytest

from phonon_forge import cli


def run(args):
    return cli.main(args)


@pytest.fixture()
def outdir(tmp_path):
    return tmp_path / "out"


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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"systemx": {}}))
        assert run(["--config", str(cfg), "--out", str(outdir), "budget"]) == 2

    def test_unknown_nested_key_exit_2(self, tmp_path, outdir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": {"kappa9": 1.0}}))
        assert run(["--config", str(cfg), "--out", str(outdir), "budget"]) == 2

    def test_physical_invariants_enforced(self, tmp_path, outdir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": {"eta_total": 2.0}}))
        assert run(["--config", str(cfg), "--out", str(outdir), "budget"]) == 2

    def test_config_overrides_apply(self, tmp_path, outdir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"system": {"nbar_th": 100.0},
                                   "seed": 7}))
        assert run(["--config", str(cfg), "--out", str(outdir), "budget"]) == 0
        doc = json.loads((outdir / "budget.json").read_text())
        # flux scales linearly with the bath occupation
        assert doc["f_cav"] == pytest.approx(3.986e8 * 100.0 / 766.0, rel=0.05)


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

    def test_wigner_numerics_exit_3(self, outdir):
        code = run(["--out", str(outdir), "wigner", "--n", "1",
                    "--npts", "129", "--half-width", "3.0"])
        assert code == 3

    def test_marginal_cmd(self, outdir):
        assert run(["--out", str(outdir), "marginal", "--n", "2"]) == 0
        lines = (outdir / "marginal_n2.csv").read_text().splitlines()
        assert lines[0] == "X,density"

    def test_variance_cmd(self, outdir):
        assert run(["--out", str(outdir), "variance", "--n", "1"]) == 0
        lines = (outdir / "variance_n1.csv").read_text().splitlines()
        taus = np.array([float(l.split(",")[0]) for l in lines[1:]])
        vals = np.array([float(l.split(",")[1]) for l in lines[1:]])
        assert taus[0] == pytest.approx(-taus[-1])
        peak = vals.max()
        sigma_inf = 7.9706      # analytic steady state at the defaults
        assert (peak - 1) / (sigma_inf - 1) == pytest.approx(2.0, abs=1e-12)

    def test_characterize_cmd(self, outdir, capsys):
        assert run(["--out", str(outdir), "characterize"]) == 0
        lines = (outdir / "characterization.csv").read_text().splitlines()
        row = [float(v) for v in lines[1].split(",")]
        assert row[3] == pytest.approx(0.69, abs=0.02)     # cooperativity
        assert row[4] == pytest.approx(453.0, abs=3.0)     # cooled occupation

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
        assert "click_rates" in report
        assert (outdir / "ensemble_single.npz").exists()
        assert (outdir / "empirical_variance_single.csv").exists()
        assert (outdir / "histogram_single.csv").exists()
        assert (outdir / "clicks.csv").exists()
        assert (outdir / "heralds_single.csv").exists()

    def test_simulate_rejects_bad_settings(self, tmp_path, outdir):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {"sample_rate": 0.5e9}}))
        assert run(["--config", str(cfg), "--out", str(outdir), "simulate",
                    "--n-traces", "10"]) == 2


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

    def test_threads_env_fallback(self, outdir, monkeypatch):
        monkeypatch.setenv("PHONON_FORGE_THREADS", "1")
        assert run(["--out", str(outdir), "simulate", "--herald", "none",
                    "--n-traces", "20", "--trace-len", "1024"]) == 0
        monkeypatch.setenv("PHONON_FORGE_THREADS", "zebra")
        assert run(["--out", str(outdir), "simulate", "--herald", "none",
                    "--n-traces", "20", "--trace-len", "1024"]) == 2


_NAN, _INF = float("nan"), float("inf")
_SIMULATE = ["simulate", "--trace-len", "1024", "--click-seconds", "0"]
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
    ({"sim": {"adiabatic": "yes"}}, _SIMULATE + ["--n-traces", "10"]),
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
    ({}, ["characterize", "--powers", "a,b"]),
    ({}, ["simulate", "--trace-len", "1024", "--n-traces", "10",
          "--click-seconds", "inf"]),
    ({}, ["simulate", "--trace-len", "1024", "--n-traces", "10",
          "--click-seconds", "-1"]),
]


class TestConfigValues:
    @pytest.mark.parametrize("doc,command", _BAD_CONFIGS)
    def test_bad_value_exits_2_without_non_finite_output(self, tmp_path, outdir,
                                                         doc, command):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["--config", str(cfg), "--out", str(outdir), *command]) == 2
        for path in (outdir.rglob("*") if outdir.exists() else ()):
            if path.is_file():
                text = path.read_text().lower()
                assert "nan" not in text and "inf" not in text, path

    def test_every_dataclass_field_is_a_config_key(self, tmp_path, outdir):
        defaults = cli.RunConfig()
        sim_defaults = defaults.sim_config()
        doc = {
            "system": dataclasses.asdict(defaults.params),
            "spad": {**dataclasses.asdict(defaults.spad),
                     "arm_efficiencies": list(defaults.spad.arm_efficiencies)},
            "sim": {f.name: getattr(sim_defaults, f.name)
                    for f in dataclasses.fields(sim_defaults)
                    if f.name not in ("params", "spad", "seed")},
            "grid": dataclasses.asdict(defaults.grid_config()),
        }
        loaded = cli.RunConfig(doc)
        assert loaded.params == defaults.params
        assert loaded.spad == defaults.spad
        assert loaded.sim_config() == sim_defaults
        assert loaded.grid_config() == defaults.grid_config()

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": {"chunk_traces": 128, "adiabatic": False},
                                   "spad": {"arm_efficiencies": [0.67, 0.25, 0.15, 0.5]}}))
        assert run(["--config", str(cfg), "--out", str(outdir), "budget"]) == 0

    @pytest.mark.parametrize("sim_doc", [{"seed": 1}, {"params": {}}])
    def test_sim_section_takes_no_seed_or_params(self, tmp_path, outdir, sim_doc):
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps({"sim": sim_doc}))
        assert run(["--config", str(cfg), "--out", str(outdir), "budget"]) == 2


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
        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(doc))
        assert run(["--config", str(cfg), "--out", str(outdir), *command]) == 2
        for path in (outdir.rglob("*") if outdir.exists() else ()):
            if path.is_file():
                text = path.read_text().lower()
                assert "nan" not in text and "inf" not in text, path


class TestThreadCount:
    def test_default_is_the_usable_cpu_count(self, monkeypatch):
        monkeypatch.delenv("PHONON_FORGE_THREADS", raising=False)
        args = argparse.Namespace(threads=None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._thread_count(args) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._thread_count(args) == 64
