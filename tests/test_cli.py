import argparse
import dataclasses
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

from phonon_forge import cli, simulator
from phonon_forge.params import SpadConfig, SystemParams
from phonon_forge.phase_space import GridConfig
from phonon_forge.simulator import SimConfig


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

    @pytest.mark.parametrize("herald", ["none", "single", "coincidence"])
    def test_too_narrow_bandwidth_exits_2_and_writes_nothing(self, tmp_path,
                                                             outdir, herald):
        assert run_with({"sim": {"demod_bandwidth": 1.0}}, tmp_path, outdir,
                        "simulate", "--herald", herald, "--n-traces", "10") == 2
        assert not outdir.exists()


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
        for env, code in (("1", 0), ("zebra", 2), ("-4", 2)):
            monkeypatch.setenv("PHONON_FORGE_THREADS", env)
            assert run(["--out", str(outdir), "simulate", "--herald", "none",
                        "--n-traces", "20", "--trace-len", "1024"]) == code


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
    ({"sim": {"decimate": 1000000000000}}, _SMALL_SIMULATE),
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
        monkeypatch.delenv("PHONON_FORGE_THREADS", raising=False)
        args = argparse.Namespace(threads=None)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 3, 5},
                            raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 64)
        assert cli._thread_count(args) == 3
        monkeypatch.delattr(os, "sched_getaffinity")
        assert cli._thread_count(args) == 64


_IMPORT_PROBE = """
import json, sys


class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")


sys.meta_path.insert(0, BlockScipy())
import phonon_forge
code = 0
if sys.argv[1:]:
    from phonon_forge import cli
    code = cli.main(sys.argv[1:])
print(json.dumps([code, sorted(m for m in sys.modules
                               if m == "scipy" or m.startswith("scipy."))]))
"""


def _scipy_loaded_by(tmp_path, command):
    """(exit code, the scipy modules loaded) of command in a fresh interpreter
    in which importing scipy raises, so nothing imported by other tests counts."""
    src = str(Path(cli.__file__).resolve().parents[1])
    path = [src] + os.environ.get("PYTHONPATH", "").split(os.pathsep)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, path))}
    argv = ["--out", str(tmp_path), *command] if command else []
    out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, *argv], env=env,
                         capture_output=True, text=True, check=True).stdout
    return json.loads(out.splitlines()[-1])


@pytest.mark.parametrize("command", [
    [],
    ["budget"],
    ["characterize", "--fit"],
    ["variance", "--n", "2"],
    ["marginal", "--n", "2"],
    ["wigner", "--n", "1"],
    ["simulate", "--n-traces", "8", "--trace-len", "2048", "--click-seconds", "0.01"],
], ids=["import", "budget", "characterize", "variance", "marginal", "wigner",
        "simulate"])
def test_command_runs_without_scipy(tmp_path, command):
    assert _scipy_loaded_by(tmp_path, command) == [0, []]


def test_overflowing_budget_exits_3_and_writes_nothing(tmp_path, outdir):
    # every number is finite on input, but the flux overflows to infinity
    assert run_with({"system": {"nbar_th": 1e308}}, tmp_path, outdir, "budget") == 3
    assert not (outdir / "budget.json").exists()


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
     _SMALL_SIMULATE]))
def test_any_config_document_keeps_the_exit_code_contract(doc, command):
    with tempfile.TemporaryDirectory() as tmp:
        outdir = Path(tmp) / "out"
        assert run_with(doc, tmp, outdir, *command) in (0, 2, 3)
        _no_non_finite_files(outdir)
