"""Every CSV writer round-trips its arrays bit for bit; none writes NaN or inf."""

import re

import numpy as np
import pytest

from phonon_forge import dynamics as dyn
from phonon_forge import phase_space as ps
from phonon_forge import simulator as sim
from phonon_forge._formats import write_csv, write_json
from phonon_forge.errors import ConfigError, NumericsError


def _read_columns(path, parsers):
    lines = path.read_text().splitlines()
    rows = [line.split(",") for line in lines[1:]]
    assert all(len(row) == len(parsers) for row in rows)
    return lines[0], [[parse(row[i]) for row in rows]
                      for i, parse in enumerate(parsers)]


def _same_bits(parsed, expected):
    expected = np.asarray(expected)
    got = np.asarray(parsed, dtype=expected.dtype)
    assert got.shape == expected.shape
    assert got.tobytes() == expected.tobytes()


@pytest.fixture(scope="module")
def clicks():
    # about 2 dark events a second over both detectors, so a 4 s stream
    # holds one but with probability e^-8
    cfg = sim.SimConfig(seed=5)
    return sim.gated_click_stream(cfg, 4.0)


def test_grid_round_trip(tmp_path, params):
    spec = ps.StateSpec(nbar=50.0, n=1, eta=params.eta_total)
    grid = ps.wigner_s(spec, ps.GridConfig(npts=65))
    ps.write_grid(grid, tmp_path / "g.csv", tmp_path / "g.json")
    header, (x, p, value) = _read_columns(tmp_path / "g.csv", [float] * 3)
    assert header == "X,P,value"
    _same_bits(x, np.repeat(grid.axis, grid.npts))
    _same_bits(p, np.tile(grid.axis, grid.npts))
    _same_bits(value, grid.values.ravel())


def test_marginal_round_trip(tmp_path, params):
    spec = ps.StateSpec(nbar=50.0, n=2, eta=params.eta_total)
    marg = ps.marginal_on_grid(ps.measured_marginal(spec), np.linspace(-9, 9, 301))
    ps.write_marginal(marg, tmp_path / "m.csv")
    header, (x, dens) = _read_columns(tmp_path / "m.csv", [float] * 2)
    assert header == "X,density"
    _same_bits(x, marg.xs)
    _same_bits(dens, marg.density)


def test_variance_curve_round_trip(tmp_path, params):
    curve = dyn.variance_curve(params, 2, np.linspace(-1e-7, 1e-7, 201))
    dyn.write_variance_curve(curve, tmp_path / "v.csv")
    header, (tau, var) = _read_columns(tmp_path / "v.csv", [float] * 2)
    assert header == "tau,variance"
    _same_bits(tau, curve.taus)
    _same_bits(var, curve.values)


def test_clicks_round_trip(tmp_path, clicks):
    assert clicks.n_events > 10 and clicks.is_dark.any() and (clicks.detector == 1).any()
    sim.write_clicks_csv(clicks, tmp_path / "c.csv")
    header, (t, det, dark) = _read_columns(tmp_path / "c.csv", [float, int, int])
    assert header == "time,detector,is_dark"
    assert set(det) <= {0, 1} and set(dark) <= {0, 1}
    _same_bits(t, clicks.times)
    _same_bits(det, clicks.detector)
    _same_bits(np.asarray(dark).astype(bool), clicks.is_dark)


def test_heralds_round_trip(tmp_path, clicks):
    pairs = sim.ClickStream(np.array([1e-3, 1e-3 + 1e-9, 0.25]),
                            np.array([0, 1, 0], dtype=np.int8), np.zeros(3, dtype=bool),
                            duration=1.0, gate_rate=5e4, gate_len=3.5e-9)
    for heralds in (sim.herald_select(clicks, "single"),
                    sim.herald_select(pairs, "coincidence")):
        assert heralds.size > 0
        sim.write_heralds_csv(heralds, tmp_path / "h.csv")
        header, (t,) = _read_columns(tmp_path / "h.csv", [float])
        assert header == "herald_time"
        _same_bits(t, heralds)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_csv_refuses_non_finite_floats(tmp_path, bad):
    path = tmp_path / "x.csv"
    with pytest.raises(NumericsError):
        write_csv(path, "n,x", [np.arange(3), np.array([0.5, bad, 1.0])])
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_json_refuses_non_finite_floats(tmp_path, bad):
    path = tmp_path / "x.json"
    with pytest.raises(NumericsError):
        write_json(path, {"ok": 1.0, "nested": {"value": float(bad)}})
    assert not path.exists()


@pytest.mark.parametrize("bad", [np.array([1.0, 2.0]), np.float64, object(), {1: 2, "a": 3}],
                         ids=["array", "type", "object", "mixed-keys"])
def test_json_refuses_values_it_cannot_hold(tmp_path, bad):
    # no value is written as its str(): the refusal names the file, which
    # is never opened
    path = tmp_path / "x.json"
    with pytest.raises(ConfigError, match=re.escape(str(path))):
        write_json(path, {"ok": 1.0, "nested": {"value": bad}})
    assert not path.exists()


def test_json_writes_numpy_scalars_as_their_numbers(tmp_path):
    write_json(tmp_path / "plain.json", {"f": 0.1, "i": 3, "b": True,
                                         "f32": 0.10000000149011612})
    write_json(tmp_path / "numpy.json", {"f": np.float64(0.1), "i": np.int64(3),
                                         "b": np.bool_(True), "f32": np.float32(0.1)})
    assert (tmp_path / "numpy.json").read_bytes() == (tmp_path / "plain.json").read_bytes()


def test_csv_bytes_match_row_by_row_formatting(tmp_path):
    # the writer formats a repeated value once; the bytes must be those of
    # one % per row, for columns with few and with many distinct values
    side = 67
    n = side * side
    rng = np.random.default_rng(4)
    axis = np.linspace(-3.0, 3.0, side)
    columns = [np.arange(n) - 5000,                                # int64
               rng.random(n) < 0.5,                                # bool
               rng.integers(-128, 128, n).astype(np.int8),         # int8
               rng.choice([-0.0, 0.0, 2.5], n),                    # signed zeros
               np.repeat(axis, side), np.tile(axis, side),
               rng.standard_normal(n) * 10.0 ** rng.integers(-300, 300, n)]
    write_csv(tmp_path / "x.csv", "i,b,c,z,X,P,x", columns)
    expected = "i,b,c,z,X,P,x\n" + "".join(
        "%d,%d,%d,%.17g,%.17g,%.17g,%.17g\n" % row
        for row in zip(*(c.tolist() for c in columns)))
    assert (tmp_path / "x.csv").read_bytes() == expected.encode()
    assert {"-0", "0"} <= {line.split(",")[3] for line in expected.splitlines()}
