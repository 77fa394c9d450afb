"""End-to-end checks of the command-line front end: files, formats,
exit codes, determinism."""

import json
import math
import os
import random
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

import mcchannel.cli as cli
import mcchannel.config as config
from mcchannel import (
    DiffusionChannel,
    FrequencyBand,
    NormalizedBand,
    ReceptionSystem,
    channel_report,
    diffusion_delay_distortion_normalized,
    distance_bound,
    DesignSpec,
    load_scenario,
    load_table,
    scenario_from_dict,
)

SCENARIO = """\
channel:
  mu: 83.0
  x_r: 14.0
reception:
  k_f: 1.0e-3
  k_r: 4.0e-3
  r: 4.0
band:
  omega1: 5.0e-3
  omega2: 1.0e-1
thresholds:
  q_factor: 1.2
  r_factor: 1.2
simulation:
  amplitude: 0.1
  threshold: 0.09
  n_periods: 3
sweep:
  omega_min: 1.0e-2
  omega_max: 1.0e+2
  points: 9
"""

SPECIES = """\
reception:
  k_f: 1.0e-3
  k_r: 4.0e-3
  r: 4.0
decade_width: 10.0
q_fraction: 0.1
r_fraction: 0.1
species:
  - name: autoinducer
    mu: 83.0
    x_r: 10.0
  - name: ion
    mu: [500.0, 7000.0]
"""

RS = ReceptionSystem(k_f=1e-3, k_r=4e-3, r=4.0)
CH = DiffusionChannel(mu=83.0, x_r=14.0)
BAND = FrequencyBand(5e-3, 1e-1)


@pytest.fixture()
def scenario_path(tmp_path):
    path = tmp_path / "scenario.yaml"
    path.write_text(SCENARIO)
    return path


@pytest.fixture()
def species_path(tmp_path):
    path = tmp_path / "species.yaml"
    path.write_text(SPECIES)
    return path


def _strip_timestamp(payload: dict) -> dict:
    payload = json.loads(json.dumps(payload))
    payload["metadata"].pop("generated_at")
    return payload


def _data_rows(path: Path) -> list[str]:
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# tool: mcchannel ")
    assert lines[1].startswith("# parameters: ")
    return lines[2:]


def test_analyze_outputs(scenario_path, tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["analyze", "--config", str(scenario_path),
                   "--out", str(out), "--points", "64"])
    assert rc == 0

    report = json.loads((out / "report.json").read_text())
    want = channel_report(CH, RS, BAND)
    for key in ("q_g", "r_g", "q_h", "r_h", "q_m", "r_m"):
        assert_allclose(report["indices"][key], getattr(want, key), rtol=1e-12)
    assert_allclose(report["normalized"]["omega2p"], BAND.omega2 / RS.k_r,
                    rtol=1e-12)
    meta = report["metadata"]
    assert meta["tool"] == "mcchannel"
    assert meta["parameters"]["channel"] == {"mu": 83.0, "x_r": 14.0}
    assert meta["parameters"]["thresholds"] == {"q_factor": 1.2,
                                                "r_factor": 1.2}

    rows = _data_rows(out / "curves.csv")
    header, data = rows[0], rows[1:]
    assert header.split(",") == ["omega_rad_per_s", "gain_g_db", "gain_h_db",
                                 "gain_m_db", "delay_g_s", "delay_h_s",
                                 "delay_m_s"]
    assert len(data) == 64
    first, last = data[0].split(","), data[-1].split(",")
    assert_allclose(float(first[0]), BAND.omega1, rtol=1e-8)
    assert_allclose(float(last[0]), BAND.omega2, rtol=1e-8)
    for row in (first, last):
        # stage columns add up to the cascade columns
        assert abs(float(row[1]) + float(row[2]) - float(row[3])) < 1e-6
        assert abs(float(row[4]) + float(row[5]) - float(row[6])) < 1e-6


def test_analyze_is_deterministic_up_to_timestamp(scenario_path, tmp_path):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["analyze", "--config", str(scenario_path),
                     "--out", str(out_a)]) == 0
    assert cli.main(["analyze", "--config", str(scenario_path),
                     "--out", str(out_b)]) == 0
    assert (out_a / "curves.csv").read_bytes() == (out_b / "curves.csv").read_bytes()
    rep_a = json.loads((out_a / "report.json").read_text())
    rep_b = json.loads((out_b / "report.json").read_text())
    assert _strip_timestamp(rep_a) == _strip_timestamp(rep_b)


def test_design_with_factor_budgets(scenario_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["design", "--config", str(scenario_path),
                     "--out", str(out)]) == 0
    payload = json.loads((out / "design.json").read_text())
    report = channel_report(CH, RS, BAND)
    assert_allclose(payload["budgets"]["q0"], 1.2 * report.q_h, rtol=1e-12)
    assert_allclose(payload["budgets"]["r0"], 1.2 * report.r_h, rtol=1e-12)
    want = distance_bound(DesignSpec(q0=1.2 * report.q_h, r0=1.2 * report.r_h,
                                     band=BAND, mu=83.0, rs=RS))
    assert payload["result"]["feasible"] is True
    assert_allclose(payload["result"]["x_q"], want.x_q, rtol=1e-12)
    assert_allclose(payload["result"]["x_r_limit"], want.x_r_limit, rtol=1e-12)


def test_design_with_absolute_budgets(scenario_path, tmp_path):
    text = SCENARIO.replace("  q_factor: 1.2\n  r_factor: 1.2\n",
                            "  q0: 30.0\n  r0: 0.2\n")
    cfg = scenario_path.with_name("abs.yaml")
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "design.json").read_text())
    assert payload["budgets"] == {"q0": 30.0, "r0": 0.2}
    assert payload["result"]["feasible"] is True


def test_design_infeasible_still_exits_zero(scenario_path, tmp_path):
    # Budgets below the reception share: structured result, not an error.
    text = SCENARIO.replace("  q_factor: 1.2\n  r_factor: 1.2\n",
                            "  q0: 1.0e-3\n  r0: 1.0e-6\n")
    cfg = scenario_path.with_name("tight.yaml")
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "design.json").read_text())
    assert payload["result"]["feasible"] is False
    assert payload["result"]["x_r_limit"] is None


def test_design_requires_thresholds(scenario_path, tmp_path):
    text = SCENARIO.replace("thresholds:\n  q_factor: 1.2\n  r_factor: 1.2\n",
                            "")
    cfg = scenario_path.with_name("nothresh.yaml")
    cfg.write_text(text)
    assert cli.main(["design", "--config", str(cfg),
                     "--out", str(tmp_path / "out")]) == 2


def test_sweep_grid_and_ridge(scenario_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(scenario_path),
                     "--out", str(out), "--points", "41"]) == 0
    rows = _data_rows(out / "r_g.csv")
    header = rows[0].split(",")
    assert header[0] == "omega1p"
    cols = np.array([float(x) for x in header[1:]])
    assert len(cols) == 41
    body = [row.split(",") for row in rows[1:]]
    assert len(body) == 41
    grid = np.array([float(r[0]) for r in body])
    assert_allclose(grid[0], 1e-2, rtol=1e-9)
    assert_allclose(grid[-1], 1e2, rtol=1e-9)

    # Cells on and below the diagonal (w1' >= w2') stay empty.
    for i, row in enumerate(body):
        for j, cell in enumerate(row[1:]):
            assert (cell == "") == (grid[i] >= cols[j])

    # Spot value against the closed form, using lam from sweep.json.
    lam = json.loads((out / "sweep.json").read_text())["lam"]
    val = float(body[0][1 + 40])  # w1' = 1e-2 paired with w2' = 1e2
    want = diffusion_delay_distortion_normalized(NormalizedBand(1e-2, 1e2, lam))
    assert_allclose(val, want, rtol=1e-8)

    # In the last column the delay index must peak at w1' ~ w2'/4 = 25.
    last = np.array([float(r[-1]) if r[-1] != "" else -np.inf for r in body])
    peak = grid[int(np.argmax(last))]
    cell_ratio = grid[1] / grid[0]
    assert peak / cell_ratio <= 25.0 <= peak * cell_ratio


# The sweep's four normal-form closed forms written out with the math
# module, evaluated one cell at a time: the reference for the array sweep.
_LOG10_E = math.log10(math.e)
_SCALAR_SURFACES = {
    "q_g": lambda w1, w2, lam: (20.0 * lam * (math.sqrt(w2) - math.sqrt(w1))
                                * _LOG10_E),
    "r_g": lambda w1, w2, lam: (w1 / (2.0 * math.pi) * lam
                                * (1.0 / math.sqrt(w1) - 1.0 / math.sqrt(w2))),
    "q_h": lambda w1, w2, lam: 20.0 * math.log10(math.hypot(w2, 1.0)
                                                 / math.hypot(w1, 1.0)),
    "r_h": lambda w1, w2, lam: (math.atan(w1) - w1 / w2 * math.atan(w2))
                               / (2.0 * math.pi),
}


def _scalar_sweep_rows(omega_min, omega_max, points, lam, fn):
    grid = np.logspace(np.log10(omega_min), np.log10(omega_max), points)
    grid[0], grid[-1] = omega_min, omega_max
    grid = grid.tolist()
    rows = ["omega1p," + ",".join(f"{w2:.9g}" for w2 in grid)]
    for w1 in grid:
        cells = [f"{fn(w1, w2, lam):.9g}" if w1 < w2 else "" for w2 in grid]
        rows.append(f"{w1:.9g}," + ",".join(cells))
    return rows


@pytest.mark.parametrize("points", [2, 3, 60, 401])
def test_sweep_matches_scalar_reference(scenario_path, tmp_path, points):
    out = tmp_path / "out"
    assert cli.main(["sweep", "--config", str(scenario_path),
                     "--out", str(out), "--points", str(points)]) == 0
    lam = json.loads((out / "sweep.json").read_text())["lam"]
    for name, fn in _SCALAR_SURFACES.items():
        assert _data_rows(out / f"{name}.csv") == _scalar_sweep_rows(
            1e-2, 1e2, points, lam, fn), name


@pytest.mark.parametrize("ulps", [1, 3, 8])
def test_sweep_on_a_grid_a_few_ulps_wide(tmp_path, ulps):
    # logspace over a range a few ulps wide repeats values, so a cell is
    # blank exactly where its w1 >= w2 by value, wherever it sits.  The
    # diffusion surfaces use only sqrt and arithmetic and match the
    # scalar loop byte for byte.  The reception surfaces use np.hypot and
    # np.arctan, which differ from math.hypot and math.atan in the last
    # bit for some arguments; here the cells are themselves a few ulps of
    # rounding, so they are compared to a bound fixed from float64
    # epsilon: 4 ulps of the hypot ratio for q_h and 4 epsilon for r_h.
    eps = np.finfo(float).eps
    bounds = {"q_h": 20.0 * _LOG10_E * 4.0 * eps, "r_h": 4.0 * eps}
    for omega_min in (1e-2, 0.37, 1.0, 3.0, 25.0):
        omega_max = omega_min
        for _ in range(ulps):
            omega_max = math.nextafter(omega_max, math.inf)
        cfg = tmp_path / "narrow.yaml"
        cfg.write_text(SCENARIO.replace("omega_min: 1.0e-2",
                                        f"omega_min: {omega_min!r}")
                       .replace("omega_max: 1.0e+2", f"omega_max: {omega_max!r}"))
        out = tmp_path / f"out{omega_min}"
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 0
        lam = json.loads((out / "sweep.json").read_text())["lam"]
        for name, fn in _SCALAR_SURFACES.items():
            got = _data_rows(out / f"{name}.csv")
            want = _scalar_sweep_rows(omega_min, omega_max, 9, lam, fn)
            if name not in bounds:
                assert got == want, (omega_min, name)
                continue
            assert len(got) == len(want)
            assert got[0] == want[0]
            for got_row, want_row in zip(got[1:], want[1:]):
                got_cells, want_cells = got_row.split(","), want_row.split(",")
                assert got_cells[0] == want_cells[0]
                assert [c == "" for c in got_cells] == [c == "" for c in want_cells]
                for g, w in zip(got_cells[1:], want_cells[1:]):
                    if w:
                        assert abs(float(g) - float(w)) <= (
                            bounds[name] + 1e-8 * abs(float(w))), (name, g, w)


def test_simulate_route_selection(scenario_path, tmp_path):
    out = tmp_path / "fourier_only"
    assert cli.main(["simulate", "--config", str(scenario_path),
                     "--out", str(out), "--route", "fourier"]) == 0
    assert sorted(p.name for p in out.iterdir()) == [
        "simulate.json", "trace_channel_fourier.csv",
        "trace_reception_fourier.csv"]
    payload = json.loads((out / "simulate.json").read_text())
    assert payload["routes"] == ["fourier"]


def test_simulate_activation_summary(scenario_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(scenario_path),
                     "--out", str(out), "--route", "both"]) == 0
    assert len(list(out.glob("trace_*.csv"))) == 4
    payload = json.loads((out / "simulate.json").read_text())
    act = payload["activation"]
    assert set(act) == {"reception_fourier", "channel_fourier",
                        "reception_fdm", "channel_fdm"}
    T = 2.0 * math.pi / BAND.omega1
    for entry in act.values():
        assert entry["threshold"] == 0.09
        assert_allclose(entry["pulse_window"], [T / 2.0, T], rtol=1e-12)
    # The reception-only arm crosses 90% of its plateau about ln(10)/k_r
    # after the edge; the receiver at 14 um is too slow for this half
    # period and never crosses inside the window.
    rec = act["reception_fdm"]
    assert rec["activated"] is True
    assert abs(rec["latency"] - math.log(10.0) / RS.k_r) < 3.0
    assert act["channel_fdm"]["activated"] is False
    assert act["channel_fdm"]["t_on"] is None

    # traces are byte-deterministic across reruns
    again = tmp_path / "again"
    assert cli.main(["simulate", "--config", str(scenario_path),
                     "--out", str(again), "--route", "both"]) == 0
    for name in ("trace_channel_fdm.csv", "trace_reception_fourier.csv"):
        assert (out / name).read_bytes() == (again / name).read_bytes()


def test_simulate_trace_files_are_consistent(scenario_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(scenario_path),
                     "--out", str(out), "--route", "fdm"]) == 0
    scenario = load_scenario(scenario_path)
    rows = (out / "trace_reception_fdm.csv").read_text().splitlines()
    assert rows[0] == "# route: fdm"
    assert rows[1] == "t_s,v_uM,u_xr_uM,c_uM"
    cfg = scenario.solver
    assert len(rows) - 2 == int(round(cfg.duration / cfg.dt)) + 1
    # with x_r = 0 the received column equals the input column exactly
    for line in rows[2::97]:
        cells = line.split(",")
        assert cells[1] == cells[2]


def test_table_outputs(species_path, tmp_path):
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(species_path),
                     "--out", str(out)]) == 0
    rows = _data_rows(out / "table.csv")
    assert rows[0].split(",")[0] == "name"
    auto = rows[1].split(",")
    assert auto[0] == "autoinducer" and auto[6] == "ok"
    assert_allclose(float(auto[4]), 0.018454549, rtol=1e-3)
    assert_allclose(float(auto[5]), 10.0 * float(auto[4]), rtol=1e-9)
    ion = rows[2].split(",")
    assert ion[0] == "ion" and ion[6] == "no-distance"
    assert ion[3] == "" and ion[4] == "" and ion[5] == ""

    payload = json.loads((out / "table.json").read_text())
    assert [r["name"] for r in payload["rows"]] == ["autoinducer", "ion"]
    assert payload["rows"][1]["omega1"] is None


def test_table_with_every_banded_row_infeasible(tmp_path):
    # Receivers far beyond the ~18 um where the qualifying window closes
    # for mu = 83: the run still succeeds and marks each row infeasible.
    text = SPECIES.replace("    x_r: 10.0\n", "    x_r: 1.0e+4\n")
    text += ("  - name: far\n    mu: 83.0\n    x_r: 40.0\n"
             "  - name: slow\n    mu: 0.5\n    x_r: 250.0\n")
    cfg = tmp_path / "far.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 0
    rows = [line.split(",") for line in _data_rows(out / "table.csv")[1:]]
    assert [(r[0], r[4], r[5], r[6]) for r in rows] == [
        ("autoinducer", "", "", "infeasible"), ("ion", "", "", "no-distance"),
        ("far", "", "", "infeasible"), ("slow", "", "", "infeasible")]
    payload = json.loads((out / "table.json").read_text())
    assert [(r["omega1"], r["omega2"], r["status"]) for r in payload["rows"]] \
        == [(None, None, "infeasible"), (None, None, "no-distance"),
            (None, None, "infeasible"), (None, None, "infeasible")]


def test_table_without_banded_rows(tmp_path):
    cfg = tmp_path / "ranges.yaml"
    cfg.write_text(SPECIES.replace("    mu: 83.0\n    x_r: 10.0\n",
                                   "    mu: [83.0, 90.0]\n"))
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 0
    rows = json.loads((out / "table.json").read_text())["rows"]
    assert [r["status"] for r in rows] == ["no-distance", "no-distance"]


@pytest.mark.parametrize("mutation, hint", [
    ("  mu: 83.0\n", "missing"),                       # drop a required key
    ("band:\n", "bands:\n"),                           # unknown section
    ("  omega2: 1.0e-1\n", "  omega2: 1.0e-4\n"),      # inverted band
    ("  k_r: 4.0e-3\n", "  k_r: -4.0e-3\n"),           # negative rate
    ("  amplitude: 0.1\n", "  amplitude: fast\n"),     # non-numeric
    ("  x_r: 14.0\n", "  x_r: .inf\n"),                # non-finite
    ("  omega_max: 1.0e+2\n", "  omega_max: .inf\n"),  # non-finite sweep edge
    # Settings of the time-domain input, checked at load by every command.
    pytest.param("  n_periods: 3\n", "  n_periods: 3\n  duty: 1.5\n", id="duty"),
    pytest.param("  n_periods: 3\n", "  n_periods: 3\n  offset: -1.0\n",
                 id="offset"),
    pytest.param("  n_periods: 3\n", "  n_periods: 3\n  fundamental: 1.0\n",
                 id="fundamental-above-omega2"),
    # Inputs whose resolved discretization overflows or underflows.
    pytest.param("  n_periods: 3\n", "  n_periods: 1" + "0" * 400 + "\n",
                 id="n_periods-beyond-float"),
    pytest.param("  omega2: 1.0e-1\n", "  omega2: 1.0e+308\n",
                 id="harmonic-count-overflows"),
    pytest.param(("  mu: 83.0\n", "  omega2: 1.0e-1\n"),
                 ("  mu: 5.0e-324\n", "  omega2: 1.0e+6\n"), id="dx-underflows"),
    pytest.param(("  x_r: 14.0\n", "  mu: 83.0\n"),
                 ("  x_r: 1.0e+308\n", "  mu: 1.0e-300\n"), id="x_r-cells-overflow"),
])
def test_malformed_scenarios_exit_two(tmp_path, capsys, mutation, hint):
    if isinstance(mutation, str):
        mutation, hint = (mutation,), ("" if hint == "missing" else hint,)
    text = SCENARIO
    for old, new in zip(mutation, hint):
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    for command in ("analyze", "design", "sweep", "simulate"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        # The message names the file, and so the field or section at fault.
        assert capsys.readouterr().err.startswith(f"configuration error: {cfg}")


@pytest.mark.parametrize("mutation, bad", [
    ("    mu: [500.0, 7000.0]\n", '    mu: ["a", 2.0]\n'),
    ("    mu: [500.0, 7000.0]\n", "    mu: [500.0, .inf]\n"),
    ("    x_r: 10.0\n", "    x_r: .inf\n"),
    ("    x_r: 10.0\n", "    x_r: 1" + "0" * 400 + "\n"),
    ("decade_width: 10.0\n", "decade_width: .nan\n"),
    ("q_fraction: 0.1\n", "q_fraction: .nan\n"),
], ids=["mu-pair-text", "mu-pair-inf", "x_r-inf", "x_r-beyond-float",
        "decade_width-nan", "q_fraction-nan"])
def test_malformed_tables_exit_two(tmp_path, mutation, bad):
    assert mutation in SPECIES
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(SPECIES.replace(mutation, bad))
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()


_DROP = object()


def _edited(text: str, edits: dict) -> dict:
    """The YAML document with each dotted path set, or dropped with _DROP."""
    doc = yaml.safe_load(text)
    for dotted, value in edits.items():
        *head, last = (int(k) if k.isdigit() else k for k in dotted.split("."))
        node = doc
        for key in head:
            node = node[key]
        if value is _DROP:
            del node[last]
        else:
            node[last] = value
    return doc


@pytest.mark.parametrize("kind, edits, message", [
    # a missing required key or section
    ("scenario", {"channel.mu": _DROP}, "scenario.channel.mu: required key missing"),
    ("scenario", {"band": _DROP}, "scenario.band: required section missing"),
    ("survey", {"species": _DROP},
     "{origin}: sections 'reception' and 'species' required"),
    # an unknown key
    ("scenario", {"channel.foo": 1.0},
     "scenario.channel: unknown key(s) ['foo']; allowed: ['mu', 'x_r']"),
    ("scenario", {"bands": {}},
     "scenario: unknown key(s) ['bands']; allowed: ['band', 'channel', "
     "'reception', 'simulation', 'sweep', 'thresholds']"),
    ("survey", {"extra": 1},
     "{origin}: unknown key(s) ['extra']; allowed: ['decade_width', "
     "'q_fraction', 'r_fraction', 'reception', 'species']"),
    ("survey", {"reception.z": 1.0},
     "{origin}.reception: unknown key(s) ['z']; allowed: ['k_f', 'k_r', 'r']"),
    # a section that is not a mapping
    ("scenario", {"simulation": [1]},
     "scenario.simulation: expected a mapping, got list"),
    ("scenario", {"channel": None},
     "scenario.channel: expected a mapping, got NoneType"),
    # a non-number, a bool, a non-finite value
    ("scenario", {"simulation.amplitude": "fast"},
     "scenario.simulation.amplitude: expected a number, got 'fast'"),
    ("scenario", {"reception.k_f": True},
     "scenario.reception.k_f: expected a number, got True"),
    ("scenario", {"channel.x_r": math.inf},
     "scenario.channel.x_r: must be finite, got inf"),
    ("scenario", {"channel.x_r": 10 ** 400},
     "scenario.channel.x_r: must be finite, got inf"),
    ("scenario", {"band.omega2": math.nan},
     "scenario.band.omega2: must be finite, got nan"),
    ("scenario", {"simulation.n_periods": 2.5},
     "scenario.simulation.n_periods: expected an integer, got 2.5"),
    ("scenario", {"sweep.points": True},
     "scenario.sweep.points: expected an integer, got True"),
    ("survey", {"r_fraction": "x"}, "{origin}.r_fraction: expected a number, got 'x'"),
    ("survey", {"decade_width": True},
     "{origin}.decade_width: expected a number, got True"),
    # a value below its bound
    ("scenario", {"simulation.dx": 0}, "scenario.simulation.dx: must be > 0, got 0.0"),
    ("scenario", {"simulation.n_periods": 0},
     "scenario.simulation.n_periods: must be >= 1, got 0"),
    ("scenario", {"simulation.n_harmonics": -1},
     "scenario.simulation.n_harmonics: must be >= 0, got -1"),
    ("scenario", {"thresholds.q_factor": -1},
     "scenario.thresholds.q_factor: must be > 0, got -1.0"),
    ("scenario", {"channel.mu": -1.0}, "scenario: mu must be finite and > 0, got -1.0"),
    ("scenario", {"band.omega2": 1e-3},
     "scenario: omega2 must be finite and > omega1=0.005, got 0.001"),
    ("scenario", {"sweep.omega_min": 1e3},
     "scenario.sweep: need 0 < omega_min < omega_max, got [1000.0, 100.0]"),
    ("survey", {"decade_width": 1.0}, "{origin}.decade_width: must be > 1, got 1.0"),
    ("survey", {"q_fraction": 0}, "{origin}.q_fraction: must be > 0, got 0.0"),
    ("survey", {"reception.k_f": -1.0},
     "{origin}: k_f must be finite and > 0, got -1.0"),
    # thresholds given as both pairs, as neither, or as half a pair
    ("scenario", {"thresholds.q0": 1.0},
     "scenario.thresholds: give either q0/r0 or q_factor/r_factor, not both"),
    ("scenario", {"thresholds.q0": "x"},
     "scenario.thresholds: give either q0/r0 or q_factor/r_factor, not both"),
    ("scenario", {"thresholds": {}}, "scenario.thresholds: empty thresholds section"),
    ("scenario", {"thresholds": {"q0": 1.0}},
     "scenario.thresholds.r0: required key missing"),
    ("scenario", {"thresholds": {"r_factor": 1.0}},
     "scenario.thresholds.q_factor: required key missing"),
    ("scenario", {"thresholds.q1": 1.0},
     "scenario.thresholds: unknown key(s) ['q1']; "
     "allowed: ['q0', 'q_factor', 'r0', 'r_factor']"),
    # the species-row rules
    ("survey", {"species": "x"}, "{origin}.species: expected a non-empty list"),
    ("survey", {"species": []}, "{origin}.species: expected a non-empty list"),
    ("survey", {"species.0": "x"}, "{origin}.species[0]: expected a mapping, got str"),
    ("survey", {"species.0.foo": 1},
     "{origin}.species[0]: unknown key(s) ['foo']; allowed: ['mu', 'name', 'x_r']"),
    ("survey", {"species.0.name": _DROP},
     "{origin}.species[0].name: expected a non-empty string"),
    ("survey", {"species.0.mu": "x"},
     "{origin}.species[0].mu: expected a number or [lo, hi] pair, got 'x'"),
    ("survey", {"species.0.mu": [1.0, 2.0, 3.0]},
     "{origin}.species[0].mu: expected a number or [lo, hi] pair, "
     "got [1.0, 2.0, 3.0]"),
    ("survey", {"species.1.mu": [2.0, 1.0]},
     "{origin}.species[1].mu: need 0 < lo <= hi, got [2.0, 1.0]"),
    ("survey", {"species.0.mu": -1.0},
     "{origin}.species[0].mu: need 0 < lo <= hi, got [-1.0, -1.0]"),
    ("survey", {"species.1.mu": ["a", 1.0]},
     "{origin}.species[1].mu[0]: expected a number, got 'a'"),
    ("survey", {"species.0.x_r": 0.0}, "{origin}.species[0].x_r: must be > 0, got 0.0"),
    ("survey", {"species.0.x_r": None},
     "{origin}.species[0].x_r: expected a number, got None"),
    ("survey", {"species.1.x_r": 1.0},
     "{origin}.species[1]: rows with x_r need a single mu, not a range"),
    # the sweep points range
    ("scenario", {"sweep.points": 1},
     "scenario.sweep.points: must be in [2, 4096], got 1"),
    ("scenario", {"sweep.points": 5000},
     "scenario.sweep.points: must be in [2, 4096], got 5000"),
])
def test_config_error_messages(tmp_path, kind, edits, message):
    if kind == "scenario":
        with pytest.raises(config.ConfigError) as err:
            scenario_from_dict(_edited(SCENARIO, edits))
    else:
        path = tmp_path / "survey.yaml"
        path.write_text(yaml.safe_dump(_edited(SPECIES, edits)))
        with pytest.raises(config.ConfigError) as err:
            load_table(path)
        message = message.format(origin=path)
    assert str(err.value) == message


def test_missing_and_unparsable_files_exit_two(tmp_path):
    assert cli.main(["analyze", "--config", str(tmp_path / "nope.yaml"),
                     "--out", str(tmp_path / "out")]) == 2
    bad = tmp_path / "broken.yaml"
    bad.write_text("channel: [unclosed\n")
    assert cli.main(["analyze", "--config", str(bad),
                     "--out", str(tmp_path / "out")]) == 2


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="PyYAML was built without libyaml")
def test_yaml_loaders_agree():
    assert config._YAML_LOADER is yaml.CSafeLoader
    root = Path(__file__).resolve().parent.parent / "scenarios"
    rng = random.Random(11)
    rows = []
    for i in range(300):
        mu, x_r = 0.1 * 3e4 ** rng.random(), 1e-2 * 1e4 ** rng.random()
        if i % 5 == 0:
            rows.append(f"  - name: 's{i}'  # quoted\n"
                        f"    mu: [{mu:.6e}, {2 * mu:.3e}]\n")
        elif i % 5 == 1:
            rows.append(f'  - {{name: "s{i}", mu: {round(mu)}, x_r: {x_r!r}}}\n')
        else:
            rows.append(f"  - name: s{i}\n    mu: {mu:.6e}\n    x_r: {x_r:.4g}\n")
    survey = SPECIES + "".join(rows)
    texts = [(root / "baseline.yaml").read_text(),
             (root / "species.yaml").read_text(), SCENARIO, survey]
    for text in texts:
        c_doc = yaml.load(text, Loader=yaml.CSafeLoader)
        assert c_doc == yaml.load(text, Loader=yaml.SafeLoader)
    assert len(c_doc["species"]) == 302


@pytest.mark.parametrize("text", [
    b"channel: [unclosed\n",
    b"channel:\n\tmu: 83.0\n",
    b"channel: mu: 83.0\n",
    b"channel: *undefined\n",
    b"channel:\n  mu: \xff\xfe\n",
], ids=["unclosed", "tab", "nested-colon", "alias", "not-utf8"])
def test_malformed_yaml_exits_two(tmp_path, capsys, text):
    cfg = tmp_path / "bad.yaml"
    cfg.write_bytes(text)
    out = tmp_path / "out"
    for command in ("analyze", "table"):
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "configuration error" in capsys.readouterr().err


def test_design_evaluates_the_report_once(scenario_path, tmp_path,
                                          monkeypatch):
    calls = []

    def counted(*args):
        calls.append(args)
        return channel_report(*args)

    monkeypatch.setattr(cli, "channel_report", counted)
    assert cli.main(["design", "--config", str(scenario_path),
                     "--out", str(tmp_path / "out")]) == 0
    assert len(calls) == 1


def test_offgrid_receiver_exits_two(scenario_path, tmp_path):
    text = SCENARIO.replace("  n_periods: 3\n", "  n_periods: 3\n  dx: 3.0\n")
    cfg = scenario_path.with_name("offgrid.yaml")
    cfg.write_text(text)
    assert cli.main(["simulate", "--config", str(cfg),
                     "--out", str(tmp_path / "out"), "--route", "fdm"]) == 2


def test_sweep_rejects_bad_point_count(scenario_path, tmp_path, monkeypatch,
                                      capsys):
    def no_grid(*args, **kwargs):
        raise AssertionError("sweep built a grid for a rejected point count")

    monkeypatch.setattr(np, "logspace", no_grid)
    out = tmp_path / "out"
    ceiling = config.MAX_SWEEP_POINTS
    for points in ("1", "0", str(ceiling + 1), "1" + "0" * 30):
        assert cli.main(["sweep", "--config", str(scenario_path),
                         "--out", str(out), "--points", points]) == 2
        assert not out.exists()
        assert "--points" in capsys.readouterr().err
    for points in (1, ceiling + 1):
        cfg = tmp_path / f"points{points}.yaml"
        cfg.write_text(SCENARIO.replace("  points: 9\n", f"  points: {points}\n"))
        assert cli.main(["sweep", "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        assert "sweep.points" in capsys.readouterr().err
    assert config.check_sweep_points(ceiling, "--points") == ceiling


def test_numerical_failure_exits_three(scenario_path, tmp_path, monkeypatch):
    def explode(*args, **kwargs):
        raise FloatingPointError("overflow encountered in multiply")

    monkeypatch.setattr(cli, "channel_report", explode)
    assert cli.main(["analyze", "--config", str(scenario_path),
                     "--out", str(tmp_path / "out")]) == 3


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("route", ["fdm", "fourier"])
def test_nonfinite_trace_exits_three(tmp_path, capsys, route):
    # Finite inputs whose traces overflow: v_n + v_{n+1} and the Fourier
    # coefficients exceed the float range.  The run fails as a numerical
    # failure and removes the traces it wrote.  The finiteness check is
    # the only report: no numpy RuntimeWarning (an error here) on the way.
    cfg = tmp_path / "overflow.yaml"
    cfg.write_text(SCENARIO.replace("amplitude: 0.1", "amplitude: 1.5e+308")
                   .replace("threshold: 0.09", "threshold: 1.0e+307"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--route", route]) == 3
    err = capsys.readouterr().err
    assert err.startswith("numerical failure: ") and "not finite" in err
    assert err.count("\n") == 1 and err.endswith("\n")
    assert not list(out.glob("trace_*.csv"))
    assert not (out / "simulate.json").exists()


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; no CLI job pays for its import.
    probe = ("import sys, mcchannel.cli; "
             "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    src = Path(__file__).resolve().parent.parent / "src"
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", probe], env=env,
                          capture_output=True, text=True, check=True)
    assert done.stdout.strip() == "[]"


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["--version"])
    assert stop.value.code == 0
    assert "mcchannel" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_shipped_scenarios_parse():
    root = Path(__file__).resolve().parent.parent / "scenarios"
    scenario = load_scenario(root / "baseline.yaml")
    assert scenario.channel.x_r == 14.0
    assert scenario.band.omega2 == 0.4
    assert scenario.q_factor == 1.2
    table = load_table(root / "species.yaml")
    assert [row.name for row in table.species] == [
        "autoinducer", "neurotransmitter", "ion", "dna"]
    assert table.species[2].mu_hi == 7000.0

    # a scenario dict round-trips through the parser
    doc = {
        "channel": {"mu": 83.0, "x_r": 14.0},
        "reception": {"k_f": 1e-3, "k_r": 4e-3, "r": 4.0},
        "band": {"omega1": 5e-4, "omega2": 0.4},
    }
    parsed = scenario_from_dict(doc)
    assert parsed.band.period == 2.0 * math.pi / 5e-4
