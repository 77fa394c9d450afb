"""End-to-end checks of the command-line front end: files, formats,
exit codes, determinism."""

import csv
import gc
import json
import math
import os
import random
import re
import subprocess
import sys
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
import yaml
from numpy.testing import assert_allclose

import mcchannel.cli as cli
import mcchannel.config as config
import mcchannel.timedomain as timedomain
from mcchannel import (
    DiffusionChannel,
    FrequencyBand,
    NormalizedBand,
    ReceptionSystem,
    channel_report,
    diffusion_delay_distortion_normalized,
    diffusion_gain_db,
    diffusion_phase_delay,
    distance_bound,
    load_scenario,
    log_grid,
    reception_gain_db,
    reception_phase_delay,
    reception_amplitude_distortion,
    reception_delay_distortion,
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
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


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
        # stage columns add up to the channel columns
        assert abs(float(row[1]) + float(row[2]) - float(row[3])) < 1e-6
        assert abs(float(row[4]) + float(row[5]) - float(row[6])) < 1e-6


def test_curves_match_per_cell_formatting(scenario_path, tmp_path):
    # curves.csv is formatted in chunks of rows, through one %-template
    # per chunk; its bytes are those of formatting each cell alone.
    points = 10**5
    out = tmp_path / "out"
    assert cli.main(["analyze", "--config", str(scenario_path),
                     "--out", str(out), "--points", str(points)]) == 0
    grid = log_grid(BAND, points)
    gain_g, gain_h = diffusion_gain_db(CH, grid), reception_gain_db(RS, grid)
    delay_g = diffusion_phase_delay(CH, grid)
    delay_h = reception_phase_delay(RS, grid)
    # The channel's columns are the stage sums, bit for bit.
    columns = [c.tolist() for c in (grid, gain_g, gain_h, gain_g + gain_h,
                                    delay_g, delay_h, delay_g + delay_h)]
    want = [",".join("%.9g" % cell for cell in row) for row in zip(*columns)]
    assert _data_rows(out / "curves.csv")[1:] == want


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
    want = distance_bound(1.2 * report.q_h, 1.2 * report.r_h, BAND, 83.0, RS)
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


def test_design_requires_thresholds(scenario_path, tmp_path, capsys):
    text = SCENARIO.replace("thresholds:\n  q_factor: 1.2\n  r_factor: 1.2\n",
                            "")
    cfg = scenario_path.with_name("nothresh.yaml")
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["design", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(
        f"configuration error: {cfg}: design requires a thresholds section")


def test_design_distances_stay_in_range(scenario_path, tmp_path):
    # lam = sqrt(x_r^2 k_r / 2 mu) underflows to 0 here for every x_r
    # below about 3e63, so a bound that formed lam at a trial distance
    # would divide by zero; the inversion in lam does not form it.
    text = (SCENARIO.replace("mu: 83.0", "mu: 1.0e+150")
            .replace("k_r: 4.0e-3", "k_r: 1.0e-300")
            .replace("omega1: 5.0e-3", "omega1: 1.0e-6")
            .replace("omega2: 1.0e-1", "omega2: 1.0e-5"))
    cfg = scenario_path.with_name("extreme.yaml")
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    result = json.loads((out / "design.json").read_text())["result"]
    assert result["feasible"] is True
    assert all(math.isfinite(result[key])
               for key in ("x_q", "x_r_delay", "x_r_limit"))


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

    # Every artifact echoes the grid size used, not the file's 9.
    sweep = json.loads((out / "sweep.json").read_text())
    assert sweep["grid"]["points"] == 41
    assert sweep["metadata"]["parameters"]["sweep"]["points"] == 41
    for name in ("q_g", "r_g", "q_h", "r_h"):
        echo = (out / f"{name}.csv").read_text().splitlines()[1]
        assert echo.startswith("# parameters: ")
        assert json.loads(echo[len("# parameters: "):])["sweep"]["points"] == 41

    # Spot value against the closed form, using lam from sweep.json.
    lam = sweep["lam"]
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


def _scalar_q_h(w1, w2, lam):
    """q_h = 20 log10(h2 / h1), h = hypot(w', 1), as log1p(h2 / h1 - 1)."""
    h1, h2 = math.hypot(w1, 1.0), math.hypot(w2, 1.0)
    excess = (w2 - w1) / (0.5 * h1 + 0.5 * h2) * (0.5 * w2 + 0.5 * w1) / h1
    return 20.0 * (_LOG10_E * math.log1p(excess))


def _scalar_r_h(w1, w2, lam):
    """r_h, from its series w1 (w2^2 - w1^2) sum_k (-1)^(k+1) s_k / (2k + 1)
    up to w2 = 1/8, with s_k = w2^2 s_(k-1) + w1^2(k-1), to 9 terms; above
    it, for w1 > w2 / 2, as t atan(w2) - atan(t / (1/w2 + w1)) with
    t = (w2 - w1) / w2."""
    if w2 > 0.125:
        if w1 > 0.5 * w2:
            t = (w2 - w1) / w2
            return (t * math.atan(w2) - math.atan(t / (1.0 / w2 + w1))) / (
                2.0 * math.pi)
        return (math.atan(w1) - w1 / w2 * math.atan(w2)) / (2.0 * math.pi)
    total, s, power = 0.0, 1.0, 1.0
    for k in range(1, 10):
        total += (-1) ** (k + 1) * s / (2 * k + 1)
        power = power * w1 * w1
        s = w2 * w2 * s + power
    return w1 * (w2 - w1) * (w2 + w1) * total / (2.0 * math.pi)


def _root_gap(w1, w2):
    """sqrt(w2) - sqrt(w1), as (w2 - w1) / (sqrt(w2) + sqrt(w1))."""
    return (w2 - w1) / (math.sqrt(w2) + math.sqrt(w1))


_SCALAR_SURFACES = {
    "q_g": lambda w1, w2, lam: 20.0 * lam * _root_gap(w1, w2) * _LOG10_E,
    "r_g": lambda w1, w2, lam: (w1 / (2.0 * math.pi) * lam
                                * (_root_gap(w1, w2)
                                   / (math.sqrt(w1) * math.sqrt(w2)))),
    "q_h": _scalar_q_h,
    "r_h": _scalar_r_h,
}


def _scalar_sweep_rows(omega_min, omega_max, points, lam, fn):
    # The grid of log_grid: exponents from math.log10, not np.log10,
    # which differs in the last bit for some arguments (3.0 + 3 ulps).
    grid = np.logspace(math.log10(omega_min), math.log10(omega_max), points)
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


def test_simulate_without_threshold_reports_no_activation(tmp_path):
    raw = yaml.safe_load((SCENARIOS / "baseline.yaml").read_text())
    del raw["simulation"]["threshold"]
    path = tmp_path / "no_threshold.yaml"
    path.write_text(yaml.safe_dump(raw))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(path), "--out", str(out)]) == 0
    assert len(list(out.glob("trace_*.csv"))) == 4
    activation = json.loads((out / "simulate.json").read_text())["activation"]
    assert list(activation.values()) == [None] * 4


def test_both_routes_write_one_time_column(scenario_path, tmp_path):
    # Both routes sample the solver's time grid: the t_s columns of the
    # Fourier and FDM traces are the same bytes.
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(scenario_path),
                     "--out", str(out), "--route", "both"]) == 0
    for arm in ("reception", "channel"):
        columns = [[line.split(",", 1)[0] for line in
                    (out / f"trace_{arm}_{route}.csv").read_text().splitlines()[1:]]
                   for route in ("fourier", "fdm")]
        assert columns[0] == columns[1]
        assert len(columns[0]) == len(load_scenario(scenario_path)
                                      .solver.time_grid) + 1


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

    # The survey's parameter set as resolved at load, in field order.
    echoed = {"reception": {"k_f": 1e-3, "k_r": 4e-3, "r": 4.0},
              "decade_width": 10.0, "q_fraction": 0.1, "r_fraction": 0.1,
              "species": [{"name": "autoinducer", "mu_lo": 83.0,
                           "mu_hi": 83.0, "x_r": 10.0},
                          {"name": "ion", "mu_lo": 500.0, "mu_hi": 7000.0,
                           "x_r": None}]}
    assert (out / "table.csv").read_text().splitlines()[1] == (
        "# parameters: " + json.dumps(echoed, separators=(",", ":")))
    assert payload["metadata"]["parameters"] == echoed


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


@pytest.mark.filterwarnings("error")
def test_table_without_banded_rows(tmp_path):
    # No row is searched, so a k_r whose search would overflow is no error.
    for k_r in ("4.0e-3", "1.0e-300"):
        cfg = tmp_path / "ranges.yaml"
        cfg.write_text(SPECIES.replace("    mu: 83.0\n    x_r: 10.0\n",
                                       "    mu: [83.0, 90.0]\n")
                       .replace("  k_r: 4.0e-3\n", f"  k_r: {k_r}\n"))
        out = tmp_path / f"out-{k_r}"
        assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 0
        rows = json.loads((out / "table.json").read_text())["rows"]
        assert [r["status"] for r in rows] == ["no-distance", "no-distance"]


def test_table_csv_quotes_names_with_commas_quotes_and_line_breaks(tmp_path):
    names = ["acyl-HSL, C4", 'the "fast" ion', "two\nlines", "plain"]
    cfg = tmp_path / "names.yaml"
    cfg.write_text(SPECIES + "".join(
        f"  - name: {json.dumps(name)}\n    mu: 83.0\n" for name in names))
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 0
    with open(out / "table.csv", newline="") as fh:
        assert fh.readline().startswith("# tool: ")
        assert fh.readline().startswith("# parameters: ")
        rows = list(csv.reader(fh))
    assert [len(row) for row in rows] == [7] * 7
    assert [row[0] for row in rows] == ["name", "autoinducer", "ion", *names]
    # A name that needs no quotes is written as it stands.
    assert "\nplain,83,83,,,,no-distance\n" in (out / "table.csv").read_text()


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
    pytest.param("  n_periods: 3\n", "  n_periods: 3\n  dt: 5.0e-324\n",
                 id="dt-steps-overflow"),
    pytest.param("  n_periods: 3\n", "  n_periods: 3\n  dx: 5.0e-324\n",
                 id="dx-cells-overflow"),
    # A time grid of one instant: dt above twice the duration.
    pytest.param("  n_periods: 3\n", "  n_periods: 3\n  dt: 1.0e+6\n",
                 id="dt-one-sample"),
])
@pytest.mark.filterwarnings("error")
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
    for command in (["analyze"], ["design"], ["sweep"], ["simulate"],
                    ["simulate", "--route", "fourier"]):
        assert cli.main([*command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        # The message names the file, and so the field or section at fault.
        assert capsys.readouterr().err.startswith(f"configuration error: {cfg}")


@pytest.mark.parametrize("mutation, bad", [
    ("    mu: [500.0, 7000.0]\n", '    mu: ["a", 2.0]\n'),
    ("    mu: [500.0, 7000.0]\n", "    mu: [500.0, .inf]\n"),
    ("    x_r: 10.0\n", "    x_r: .inf\n"),
    ("    x_r: 10.0\n", "    x_r: 1" + "0" * 400 + "\n"),
    ("decade_width: 10.0\n", "decade_width: .nan\n"),
    ("decade_width: 10.0\n", "decade_width: 1.0\n"),
    ("q_fraction: 0.1\n", "q_fraction: .nan\n"),
    # lam = sqrt(x_r^2 k_r / 2 mu) of a banded row overflows.
    ("    mu: 83.0\n    x_r: 10.0\n", "    mu: 1.0e-300\n    x_r: 1.0e+100\n"),
    # The clean-band search's top band edge, 1e8 * decade_width / k_r,
    # overflows.
    ("  k_r: 4.0e-3\n", "  k_r: 1.0e-300\n"),
], ids=["mu-pair-text", "mu-pair-inf", "x_r-inf", "x_r-beyond-float",
        "decade_width-nan", "decade_width-one", "q_fraction-nan",
        "lam-overflows", "k_r-search-overflows"])
@pytest.mark.filterwarnings("error")
def test_malformed_tables_exit_two(tmp_path, capsys, mutation, bad):
    assert mutation in SPECIES
    cfg = tmp_path / "bad.yaml"
    cfg.write_text(SPECIES.replace(mutation, bad))
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err.startswith(f"configuration error: {cfg}")


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
    # omega_min equal to omega_max: an empty sweep range
    ("scenario", {"sweep.omega_min": 100.0},
     "scenario.sweep: need 0 < omega_min < omega_max, got [100.0, 100.0]"),
    # the open lower bounds at their edge
    ("scenario", {"sweep.omega_min": 0.0},
     "scenario.sweep: need 0 < omega_min < omega_max, got [0.0, 100.0]"),
    ("survey", {"species.1.mu": 0.0},
     "{origin}.species[1].mu: need 0 < lo <= hi, got [0.0, 0.0]"),
    # a relative budget, factor x reception share, beyond the float range
    ("scenario", {"thresholds.q_factor": 1e308},
     "scenario.thresholds.q_factor: gives q0 = inf, must be finite and > 0"),
    ("scenario", {"thresholds.r_factor": 5e-324},
     "scenario.thresholds.r_factor: gives r0 = 0.0, must be finite and > 0"),
])
@pytest.mark.filterwarnings("error")
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


@pytest.mark.parametrize("edits", [
    {"simulation.n_periods": 1},
    {"simulation.n_harmonics": 0},
    {"simulation.fundamental": 1.0e-1},     # band.omega2
], ids=["n_periods-1", "n_harmonics-0", "fundamental-omega2"])
def test_closed_bounds_admit_their_edge(edits):
    # Integer bounds and fundamental <= omega2 are inclusive: the edge
    # value loads and is resolved as given.
    scenario = scenario_from_dict(_edited(SCENARIO, edits))
    (dotted, value), = edits.items()
    assert scenario.parameters["simulation"][dotted.split(".")[1]] == value


@pytest.mark.filterwarnings("error")
def test_tiny_k_r_survey_exits_two(tmp_path, capsys):
    # The clean-band search's top band edge, 1e8 * decade_width / k_r,
    # overflows: one line naming the file and k_r, and no numpy warning.
    cfg = tmp_path / "survey.yaml"
    cfg.write_text(yaml.safe_dump(_edited(SPECIES, {
        "reception.k_r": 1e-300,
        "species": [{"name": "tiny", "mu": 1e-300, "x_r": 1e-5}]})))
    out = tmp_path / "out"
    assert cli.main(["table", "--config", str(cfg), "--out", str(out)]) == 2
    assert not out.exists()
    assert capsys.readouterr().err == (
        f"configuration error: {cfg}: reception k_r=1e-300 puts the "
        "clean-band search's top band edge, 1e+08 * decade_width / k_r, "
        "beyond the float range\n")


def test_missing_and_unparsable_files_exit_two(tmp_path, monkeypatch,
                                               capsys):
    # A config file that is missing, not YAML, a directory or unreadable
    # is a configuration error naming it, and leaves no --out.
    missing, bad, folder, unreadable = (
        tmp_path / name for name in ("nope.yaml", "broken.yaml", "folder",
                                     "unreadable.yaml"))
    bad.write_text("channel: [unclosed\n")
    folder.mkdir()
    unreadable.write_text(SCENARIO)
    out = tmp_path / "out"

    def refused(command, cfg) -> str:
        assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()
        return capsys.readouterr().err

    def denied(*args, **kwargs):
        raise PermissionError(13, "Permission denied")

    for command in ("analyze", "design", "table"):
        assert refused(command, missing) == (
            f"configuration error: config file not found: {missing}\n")
        assert refused(command, bad).startswith(
            f"configuration error: {bad}: invalid YAML")
        assert refused(command, folder).startswith(
            f"configuration error: {folder}: cannot be read (")
        # root reads a mode-000 file all the same, so the open is refused.
        monkeypatch.setattr(config, "open", denied, raising=False)
        assert refused(command, unreadable) == (
            f"configuration error: {unreadable}: cannot be read "
            "(Permission denied)\n")
        monkeypatch.undo()


@pytest.mark.skipif(not yaml.__with_libyaml__,
                    reason="PyYAML was built without libyaml")
def test_yaml_loaders_agree():
    assert config._YAML_LOADER is yaml.CSafeLoader
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
    texts = [(SCENARIOS / "baseline.yaml").read_text(),
             (SCENARIOS / "species.yaml").read_text(), SCENARIO, survey]
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


def test_design_evaluates_no_channel_report(scenario_path, tmp_path,
                                            monkeypatch):
    # design.json holds the reception share only, so design never forms
    # the diffusion indices.
    calls = []

    def counted(*args):
        calls.append(args)
        return channel_report(*args)

    monkeypatch.setattr(cli, "channel_report", counted)
    assert cli.main(["design", "--config", str(scenario_path),
                     "--out", str(tmp_path / "out")]) == 0
    assert calls == []


# (edits to SCENARIO, the ParameterError message after the file name)
# omega2 / k_r overflows: the normal-form band is out of range.
BAND_BEYOND_RANGE = ({"k_r: 4.0e-3": "k_r: 1.0e-300",
                      "omega1: 5.0e-3": "omega1: 1.0e+8",
                      "omega2: 1.0e-1": "omega2: 1.0e+9"},
                     "omega2p must be finite and > omega1p=1e+308, got inf")
# lam = sqrt(x_r^2 k_r / 2 mu) overflows; design does not need it.
LAM_BEYOND_RANGE = ({"mu: 83.0": "mu: 1.0", "x_r: 14.0": "x_r: 1.0e+100",
                     "k_r: 4.0e-3": "k_r: 1.0e+150",
                     "omega1: 5.0e-3": "omega1: 1.0e+199",
                     "omega2: 1.0e-1": "omega2: 1.0e+200"},
                    "lam must be finite and >= 0, got inf")


def _scenario_with(tmp_path, edits: dict) -> Path:
    text = SCENARIO
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "edited.yaml"
    cfg.write_text(text)
    return cfg


@pytest.mark.parametrize("command, case", [
    ("analyze", BAND_BEYOND_RANGE), ("design", BAND_BEYOND_RANGE),
    ("analyze", LAM_BEYOND_RANGE), ("sweep", LAM_BEYOND_RANGE),
    ("simulate", BAND_BEYOND_RANGE),
], ids=["analyze-band", "design-band", "analyze-lam", "sweep-lam",
        "simulate-band"])
@pytest.mark.filterwarnings("error")
def test_errors_after_load_name_the_file(tmp_path, capsys, command, case):
    edits, message = case
    cfg = _scenario_with(tmp_path, edits)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 2
    assert capsys.readouterr().err == f"configuration error: {cfg}: {message}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_relative_budgets_are_resolved_at_load(tmp_path):
    # q_factor and r_factor scale the reception share when the file is
    # loaded, so a band whose share leaves the float range refuses every
    # command; with absolute budgets or none the same band loads.
    edits, message = BAND_BEYOND_RANGE
    cfg = _scenario_with(tmp_path, edits)
    with pytest.raises(config.ConfigError) as err:
        load_scenario(cfg)
    assert str(err.value) == f"{cfg}: {message}"
    doc = yaml.safe_load(cfg.read_text())
    doc["thresholds"] = {"q0": 30.0, "r0": 0.2}
    absolute = scenario_from_dict(doc)
    assert (absolute.q0, absolute.r0) == (30.0, 0.2)
    del doc["thresholds"]
    assert scenario_from_dict(doc).q0 is None
    assert load_scenario(_scenario_with(tmp_path, {})).r0 == 1.2 * float(
        reception_delay_distortion(RS, BAND))


def test_design_needs_no_diffusion_index(tmp_path):
    # lam overflows, but the bound is lam-free: the reception share and
    # the inversion at lam = 1 are in range, and so are the distances.
    cfg = _scenario_with(tmp_path, LAM_BEYOND_RANGE[0])
    out = tmp_path / "out"
    assert cli.main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    payload = json.loads((out / "design.json").read_text())
    scenario = load_scenario(cfg)
    q_h = reception_amplitude_distortion(scenario.reception, scenario.band)
    r_h = reception_delay_distortion(scenario.reception, scenario.band)
    assert payload["reception_indices"] == {"q_h": q_h, "r_h": r_h}
    assert payload["budgets"] == {"q0": 1.2 * q_h, "r0": 1.2 * r_h}
    want = distance_bound(1.2 * q_h, 1.2 * r_h, scenario.band, 1.0,
                          scenario.reception)
    result = payload["result"]
    assert result == {"x_q": want.x_q, "x_r_delay": want.x_r_delay,
                      "x_r_limit": want.x_r_limit, "feasible": want.feasible}
    assert all(math.isfinite(result[key]) for key in ("x_q", "x_r_delay"))


def test_offgrid_receiver_exits_two(scenario_path, tmp_path, monkeypatch,
                                    capsys):
    # The FDM grid is checked only for the routes that use it.
    text = SCENARIO.replace("  n_periods: 3\n", "  n_periods: 3\n  dx: 3.0\n")
    cfg = scenario_path.with_name("offgrid.yaml")
    cfg.write_text(text)
    out = tmp_path / "out"

    # Refused before any solve, the Fourier route's included.
    def no_solve(*args, **kwargs):
        raise AssertionError("solved before the FDM grid was checked")

    monkeypatch.setattr(cli, "synthesize_fourier", no_solve)
    monkeypatch.setattr(timedomain, "_causal_response", no_solve)
    for route in ("fdm", "both"):
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--route", route]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: x_r=14 is not on the spatial grid "
            "(dx=3); snap error exceeds 0.1%\n")
    monkeypatch.undo()
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                     "--route", "fourier"]) == 0


def test_receiver_on_the_far_boundary_exits_two(tmp_path, capsys):
    # x_r = 12 rounds to node 4 of a round(13 / 3) = 4-cell mesh: the
    # Dirichlet boundary, where the solution is 0 at every step.
    cfg = tmp_path / "far.yaml"
    cfg.write_text(SCENARIO.replace("x_r: 14.0", "x_r: 12.0").replace(
        "  n_periods: 3\n",
        "  n_periods: 3\n  dx: 3.0\n  domain_length: 13.0\n"))
    out = tmp_path / "out"
    for route in ("fdm", "both"):
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--route", route]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"configuration error: {cfg}: x_r=12 is on node 4 of a 4-cell "
            "mesh, not an interior node (domain_length=13, dx=3)\n")


def test_zero_distance_simulates_the_reception_arm_twice(tmp_path):
    # A receiver at the transmitter has no diffusion stage: on each route
    # the channel arm is the reception arm, file for file.
    cfg = tmp_path / "zero.yaml"
    cfg.write_text(SCENARIO.replace("x_r: 14.0", "x_r: 0.0"))
    out = tmp_path / "out"
    assert cli.main(["simulate", "--config", str(cfg), "--out", str(out)]) == 0
    activation = json.loads((out / "simulate.json").read_text())["activation"]
    for route in ("fourier", "fdm"):
        assert ((out / f"trace_channel_{route}.csv").read_bytes()
                == (out / f"trace_reception_{route}.csv").read_bytes()), route
        assert activation[f"channel_{route}"] == activation[f"reception_{route}"]


BIG = "1" + "0" * 30


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("edit, route, key", [
    (f"n_harmonics: {BIG}", "fourier", "n_harmonics"),
    (f"n_harmonics: {BIG}", "both", "n_harmonics"),
    (f"n_periods: {BIG}", "fourier", "n_periods"),
    (f"n_periods: {BIG}", "fdm", "n_periods"),
    # Just over the budget of 2**22: harmonics; at 320 steps a period,
    # 4,194,561 samples, and 4 x 1,048,640 steps bounding the FFT points.
    (f"n_harmonics: {2**22 + 1}", "fourier", "n_harmonics"),
    ("n_periods: 13108", "fourier", "n_periods"),
    ("n_periods: 3277", "fdm", "n_periods"),
    # dx^2 underflows: the mesh ratio mu dt / (2 dx^2) is inf.
    ("dx: 1.0e-170", "fdm", "dx"),
    # mu dt / (2 dx^2) underflows: the mesh ratio is 0.
    ("dx: 1.0e+170", "fdm", "dx"),
    # T/dt = 251.3: the Fourier route needs whole samples per period.
    ("dt: 5.0", "fourier", "dt"),
    ("dt: 5.0", "both", "dt"),
], ids=["harmonics-1e30-fourier", "harmonics-1e30-both", "periods-1e30-fourier",
        "periods-1e30-fdm", "harmonics-over-fourier", "samples-over-fourier",
        "fft-over-fdm", "mesh-ratio-inf-fdm", "mesh-ratio-zero-fdm",
        "dt-off-period-fourier", "dt-off-period-both"])
def test_oversized_solves_exit_two_before_allocating(tmp_path, capsys,
                                                     monkeypatch, edit, route,
                                                     key):
    text = SCENARIO.replace("  n_periods: 3\n", f"  n_periods: 3\n  {edit}\n")
    if edit.startswith("n_periods"):
        text = text.replace("  n_periods: 3\n", "")
    cfg = tmp_path / "big.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"

    def no_allocation(*args, **kwargs):
        raise AssertionError("allocated before the size check")

    with monkeypatch.context() as patched:
        for name in ("arange", "empty", "zeros", "full", "ones"):
            patched.setattr(np, name, no_allocation)
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--route", route]) == 2
    assert capsys.readouterr().err.startswith(
        f"configuration error: {cfg}.simulation.{key}: ")
    assert not out.exists()
    if key in ("n_harmonics", "dt"):    # the check is per route
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--route", "fdm"]) == 0


def test_fine_mesh_runs_at_the_cost_of_its_steps(tmp_path):
    # The FDM receiver kernel's work grows with the step count, not the
    # cell count: on the baseline, dx = 1e-3 (2.9 million cells) solves,
    # and its channel latency stays within 0.01 s of the default mesh's
    # (dx = 2.8, 707.38 s).
    latency = []
    for name, edit in (("fine", "  n_periods: 3\n  dx: 1.0e-3\n"),
                       ("default", "  n_periods: 3\n")):
        cfg = tmp_path / f"{name}.yaml"
        cfg.write_text((SCENARIOS / "baseline.yaml").read_text().replace(
            "  n_periods: 3\n", edit))
        out = tmp_path / name
        assert cli.main(["simulate", "--config", str(cfg), "--out", str(out),
                         "--route", "fdm"]) == 0
        payload = json.loads((out / "simulate.json").read_text())
        assert payload["metadata"]["parameters"]["simulation"]["dx"] == (
            1e-3 if name == "fine" else pytest.approx(2.8))
        latency.append(payload["activation"]["channel_fdm"]["latency"])
    assert latency[0] == pytest.approx(latency[1], abs=0.01)


def test_solve_size_budget_is_inclusive():
    # One below the just-over cases above: exactly 2**22 harmonics (on
    # 961 samples), 4,194,241 samples (of 1,024 harmonics) and 1,048,320
    # steps.
    doc = yaml.safe_load(SCENARIO)
    doc["simulation"]["n_harmonics"] = config.MAX_SOLVE_SIZE
    config.check_solve_sizes(scenario_from_dict(doc), ["fourier"], "s")
    doc["simulation"]["n_harmonics"] = 1024
    doc["simulation"]["n_periods"] = 13107
    config.check_solve_sizes(scenario_from_dict(doc), ["fourier"], "s")
    doc["simulation"]["n_periods"] = 3276
    config.check_solve_sizes(scenario_from_dict(doc), ["fdm"], "s")


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
    assert config.check_points(ceiling, "--points", ceiling) == ceiling


def test_analyze_rejects_bad_point_count(scenario_path, tmp_path, monkeypatch,
                                        capsys):
    # Just above the cap is refused before any grid or output exists.
    def no_grid(*args, **kwargs):
        raise AssertionError("analyze built a grid for a rejected point count")

    monkeypatch.setattr(np, "logspace", no_grid)
    out = tmp_path / "out"
    for points in (1, config.MAX_CURVE_POINTS + 1):
        assert cli.main(["analyze", "--config", str(scenario_path),
                         "--out", str(out), "--points", str(points)]) == 2
        assert not out.exists()
        assert capsys.readouterr().err == (
            f"configuration error: --points: must be in "
            f"[2, {config.MAX_CURVE_POINTS}], got {points}\n")


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
    # failure and leaves no output directory.  The finiteness check is
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
    assert not out.exists()


# The band [1, 1 + 2^-52] in corner units (k_r = 1), with budgets of 1.
NARROW_BAND = {"k_r: 4.0e-3": "k_r: 1.0", "omega1: 5.0e-3": "omega1: 1.0",
               "omega2: 1.0e-1": "omega2: 1.0000000000000002",
               "  q_factor: 1.2\n  r_factor: 1.2\n": "  q0: 1.0\n  r0: 1.0\n"}


def test_design_on_a_band_one_ulp_wide(tmp_path):
    # sqrt(w2') - sqrt(w1') is taken without cancelling to 0, so the
    # distances are finite and near their 50-digit values (mpmath).
    text = SCENARIO
    for old, new in NARROW_BAND.items():
        text = text.replace(old, new)
    cfg = tmp_path / "narrow.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main(["design", "--config", str(cfg), "--out", str(out)]) == 0
    result = json.loads((out / "design.json").read_text())["result"]
    assert_allclose([result["x_q"], result["x_r_delay"]],
                    [1.3360709067818676e16, 7.291614209076836e17], rtol=1e-14)


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, edits, failure", [
    # x_q = sqrt(2 mu) (q0 - q_h) / q_1 lies beyond the float range.
    ("design", {"mu: 83.0": "mu: 1.0e+10",
                "  q_factor: 1.2\n  r_factor: 1.2\n":
                "  q0: 1.0e+305\n  r0: 1.0e+305\n"},
     "distance bound beyond the float range (x_q=inf, x_r_delay=inf)"),
    # On a band one ulp wide q_1 and r_1 are about 1e-15 and 1e-17, so
    # budgets of 1e300 put both distances beyond the float range.
    ("design", NARROW_BAND | {"  q0: 1.0\n  r0: 1.0\n":
                              "  q0: 1.0e+300\n  r0: 1.0e+300\n"},
     "distance bound beyond the float range (x_q=inf, x_r_delay=inf)"),
    # lam and w' are in range, but x_r^2 w / (2 mu) of the curves is not.
    ("analyze", {"mu: 83.0": "mu: 1.0e-300", "k_f: 1.0e-3": "k_f: 1.0",
                 "k_r: 4.0e-3": "k_r: 1.0e-150", "r: 4.0": "r: 1.0",
                 "omega1: 5.0e-3": "omega1: 1.0e+8",
                 "omega2: 1.0e-1": "omega2: 1.0e+9"},
     "the response curves leave the float range on the band"),
    # lam is in range, but r_g = (w1'/2 pi) lam (...) is not at w1' = 1e200.
    ("sweep", {"mu: 83.0": "mu: 1.0e-300", "x_r: 14.0": "x_r: 1.0e+5",
               "omega_max: 1.0e+2": "omega_max: 1.0e+300",
               "points: 9": "points: 4"},
     "a sweep surface leaves the float range on the grid"),
], ids=["design", "design-narrow-band", "analyze", "sweep"])
def test_nonfinite_results_exit_three(tmp_path, capsys, command, edits,
                                      failure):
    # A number beyond the float range never reaches an artifact (json
    # would write Infinity, which is not JSON): one numerical failure
    # line, no numpy RuntimeWarning (an error here), no output directory.
    text = SCENARIO
    for old, new in edits.items():
        assert old in text
        text = text.replace(old, new)
    cfg = tmp_path / "overflow.yaml"
    cfg.write_text(text)
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 3
    assert capsys.readouterr().err == f"numerical failure: {failure}\n"
    assert not out.exists()


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("command, text, old", [
    # np.logspace overflows at the last point, which is pinned to omega_max.
    ("sweep", SCENARIO, "omega_max: 1.0e+2"),
    # q_fraction * q_h is inf: an amplitude budget that never binds.
    ("table", SPECIES, "q_fraction: 0.1"),
    # 2 mu would overflow in lam; the row's lam is about 3e-155.
    ("table", SPECIES, "mu: 83.0"),
], ids=["sweep-omega_max", "table-q_fraction", "table-mu"])
def test_extreme_valid_inputs_run_without_numpy_warnings(tmp_path, capsys,
                                                         command, text, old):
    # A value at the top of the float range is valid here, and the run
    # writes its artifacts: no numpy RuntimeWarning (an error here) and
    # nothing on stderr.
    assert text.count(old) == 1
    key = old.split(":")[0]
    cfg = tmp_path / "extreme.yaml"
    cfg.write_text(text.replace(old, f"{key}: {sys.float_info.max!r}"))
    out = tmp_path / "out"
    assert cli.main([command, "--config", str(cfg), "--out", str(out)]) == 0
    assert capsys.readouterr().err == ""


COMMANDS = ["analyze", "design", "sweep", "simulate", "table"]


def _config_for(command, scenario_path, species_path) -> str:
    return str(species_path if command == "table" else scenario_path)


@pytest.mark.parametrize("command", COMMANDS)
def test_failed_write_leaves_no_output(scenario_path, species_path, tmp_path,
                                       monkeypatch, capsys, command):
    # Every command writes a JSON artifact, most of them after their CSVs:
    # a failure there leaves no --out, no staging directory and none of
    # the missing parents of --out.  The same run then succeeds and leaves
    # only --out in its parent.
    def broken(path, payload):
        raise FloatingPointError("injected")

    cfg = _config_for(command, scenario_path, species_path)
    for i, relative in enumerate(("out", "made/for/out")):
        base = tmp_path / f"case{i}"
        base.mkdir()
        out = base / relative
        monkeypatch.setattr(cli, "_write_json", broken)
        argv = [command, "--config", cfg, "--out", str(out)]
        assert cli.main(argv) == 3
        assert capsys.readouterr().err == "numerical failure: injected\n"
        assert not any(base.iterdir())
        monkeypatch.undo()
        assert cli.main(argv) == 0
        assert sorted(path.name for path in out.parent.iterdir()) == ["out"]
        assert any(out.glob("*.json"))


def test_existing_out_keeps_its_files(scenario_path, tmp_path, monkeypatch):
    out = tmp_path / "out"
    out.mkdir()
    (out / "keep.txt").write_text("kept\n")
    (out / "design.json").write_text("stale\n")
    argv = ["design", "--config", str(scenario_path), "--out", str(out)]

    # A failure midway through writing design.json, after its open().
    def broken(payload, indent):
        raise FloatingPointError("injected")

    monkeypatch.setattr(cli, "json", SimpleNamespace(dumps=broken))
    assert cli.main(argv) == 3
    assert sorted(tmp_path.iterdir()) == [out, scenario_path]
    assert sorted(path.name for path in out.iterdir()) == ["design.json",
                                                           "keep.txt"]
    assert (out / "keep.txt").read_bytes() == b"kept\n"
    assert (out / "design.json").read_bytes() == b"stale\n"

    monkeypatch.undo()
    assert cli.main(argv) == 0
    assert sorted(tmp_path.iterdir()) == [out, scenario_path]
    assert (out / "keep.txt").read_bytes() == b"kept\n"
    assert "result" in json.loads((out / "design.json").read_text())


def test_existing_out_is_staged_inside_it(scenario_path, tmp_path,
                                          monkeypatch):
    # An existing --out needs no write access to its parent, nor a parent
    # on its filesystem: the command stages in a hidden directory inside
    # it, gone once the files are published.
    parent = tmp_path / "parent"
    out = parent / "out"
    out.mkdir(parents=True)
    staged = []
    write_json = cli._write_json

    def recorded(path, payload):
        staged.append(path)
        write_json(path, payload)

    monkeypatch.setattr(cli, "_write_json", recorded)
    parent.chmod(0o555)
    try:
        assert cli.main(["design", "--config", str(scenario_path),
                         "--out", str(out)]) == 0
    finally:
        parent.chmod(0o755)
    (path,) = staged
    assert path.parent.parent == out.resolve()
    assert path.parent.name.startswith(".")
    assert [p.name for p in parent.iterdir()] == ["out"]
    assert [p.name for p in out.iterdir()] == ["design.json"]


def test_unwritable_out_exits_two(scenario_path, tmp_path, monkeypatch,
                                  capsys):
    # A staging directory that cannot be made is a configuration error
    # naming --out, before the configuration is read.
    def denied(self, *args, **kwargs):
        raise PermissionError(13, "Permission denied")

    def no_load(path):
        raise AssertionError("loaded the configuration")

    monkeypatch.setattr(Path, "mkdir", denied)
    monkeypatch.setattr(cli, "load_scenario", no_load)
    for out in (tmp_path / "new", tmp_path):
        before = sorted(tmp_path.iterdir())
        assert cli.main(["design", "--config", str(scenario_path),
                         "--out", str(out)]) == 2
        assert capsys.readouterr().err == (
            f"configuration error: --out {out}: Permission denied\n")
        assert sorted(tmp_path.iterdir()) == before


def test_publish_refuses_a_directory_in_the_way(scenario_path, tmp_path,
                                                capsys):
    # analyze writes report.json and curves.csv.  A directory named
    # curves.csv in an existing --out is found before any file moves, so
    # the stale report.json stays as it was.
    out = tmp_path / "out"
    (out / "curves.csv").mkdir(parents=True)
    (out / "curves.csv" / "inner.txt").write_text("inner\n")
    (out / "report.json").write_text("stale\n")
    assert cli.main(["analyze", "--config", str(scenario_path),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: --out {out}: curves.csv is a directory\n")
    assert sorted(p.name for p in out.iterdir()) == ["curves.csv",
                                                      "report.json"]
    assert (out / "report.json").read_text() == "stale\n"
    assert [p.name for p in (out / "curves.csv").iterdir()] == ["inner.txt"]


@pytest.mark.filterwarnings("error")
@pytest.mark.parametrize("below", [False, True], ids=["file", "below-file"])
@pytest.mark.parametrize("command", COMMANDS)
def test_out_on_a_file_exits_two(scenario_path, species_path, tmp_path,
                                 monkeypatch, capsys, command, below):
    # Refused before the configuration is even read; the file is untouched.
    def no_load(path):
        raise AssertionError("loaded the configuration")

    monkeypatch.setattr(cli, "load_scenario", no_load)
    monkeypatch.setattr(cli, "load_table", no_load)
    blocker = tmp_path / "blocker"
    blocker.write_bytes(b"data\n")
    out = blocker / "sub" if below else blocker
    before = sorted(tmp_path.iterdir())
    assert cli.main([command, "--config",
                     _config_for(command, scenario_path, species_path),
                     "--out", str(out)]) == 2
    assert capsys.readouterr().err == (
        f"configuration error: --out {out}: {blocker.resolve()} "
        "is not a directory\n")
    assert blocker.read_bytes() == b"data\n"
    assert sorted(tmp_path.iterdir()) == before


def _fresh_env(**extra: str) -> dict:
    """The environment of a fresh interpreter with src importable."""
    src = Path(__file__).resolve().parent.parent / "src"
    return {**os.environ, **extra, "PYTHONPATH": os.pathsep.join(
        filter(None, (str(src), os.environ.get("PYTHONPATH"))))}


def _probe(code: str) -> str:
    """What a fresh interpreter running code prints, with src importable."""
    done = subprocess.run([sys.executable, "-c", code], env=_fresh_env(),
                          capture_output=True, text=True, check=True)
    return done.stdout.strip()


def _artifacts(out: Path) -> dict:
    """Every file under out, by relative name, with generated_at masked."""
    return {str(path.relative_to(out)): re.sub(
                rb'"generated_at": "[^"]*"', b'"generated_at": ""',
                path.read_bytes())
            for path in sorted(out.rglob("*")) if path.is_file()}


def test_artifacts_do_not_depend_on_the_blas_thread_count(tmp_path):
    # Every command on the shipped scenarios, each in a fresh process
    # under one and under two BLAS threads, writes the same bytes.
    jobs = [(command, SCENARIOS / "baseline.yaml")
            for command in ("analyze", "design", "sweep", "simulate")]
    jobs.append(("table", SCENARIOS / "species.yaml"))
    runs = {}
    for threads in ("1", "2"):
        out = tmp_path / f"threads-{threads}"
        for command, cfg in jobs:
            subprocess.run([sys.executable, "-m", "mcchannel.cli", command,
                            "--config", str(cfg), "--out", str(out / command)],
                           env=_fresh_env(OPENBLAS_NUM_THREADS=threads),
                           check=True)
        runs[threads] = _artifacts(out)
    assert len(runs["1"]) == 15
    assert runs["1"].keys() == runs["2"].keys()
    assert [name for name in runs["1"]
            if runs["1"][name] != runs["2"][name]] == []


def test_cli_import_leaves_scipy_out():
    # scipy is a test dependency only; no CLI job pays for its import.
    assert _probe("import sys, mcchannel.cli; print(sorted(m for m in "
                  "sys.modules if m.split('.')[0] == 'scipy'))") == "[]"


@pytest.mark.parametrize("command", ["analyze", "simulate"])
def test_commands_leave_numpy_ma_out(tmp_path, command):
    # np.unique imports numpy.ma on its first call (numpy 2.4), which cost
    # every analyze and simulate process about 9 ms; the CSV writers find
    # their runs without it.
    argv = [command, "--config", str(SCENARIOS / "baseline.yaml"),
            "--out", str(tmp_path / "out")]
    assert _probe("import sys, mcchannel.cli as cli; "
                  f"code = cli.main({argv!r}); "
                  "print(code, 'numpy.ma' in sys.modules)") == "0 False"


def test_cli_import_leaves_dataclasses_out():
    # The package's records are defined without dataclasses, whose
    # per-class exec cost every CLI job about 20 ms at import.
    assert _probe("import sys, mcchannel.cli; "
                  "print('dataclasses' in sys.modules)") == "False"


def test_gc_freeze_only_on_the_program_path(scenario_path, tmp_path):
    # Run as a program, the CLI freezes what its imports left behind
    # before main() runs; called in-process, main() leaves the host's
    # collector as it found it.
    argv = ["mcchannel", "design", "--config", str(scenario_path),
            "--out", str(tmp_path / "program")]
    code = ("import gc, runpy, sys\n"
            f"sys.argv = {argv!r}\n"
            "try:\n"
            "    runpy.run_module('mcchannel.cli', run_name='__main__')\n"
            "except SystemExit as stop:\n"
            "    print(stop.code, gc.get_freeze_count() > 0)\n")
    assert _probe(code) == "0 True"

    before = gc.get_freeze_count()
    assert cli.main(["design", "--config", str(scenario_path),
                     "--out", str(tmp_path / "in-process")]) == 0
    assert gc.get_freeze_count() == before


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as stop:
        cli.main(["--version"])
    assert stop.value.code == 0
    assert "mcchannel" in capsys.readouterr().out


def test_unknown_command_rejected():
    with pytest.raises(SystemExit):
        cli.main(["frobnicate"])


def test_shipped_scenarios_parse():
    scenario = load_scenario(SCENARIOS / "baseline.yaml")
    assert scenario.channel.x_r == 14.0
    assert scenario.band.omega2 == 0.4
    assert scenario.q0 == 1.2 * float(reception_amplitude_distortion(
        scenario.reception, scenario.band))
    table = load_table(SCENARIOS / "species.yaml")
    assert [row["name"] for row in table.species] == [
        "autoinducer", "neurotransmitter", "ion", "dna"]
    assert table.species[2]["mu_hi"] == 7000.0

    # a scenario dict round-trips through the parser
    doc = {
        "channel": {"mu": 83.0, "x_r": 14.0},
        "reception": {"k_f": 1e-3, "k_r": 4e-3, "r": 4.0},
        "band": {"omega1": 5e-4, "omega2": 0.4},
    }
    parsed = scenario_from_dict(doc)
    assert parsed.wave.period == 2.0 * math.pi / 5e-4
